"""Brute-force reference implementations used to cross-check the library.

Everything here favors obvious correctness over speed: plain loops, explicit
sorts, and no shared code paths with the package under test.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from vocab_bridge.alignment import _mapped_unit, _row_blocks
from vocab_bridge.embeddings import _unit_rows
from vocab_bridge.errors import (
    CountMismatch,
    DimMismatch,
    EmptyEvalDict,
    KTooLarge,
    MalformedHeader,
    MissingAnchor,
    NonFiniteValue,
    ParseError,
    RowArityMismatch,
    ValidationError,
)


def cosine(u, v) -> float:
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def mean_topk_cosines(x, rows, k: int) -> float:
    sims = sorted((cosine(x, r) for r in rows), reverse=True)
    return sum(sims[:k]) / k


def csls_pair(x, y, src_rows, tgt_rows, k: int) -> float:
    """2 cos(x, y) minus the two local neighborhood penalties."""
    return (
        2.0 * cosine(x, y)
        - mean_topk_cosines(x, tgt_rows, k)
        - mean_topk_cosines(y, src_rows, k)
    )


def csls_all_pairs(queries, targets, k: int) -> list[list[float]]:
    """Full CSLS score table with r-terms over the given matrices.

    Same definition as :func:`csls_pair` for every (query, target) pair, but
    the cosine table is computed once so large instances stay tractable.
    """
    cos = [[cosine(q, t) for t in targets] for q in queries]
    r_q = [sum(sorted(row, reverse=True)[:k]) / k for row in cos]
    r_t = [
        sum(sorted((row[j] for row in cos), reverse=True)[:k]) / k
        for j in range(len(targets))
    ]
    return [
        [2.0 * cos[i][j] - r_q[i] - r_t[j] for j in range(len(targets))]
        for i in range(len(queries))
    ]


def top_ids(scores, top: int) -> list[int]:
    """Best-first indices, ties broken by ascending index."""
    return sorted(range(len(scores)), key=lambda j: (-scores[j], j))[:top]


def softmax(scores) -> list[float]:
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    z = sum(exps)
    return [e / z for e in exps]


def mixture_weights_reference(candidates) -> list[tuple[str, float]]:
    """One record's softmax weights, as the package computed them record by
    record before the row-wise form; the bitwise reference for it."""
    if not candidates:
        raise ValidationError("cannot weight an empty candidate list")
    scores = np.array([s for _, s in candidates], dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValidationError("candidate scores contain non-finite values")
    exp = np.exp(scores - scores.max())
    weights = exp / exp.sum()
    return [(tok, float(w)) for (tok, _), w in zip(candidates, weights)]


def mixture_embedding_reference(weights, model_emb) -> np.ndarray:
    """One token's mixed row, as the package computed it token by token
    before rows were gathered per anchor slot; the bitwise reference for it."""
    if not weights:
        raise ValidationError("cannot mix an empty weight list")
    out = np.zeros(model_emb.dim)
    for anchor, weight in weights:
        idx = model_emb.vocab.index.get(anchor)
        if idx is None:
            raise MissingAnchor(anchor)
        out += weight * model_emb.rows[idx]
    return out


def random_rows_reference(new_tokens, model_vocab, model_emb, seed: int):
    """``expansion.random_rows`` as the package computed it token by token,
    one ``model_emb.row`` per donor, before the donor rows were gathered."""
    if len(model_vocab) == 0:
        raise ValidationError("cannot draw donor rows from an empty model")
    donors = np.random.default_rng(seed).integers(0, len(model_vocab), size=len(new_tokens))
    rows = np.empty((len(new_tokens), model_emb.dim))
    provenance = []
    for i, tok in enumerate(new_tokens):
        donor = model_vocab.token(int(donors[i]))
        rows[i] = model_emb.row(donor)
        provenance.append((tok, "random", f"donor={donor}"))
    return rows, provenance


def vocabulary_fault_reference(tokens) -> str | None:
    """The message of the first bad token in a token list, checked one token
    at a time, or None when the list makes a valid vocabulary."""
    seen = set()
    for i, tok in enumerate(tokens):
        if not isinstance(tok, str) or tok.split() != [tok]:
            return f"token {tok!r} at position {i} is empty, not a string or holds whitespace"
        if tok in seen:
            return f"duplicate token {tok!r} at position {i}"
        seen.add(tok)
    return None


def procrustes_grid_min_2d(x, y, n_angles: int, chunk: int = 20000) -> float:
    """Minimum of ||X M - Y||_F^2 over a grid of 2-D rotations and reflections.

    The grid holds ``n_angles`` rotations and ``n_angles`` reflections with
    angles evenly spaced over [0, 2 pi).
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    # (X M)[i, e] = sum_d M[d, e] X[i, d], so with M flattened to
    # (M00, M01, M10, M11) every grid matrix's X M is one row of flat @ lift
    n = len(x)
    lift = np.einsum("nd,ef->denf", x, np.eye(2)).reshape(4, 2 * n)
    target = np.asarray(y, dtype=np.float64).reshape(2 * n)
    best = math.inf
    for start in range(0, n_angles, chunk):
        c = np.cos(thetas[start : start + chunk])
        s = np.sin(thetas[start : start + chunk])
        rot = np.stack([c, -s, s, c], axis=1)
        refl = np.stack([c, s, s, -c], axis=1)
        for flat in (rot, refl):
            diffs = flat @ lift - target
            objs = np.sum(diffs * diffs, axis=1)
            best = min(best, float(objs.min()))
    return best


def procrustes_objective(x, y, matrix) -> float:
    return float(np.sum((x @ matrix - y) ** 2))


def precision_at_k_oracle(mapped_rows, mapped_index, tgt_rows, tgt_tokens, pairs, k_eval, k_csls):
    """Loop implementation of any-target precision over unique sources.

    ``mapped_rows`` must already be unit rows in target space.  Sources
    missing from ``mapped_index`` or with no present target are skipped.
    """
    tgt_index = {t: i for i, t in enumerate(tgt_tokens)}
    by_source: dict[str, list[str]] = {}
    order: list[str] = []
    for s, t in pairs:
        if s not in by_source:
            order.append(s)
        by_source.setdefault(s, []).append(t)
    hits = 0
    total = 0
    for source in order:
        targets = {t for t in by_source[source] if t in tgt_index}
        if source not in mapped_index or not targets:
            continue
        total += 1
        q = mapped_rows[mapped_index[source]]
        scores = [
            csls_pair(q, tgt_rows[j], mapped_rows, tgt_rows, k_csls)
            for j in range(len(tgt_rows))
        ]
        retrieved = {tgt_tokens[j] for j in top_ids(scores, k_eval)}
        if retrieved & targets:
            hits += 1
    return hits / total if total else None


# The previous CSLS kernel and two-call ``evaluate_map``, kept verbatim as
# bit-identity references.  They share the package's row blocking
# (``_row_blocks`` and its ``_BLOCK_CELLS`` budget), because the same blocks
# are what makes the comparison bitwise; ``TestCslsBlocks`` checks the blocks.


def _topk_mean(sims: np.ndarray, k: int) -> np.ndarray:
    """Row-wise mean of the k largest entries."""
    return np.partition(sims, -k, axis=1)[:, -k:].mean(axis=1)


def csls_topk_reference(
    queries: np.ndarray,
    targets: np.ndarray,
    src_rset: np.ndarray,
    k: int,
    top: int,
) -> tuple[np.ndarray, np.ndarray]:
    """A fresh product and partition copies per row block, one kernel call."""
    if queries.shape[1] != targets.shape[1]:
        raise DimMismatch(f"query dim {queries.shape[1]} != target dim {targets.shape[1]}")
    if k < 1:
        raise ValidationError(f"csls_k={k} must be positive")
    if top < 1 or top > len(targets):
        raise ValidationError(f"top={top} outside [1, {len(targets)}]")
    if k > len(targets) or k > len(src_rset):
        raise KTooLarge(f"csls_k={k} exceeds a matrix size ({len(src_rset)}, {len(targets)})")
    r_t = np.empty(len(targets))
    for b in _row_blocks(len(targets), len(src_rset)):
        r_t[b] = _topk_mean(targets[b] @ src_rset.T, k)
    ids = np.empty((len(queries), top), dtype=np.intp)
    best = np.empty((len(queries), top))
    for b in _row_blocks(len(queries), len(targets)):
        scores = queries[b] @ targets.T
        r_q = _topk_mean(scores, k)
        # in place, in the order of 2*sim - r_q - r_t, so scores stay bitwise equal
        scores *= 2.0
        scores -= r_q[:, None]
        scores -= r_t[None, :]
        # every column at or above the row's top-th best score, then an exact
        # (-score, id) sort of those few keeps ties at the cut in id order
        cut = scores.max(axis=1) if top == 1 else np.partition(scores, -top, axis=1)[:, -top]
        flat = np.flatnonzero(scores >= cut[:, None])
        rows, cols = np.divmod(flat, scores.shape[1])
        vals = scores.ravel()[flat]
        order = np.lexsort((cols, -vals, rows))
        starts = np.searchsorted(rows, np.arange(len(scores)))
        pick = order[(starts[:, None] + np.arange(top)).ravel()]
        ids[b] = cols[pick].reshape(-1, top)
        best[b] = vals[pick].reshape(-1, top)
    return ids, best


def evaluate_map_reference(
    linear_map,
    src,
    tgt,
    eval_dict,
    *,
    csls_k: int = 10,
    eval_k: int = 1,
    sample: int = 10000,
) -> tuple[float, float]:
    """``(precision, score)`` from two full kernel calls, each with its own r-term."""
    if sample < 1:
        raise ValidationError("sample must be positive")
    mapped = _mapped_unit(linear_map, src)
    t = _unit_rows(tgt.rows, tgt.vocab)
    evaluated: list[tuple[int, set[str]]] = []
    skipped = 0
    for source, listed in eval_dict.targets_by_source().items():
        targets = {t_ for t_ in listed if t_ in tgt.vocab}
        if source not in src.vocab or not targets:
            skipped += 1
            continue
        evaluated.append((src.vocab.id(source), targets))
    if not evaluated:
        raise EmptyEvalDict(f"no usable evaluation pairs ({skipped} sources skipped)")
    ids, _ = csls_topk_reference(
        mapped[[i for i, _ in evaluated]], t, mapped, csls_k, min(eval_k, len(t))
    )
    hits = sum(
        any(tgt.vocab.token(int(j)) in targets for j in id_row)
        for id_row, (_, targets) in zip(ids, evaluated)
    )
    sampled = mapped[:sample]
    ids, _ = csls_topk_reference(sampled, t, sampled, csls_k, 1)
    score = float(np.mean(np.sum(sampled * t[ids[:, 0]], axis=1)))
    return hits / len(evaluated), score


def format_matrix(labels, values) -> str:
    """Text-matrix file contents, formatting each value with ``format(v, ".9g")``.

    The reference for the package's block formatter
    (``embeddings._format_cells``), which must write the same bytes;
    ``labels`` is one token per row or ``None`` for a map.
    """
    lines = [f"{len(values)} {values.shape[1]}"]
    for i, row in enumerate(values):
        text = " ".join(format(v, ".9g") for v in row)
        lines.append(text if labels is None else f"{labels[i]} {text}")
    return "".join(line + "\n" for line in lines)


def _is_token(text: str) -> bool:
    return text.split() == [text]


def read_matrix_reference(path, labeled: bool):
    """The row-by-row text-matrix reader: ``(labels, values)`` or the first error.

    Each row is split in Python and assigned to its numpy row, which parses
    every field with Python ``float()`` syntax; checks run in line order.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().removesuffix("\n")
        try:
            count, dim = map(int, header.removesuffix(" ").split(" "))
        except ValueError:
            raise MalformedHeader(f"expected '<rows> <cols>', got {header!r}", line=1) from None
        if count < (0 if labeled else 1) or dim < 1:
            raise MalformedHeader(f"invalid header values {header!r}", line=1)

        labels = [] if labeled else None
        try:
            values = np.empty((count, dim))
        except (MemoryError, ValueError):  # numpy: ValueError when the size overflows
            raise MalformedHeader(f"header {header!r} does not fit in memory", line=1) from None
        width = dim + 1 if labeled else dim
        rows = 0
        for rows, line in enumerate(fh, start=1):
            lineno = rows + 1
            if rows > count:
                raise CountMismatch(f"header declares {count} rows but file has more", line=lineno)
            parts = line.removesuffix("\n").removesuffix(" ").split(" ")
            if len(parts) != width:
                raise RowArityMismatch(f"expected {width} fields, got {len(parts)}", line=lineno)
            if labeled:
                token = parts[0]
                if not _is_token(token):
                    raise ParseError(f"invalid token {token!r}", line=lineno)
                labels.append(token)
                parts = parts[1:]
            try:
                values[rows - 1] = parts
            except ValueError:
                raise ParseError("unparseable numeric value", line=lineno) from None
            if not np.isfinite(values[rows - 1]).all():
                raise NonFiniteValue("non-finite value", line=lineno)
        if rows < count:
            raise CountMismatch(f"header declares {count} rows but file has {rows}", line=rows + 2)
    return labels, values


def _bpe_merge(symbols, left: str, right: str) -> tuple:
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _pair_counts(words: dict) -> Counter:
    counts: Counter = Counter()
    for symbols, freq in words.items():
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += freq
    return counts


def bpe_apply_reference(merges, word: str, marker: str = "</w>") -> list[str]:
    """Merge the lowest-ranked adjacent pair until none is ranked."""
    ranks = {pair: rank for rank, pair in enumerate(merges)}
    symbols = tuple(word[:-1]) + (word[-1] + marker,)
    while True:
        ranked = [ranks[p] for p in zip(symbols, symbols[1:]) if p in ranks]
        if not ranked:
            break
        symbols = _bpe_merge(symbols, *merges[min(ranked)])
    return list(symbols[:-1]) + [symbols[-1][: -len(marker)]]


def bpe_train_reference(corpus, target_vocab: int, marker: str = "</w>", prefix: str = "##"):
    """The rescanning BPE trainer: recount every pair and symbol per merge.

    Returns ``(merges, wordpiece_vocab)`` with the package's stop rule and
    tie-break: highest count, then the smallest (left, right) pair.
    """
    words = {
        tuple(w[:-1]) + (w[-1] + marker,): f for w, f in corpus.items() if f > 0
    }
    merges = []
    while True:
        types = {s for symbols in words for s in symbols}
        if len(types) >= target_vocab:
            break
        counts = _pair_counts(words)
        if not counts:
            break
        best_freq = max(counts.values())
        if best_freq < 2:
            break
        pair = min(p for p, c in counts.items() if c == best_freq)
        merges.append(pair)
        words = {_bpe_merge(symbols, *pair): freq for symbols, freq in words.items()}
    entry_counts: Counter = Counter()
    for word, freq in corpus.items():
        if freq > 0:
            pieces = bpe_apply_reference(merges, word, marker)
            for piece in [pieces[0]] + [prefix + p for p in pieces[1:]]:
                entry_counts[piece] += freq
    vocab = tuple(sorted(entry_counts, key=lambda t: (-entry_counts[t], t)))
    return tuple(merges), vocab


def wordpiece_segment_reference(tokens, unk: str, word: str, max_chars: int, prefix: str = "##"):
    """Greedy longest-match-first segmentation: ``(pieces, status name)``.

    The first piece is looked up bare and every later one with ``prefix``;
    an over-long word, or one with no complete segmentation, is ``(unk,)``.
    """
    if len(word) > max_chars:
        return (unk,), "SUBWORD_OOV"
    pieces = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        found = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = prefix + piece
            if piece in tokens:
                found = piece
                break
            end -= 1
        if found is None:
            return (unk,), "SUBWORD_OOV"
        pieces.append(found)
        start = end
    if len(pieces) == 1 and pieces[0] == word:
        return tuple(pieces), "IN_VOCAB"
    return tuple(pieces), "WORD_OOV_SUBWORD_OK"
