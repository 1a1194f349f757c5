"""Deterministic synthetic inputs for the pipeline benchmark.

One seed gives byte-identical files.  Every file is written in the format
the README documents, so the program sees nothing but ordinary inputs:

* ``train.txt``: BPE training corpus (Zipf over word types);
* ``test.txt``: held-out text for ``bpe-apply``, ``wordpiece`` and
  ``oov-stats``, with a fixed share of one-piece words and of words holding
  a character no vocabulary has;
* ``lang.vec`` / ``lang_vocab.txt``: the new language's subword rows;
* ``en.vec``: English pivot rows;
* ``model.vec`` / ``model_vocab.txt``: the pretrained model;
* ``train.dict`` / ``eval.dict``: source-to-English pairs;
* ``fasttext_trailing_space.vec``: the known-defect probe (not part of the
  pipeline).

The three spaces are a planted chain as in ``tests/conftest.py``: English
rows are latent unit vectors, model rows of the anchor pool are the latents
pushed through a row-orthonormal map, and a planted share of the source rows
are their English twin rotated back, plus a little noise.  What the checks
need to know (the planted twins, the expected OOV counts) goes to a separate
expectation record that the program never reads.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

BASE_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# letters of the new language that the model vocabulary lacks, so words
# holding them are subword-OOV before expansion and segmentable after
EXTRA_LETTERS = "ðøŋþæ"
# in no vocabulary at all: words holding it stay subword-OOV after expansion
RARE_CHAR = "ʔ"
SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
WORDS_PER_LINE = 12
PIECE_LETTERS = 3
# pieces per word type by Zipf rank, repeating: three types in ten are one piece
RANK_PIECES = (2, 1, 3, 2, 1, 2, 3, 2, 1, 3)
ZIPF_EXPONENT = 1.07
PLANT_NOISE = 0.02
TRAIN_SHARE = 0.75  # of the planted pairs; the rest are held out for align-eval
EVAL_TWIN_SHARE = 2 / 3  # held-out pairs listing the true twin
# values are written as multiples of 1e-4 in the package's own ".9g"
# rendering, so a row the program copies unchanged is byte-identical
QUANT = 10000
QUANT_LIMIT = 4 * QUANT


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's inputs."""

    dim: int  # source and English embedding dimension
    model_dim: int
    pieces: int  # multi-letter language pieces; each gives a bare and a ## token
    shared_pieces: int  # of those, pieces the model vocabulary also has
    planted_share: float  # source rows with a recoverable English twin
    en_rows: int
    pool_rows: int  # English tokens that are also model tokens
    filler_rows: int  # further model-only tokens
    word_types: int
    single_share: float  # test occurrences that are one-piece words
    train_tokens: int
    test_tokens: int
    rare_share: float  # test occurrences holding RARE_CHAR
    merges: int  # symbol types BPE may add beyond the initial characters


SHAPES = {
    "retrieval": Shape(
        dim=16, model_dim=24, pieces=340, shared_pieces=40, planted_share=0.6,
        en_rows=2000, pool_rows=700, filler_rows=40, word_types=400,
        single_share=0.3, train_tokens=3000, test_tokens=2000, rare_share=0.02,
        merges=10,
    ),
    "corpus": Shape(
        dim=32, model_dim=48, pieces=60, shared_pieces=20, planted_share=0.6,
        en_rows=240, pool_rows=160, filler_rows=40, word_types=3000,
        single_share=0.3, train_tokens=24000, test_tokens=9000, rare_share=0.02,
        merges=24,
    ),
    "model-io": Shape(
        dim=32, model_dim=768, pieces=40, shared_pieces=20, planted_share=0.6,
        en_rows=200, pool_rows=120, filler_rows=250, word_types=300,
        single_share=0.3, train_tokens=2000, test_tokens=1500, rare_share=0.02,
        merges=10,
    ),
}

# seconds-scale shapes for the harness smoke test
TINY = {
    "retrieval": Shape(
        dim=16, model_dim=24, pieces=60, shared_pieces=10, planted_share=0.6,
        en_rows=200, pool_rows=120, filler_rows=10, word_types=80,
        single_share=0.3, train_tokens=400, test_tokens=300, rare_share=0.02,
        merges=5,
    ),
    "corpus": Shape(
        dim=16, model_dim=24, pieces=30, shared_pieces=10, planted_share=0.6,
        en_rows=120, pool_rows=90, filler_rows=10, word_types=200,
        single_share=0.3, train_tokens=1500, test_tokens=800, rare_share=0.02,
        merges=8,
    ),
    "model-io": Shape(
        dim=16, model_dim=128, pieces=30, shared_pieces=10, planted_share=0.6,
        en_rows=120, pool_rows=90, filler_rows=60, word_types=80,
        single_share=0.3, train_tokens=400, test_tokens=300, rare_share=0.02,
        merges=5,
    ),
}


def shape_for(workload: str, size: str) -> Shape:
    table = TINY if size == "tiny" else SHAPES
    return table[workload]


def _unit_rows(rng, n: int, d: int) -> np.ndarray:
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _orthogonal(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _row_orthonormal(rng, d1: int, d2: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d2, d1)))
    return np.ascontiguousarray(q.T)


def _zipf(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    return w / w.sum()


def _value_strings() -> list[str]:
    return [format(k / QUANT, ".9g") for k in range(-QUANT_LIMIT, QUANT_LIMIT + 1)]


def _write_matrix(path: Path, tokens, rows: np.ndarray, values: list[str]) -> None:
    codes = np.clip(np.rint(rows * QUANT), -QUANT_LIMIT, QUANT_LIMIT).astype(np.int64)
    codes += QUANT_LIMIT
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(tokens)} {rows.shape[1]}\n")
        for tok, row in zip(tokens, codes.tolist()):
            fh.write(tok + " " + " ".join([values[c] for c in row]) + "\n")


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _words_to_lines(words) -> list[str]:
    return [
        " ".join(words[i:i + WORDS_PER_LINE]) for i in range(0, len(words), WORDS_PER_LINE)
    ]


def _make_pieces(rng, shape: Shape) -> tuple[list[str], list[str]]:
    """Distinct pieces of PIECE_LETTERS letters: (shared with the model, language-only)."""
    letters = np.array(list(BASE_LETTERS + EXTRA_LETTERS))
    base = np.array(list(BASE_LETTERS))
    shared: list[str] = []
    own: list[str] = []
    seen: set[str] = set()
    while len(shared) < shape.shared_pieces or len(own) < shape.pieces - shape.shared_pieces:
        want_shared = len(shared) < shape.shared_pieces
        piece = "".join(rng.choice(base if want_shared else letters, size=PIECE_LETTERS))
        if piece in seen:
            continue
        seen.add(piece)
        (shared if want_shared else own).append(piece)
    return shared, own


def _make_word_types(rng, shape: Shape, pieces: list[str], bare_tokens: set[str]):
    """Word types in Zipf rank order, and the one-piece ones among them.

    Each rank's piece count follows RANK_PIECES, so word lengths, and with
    them the work a corpus makes, do not depend on the seed.  Once every
    piece is a one-piece type, later one-piece ranks take two pieces.
    Multi-piece types are never a vocabulary token.
    """
    unused = iter([pieces[i] for i in rng.permutation(len(pieces))])
    types: list[str] = []
    single: list[str] = []
    seen: set[str] = set()
    for rank in range(shape.word_types):
        count = RANK_PIECES[rank % len(RANK_PIECES)]
        word = next(unused, None) if count == 1 else None
        if word is not None:
            single.append(word)
        else:
            while word is None or word in seen or word in bare_tokens:
                word = "".join(pieces[i] for i in rng.choice(len(pieces), size=max(count, 2)))
        seen.add(word)
        types.append(word)
    return types, single


def write_workload(workload: str, seed: int, out_dir: Path, size: str = "full"):
    """Write one workload's inputs into ``out_dir``.

    Returns ``(properties, expectations)``: the first describes the inputs
    for the results record, the second is what the output checks compare
    against.
    """
    shape = shape_for(workload, size)
    rng = np.random.default_rng([seed, sorted(SHAPES).index(workload)])
    out_dir.mkdir(parents=True, exist_ok=True)
    values = _value_strings()

    # --- vocabularies -------------------------------------------------
    shared_pieces, own_pieces = _make_pieces(rng, shape)
    pieces = shared_pieces + own_pieces
    letters = list(BASE_LETTERS + EXTRA_LETTERS)
    lang_tokens = letters + ["##" + c for c in letters]
    for p in pieces:
        lang_tokens += [p, "##" + p]
    en_tokens = [f"en{i:05d}" for i in range(shape.en_rows)]
    pool = en_tokens[: shape.pool_rows]
    model_tokens = (
        list(SPECIALS)
        + list(BASE_LETTERS)
        + ["##" + c for c in BASE_LETTERS]
        + [t for p in shared_pieces for t in (p, "##" + p)]
        + pool
        + [f"f{i:05d}" for i in range(shape.filler_rows)]
    )
    model_set = set(model_tokens)
    new_tokens = [t for t in lang_tokens if t not in model_set]

    # --- embeddings: planted chain ------------------------------------
    latent = _unit_rows(rng, shape.en_rows, shape.dim)
    q1 = _orthogonal(rng, shape.dim)
    q2 = _row_orthonormal(rng, shape.dim, shape.model_dim)
    n_src = len(lang_tokens)
    n_planted = min(round(shape.planted_share * n_src), shape.pool_rows)
    planted_ids = rng.permutation(n_src)[:n_planted]
    twins = rng.permutation(shape.pool_rows)[:n_planted]
    src_rows = _unit_rows(rng, n_src, shape.dim)
    noise = rng.standard_normal((n_planted, shape.dim)) * (PLANT_NOISE / np.sqrt(shape.dim))
    planted_rows = latent[twins] @ q1.T + noise
    src_rows[planted_ids] = planted_rows / np.linalg.norm(planted_rows, axis=1, keepdims=True)
    model_rows = _unit_rows(rng, len(model_tokens), shape.model_dim)
    pool_start = model_tokens.index(pool[0])
    model_rows[pool_start:pool_start + len(pool)] = latent[: len(pool)] @ q2

    planted = {lang_tokens[int(i)]: en_tokens[int(t)] for i, t in zip(planted_ids, twins)}
    n_train = round(TRAIN_SHARE * n_planted)
    train_pairs = [(lang_tokens[int(i)], en_tokens[int(t)])
                   for i, t in zip(planted_ids[:n_train], twins[:n_train])]
    # a third of the held-out sources list a wrong target (the next English
    # token): their twin outranks it, so precision is the listed-twin share
    n_listed = round(EVAL_TWIN_SHARE * (n_planted - n_train))
    eval_pairs = [
        (lang_tokens[int(i)], en_tokens[int(t) if k < n_listed else (int(t) + 1) % shape.en_rows])
        for k, (i, t) in enumerate(zip(planted_ids[n_train:], twins[n_train:]))
    ]

    # --- corpora ------------------------------------------------------
    bare_tokens = {t for t in lang_tokens + model_tokens if not t.startswith("##")}
    types, single = _make_word_types(rng, shape, pieces, bare_tokens)
    single_set = set(single)
    multi = [w for w in types if w not in single_set]
    train_words = [types[i] for i in
                   rng.choice(len(types), size=shape.train_tokens, p=_zipf(len(types)))]

    n_test_single = round(shape.single_share * shape.test_tokens)
    n_rare = max(1, round(shape.rare_share * shape.test_tokens))
    n_test_multi = shape.test_tokens - n_test_single - n_rare
    test_words = [single[i] for i in
                  rng.choice(len(single), size=n_test_single, p=_zipf(len(single)))]
    test_words += [multi[i] for i in
                   rng.choice(len(multi), size=n_test_multi, p=_zipf(len(multi)))]
    for i in rng.choice(len(multi), size=n_rare, p=_zipf(len(multi))):
        word = multi[i]
        cut = int(rng.integers(0, len(word) + 1))
        test_words.append(word[:cut] + RARE_CHAR + word[cut:])
    test_words = [test_words[i] for i in rng.permutation(len(test_words))]

    # --- files --------------------------------------------------------
    _write_lines(out_dir / "train.txt", _words_to_lines(train_words))
    _write_lines(out_dir / "test.txt", _words_to_lines(test_words))
    _write_lines(out_dir / "lang_vocab.txt", lang_tokens)
    _write_lines(out_dir / "model_vocab.txt", model_tokens)
    _write_matrix(out_dir / "lang.vec", lang_tokens, src_rows, values)
    _write_matrix(out_dir / "en.vec", en_tokens, latent, values)
    _write_matrix(out_dir / "model.vec", model_tokens, model_rows, values)
    _write_lines(out_dir / "train.dict", [f"{s}\t{t}" for s, t in train_pairs])
    _write_lines(out_dir / "eval.dict", [f"{s}\t{t}" for s, t in eval_pairs])
    # fastText ends the header and every row with a space
    probe_rows = _unit_rows(rng, 3, 4)
    _write_lines(
        out_dir / "fasttext_trailing_space.vec",
        ["3 4 "] + [f"w{i} " + " ".join(f"{v:.5f}" for v in row) + " "
                    for i, row in enumerate(probe_rows)],
    )

    # initial BPE symbols: every non-final character plus each final one
    # carrying the end-of-word marker
    symbols = {c for w in set(train_words) for c in w[:-1]} | {w[-1] + "</w>" for w in train_words}
    files = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        head = data.split(b"\n", 1)[0].split()
        files[path.name] = {
            "bytes": len(data),
            "lines": data.count(b"\n"),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        if path.suffix == ".vec" and len(head) == 2:
            files[path.name]["rows"], files[path.name]["dims"] = int(head[0]), int(head[1])
    properties = {
        "shape": asdict(shape),
        "files": files,
        "train_word_tokens": len(train_words),
        "train_word_types": len(set(train_words)),
        "train_repeat_share": 1 - len(set(train_words)) / len(train_words),
        "test_word_tokens": len(test_words),
        "test_word_types": len(set(test_words)),
        "test_repeat_share": 1 - len(set(test_words)) / len(test_words),
        "new_tokens": len(new_tokens),
        "anchor_pool": len(pool),
        "planted_pairs": n_planted,
        "bpe_vocab_size": len(symbols) + shape.merges,
    }
    expectations = {
        "planted": planted,
        "eval_planted_share": n_listed / len(eval_pairs),
        "test_words": len(test_words),
        "word_oov_after": len(test_words) - n_test_single,
        "subword_oov_after": n_rare,
        "new_tokens": len(new_tokens),
    }
    return properties, expectations


def digest(properties) -> str:
    """One hash over every generated file, for the same-seed self-test."""
    h = hashlib.sha256()
    for name, info in sorted(properties["files"].items()):
        h.update(f"{name} {info['sha256']}\n".encode())
    return h.hexdigest()
