"""Orthogonal alignment between embedding spaces and CSLS retrieval.

The central primitive is the orthogonal Procrustes solve: given paired rows
X (n x d1) and Y (n x d2), the semi-orthogonal M minimizing ||X M - Y||_F is
M = U V^T where U S V^T is the thin SVD of X^T Y.

Retrieval uses cross-domain similarity local scaling (CSLS), which penalizes
hub vectors:

    csls(x, y) = 2 cos(x, y) - r_tgt(x) - r_src(y)

where r_tgt(x) is the mean cosine from x to its k nearest neighbors in the
target set and r_src(y) the mean cosine from y to its k nearest in the
source set.

Ranking contract: one kernel, ``_csls_topk``, ranks every CSLS retrieval
(``csls_knn`` for ``csls-nn``, ``evaluate_map`` for both ``align-eval``
scores, and ``build_all_assignments`` for ``mixture-build`` anchors) and
checks their widths and depths.  It lists targets best first, ties broken by
ascending target id, so every retrieval is deterministic.  It computes both
r-terms and the scores in row blocks of about ``_BLOCK_CELLS`` cells, written
into block buffers allocated once per call (two at most), so memory is
bounded by that budget, not by queries x targets.  Blocking moves scores only
by rounding (within 1e-12 of one block) and leaves the ranking rule as it is.
The kernel is two steps, the target r-term and the ranking; ``evaluate_map``
runs them itself so that both ``align-eval`` scores share one target r-term
when the unsupervised sample is the whole source.

CSLS and the fits need unit rows, so each scorer and fit normalizes its own
inputs once (``embeddings._unit_rows``) and works on plain arrays from
there; a mapped matrix is normalized once, after the map.  Raw matrices are
never modified, and no intermediate ``EmbeddingMatrix`` is built.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .dictionary import BilingualDictionary
from .embeddings import EmbeddingMatrix, Vocabulary, _read_matrix, _unit_rows, _write_matrix
from .errors import (
    DegenerateInput,
    DimMismatch,
    EmptyEvalDict,
    EmptyIntersection,
    EmptyStage1Dict,
    EmptyStage2Anchors,
    KTooLarge,
    LowRankWarning,
    ValidationError,
)

log = logging.getLogger(__name__)

# Maximum entrywise deviation of M^T M (or M M^T) from identity.
ORTHOGONALITY_TOL = 1e-6
# Cells (rows x columns) of one CSLS similarity block: 1 MiB of float64.
_BLOCK_CELLS = 1 << 17


class LinearMap:
    """A semi-orthogonal linear map between embedding spaces.

    The matrix has shape (src_dim, tgt_dim) and is applied to row vectors as
    ``x @ matrix``.  Construction verifies semi-orthogonality: M^T M is the
    identity when src_dim >= tgt_dim, otherwise M M^T is.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        arr = np.array(matrix, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValidationError(f"map matrix must be 2-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValidationError(f"map matrix is empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("map matrix contains non-finite values")
        d1, d2 = arr.shape
        gram = arr.T @ arr - np.eye(d2) if d1 >= d2 else arr @ arr.T - np.eye(d1)
        dev = float(np.max(np.abs(gram)))
        if dev > ORTHOGONALITY_TOL:
            raise ValidationError(
                f"matrix is not semi-orthogonal (max deviation {dev:.3e})"
            )
        arr.setflags(write=False)
        self.matrix = arr

    @property
    def src_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def tgt_dim(self) -> int:
        return self.matrix.shape[1]

    def __repr__(self) -> str:
        return f"LinearMap({self.src_dim} -> {self.tgt_dim})"


@dataclass(frozen=True)
class Fit:
    """A fitted map with its training pair count and mean residual."""

    map: LinearMap
    pair_count: int
    mean_residual: float


def procrustes_solve(x, y) -> LinearMap:
    """Return the semi-orthogonal least-squares map from rows of x to y.

    Raises ``DegenerateInput`` when x^T y is exactly zero (every orientation
    is then equally good) and ``DimMismatch`` when the row counts differ.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 2 or ya.ndim != 2:
        raise ValidationError("inputs must be 2-D arrays of paired rows")
    if xa.shape[0] != ya.shape[0]:
        raise DimMismatch(f"paired row counts differ: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] < 1:
        raise ValidationError("need at least one paired row")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise ValidationError("inputs contain non-finite values")
    cross = xa.T @ ya
    if not cross.any():
        raise DegenerateInput("x^T y is the zero matrix; the map is unconstrained")
    u, _, vh = np.linalg.svd(cross, full_matrices=False)
    return LinearMap(u @ vh)


def apply_map(linear_map: LinearMap, emb: EmbeddingMatrix) -> EmbeddingMatrix:
    """Map every row of ``emb`` (``rows @ matrix``); rows are not rescaled."""
    _check_src_dim(linear_map, emb)
    return EmbeddingMatrix._wrap(emb.vocab, emb.rows @ linear_map.matrix)


def _check_src_dim(linear_map: LinearMap, emb: EmbeddingMatrix) -> None:
    if emb.dim != linear_map.src_dim:
        raise DimMismatch(
            f"embedding dim {emb.dim} does not match map source dim {linear_map.src_dim}"
        )


def _mapped_unit(linear_map: LinearMap, emb: EmbeddingMatrix) -> np.ndarray:
    """Rows of ``emb`` mapped by ``linear_map``, then normalized once."""
    _check_src_dim(linear_map, emb)
    return _unit_rows(emb.rows @ linear_map.matrix, emb.vocab)


def _row_blocks(n: int, cols: int) -> list[slice]:
    """Row slices of about ``_BLOCK_CELLS`` cells of an (n, cols) product.

    No block has one row unless n is 1: numpy rounds a (1, d) @ B.T product
    differently, so a 1-row remainder joins the block before it.
    """
    step = max(2, _BLOCK_CELLS // cols)
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _buffered_blocks(n: int, cols: int, count: int):
    """Yield each of ``_row_blocks(n, cols)`` with ``count`` (rows, cols) views.

    The views lie in ``count`` buffers allocated once, for the largest block
    (a joined remainder makes it one row longer than the step).
    """
    blocks = _row_blocks(n, cols)
    cells = max((b.stop - b.start for b in blocks), default=0) * cols
    buffers = [np.empty(cells) for _ in range(count)]
    for b in blocks:
        size = (b.stop - b.start) * cols
        yield b, *(buf[:size].reshape(-1, cols) for buf in buffers)


def _target_rterm(targets: np.ndarray, src_rset: np.ndarray, k: int) -> np.ndarray:
    """Mean cosine from each target row to its k nearest ``src_rset`` rows."""
    r_t = np.empty(len(targets))
    for b, sims in _buffered_blocks(len(targets), len(src_rset), 1):
        np.matmul(targets[b], src_rset.T, out=sims)
        # the product is not needed afterwards, so it is partitioned in place
        sims.partition(-k, axis=1)
        r_t[b] = sims[:, -k:].mean(axis=1)
    return r_t


def _csls_rank(
    queries: np.ndarray,
    targets: np.ndarray,
    r_t: np.ndarray,
    k: int,
    top: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``top`` best CSLS targets for every query row, given ``r_t``."""
    ids = np.empty((len(queries), top), dtype=np.intp)
    best = np.empty((len(queries), top))
    for b, scores, work in _buffered_blocks(len(queries), len(targets), 2):
        np.matmul(queries[b], targets.T, out=scores)
        # np.partition is a copy plus ndarray.partition, so partitioning a
        # copy in ``work`` keeps every mean and score bit for bit
        np.copyto(work, scores)
        work.partition(-k, axis=1)
        r_q = work[:, -k:].mean(axis=1)
        # in place, in the order of 2*sim - r_q - r_t, so scores stay bitwise equal
        scores *= 2.0
        scores -= r_q[:, None]
        scores -= r_t[None, :]
        # every column at or above the row's top-th best score, then an exact
        # (-score, id) sort of those few keeps ties at the cut in id order
        if top == 1:
            cut = scores.max(axis=1)
        else:
            np.copyto(work, scores)
            work.partition(-top, axis=1)
            cut = work[:, -top]
        flat = np.flatnonzero(scores >= cut[:, None])
        rows, cols = np.divmod(flat, scores.shape[1])
        vals = scores.ravel()[flat]
        order = np.lexsort((cols, -vals, rows))
        starts = np.searchsorted(rows, np.arange(len(scores)))
        pick = order[(starts[:, None] + np.arange(top)).ravel()]
        ids[b] = cols[pick].reshape(-1, top)
        best[b] = vals[pick].reshape(-1, top)
    return ids, best


def _check_csls(
    queries: np.ndarray, targets: np.ndarray, src_rset: np.ndarray, k: int, top: int
) -> None:
    if queries.shape[1] != targets.shape[1]:
        raise DimMismatch(f"query dim {queries.shape[1]} != target dim {targets.shape[1]}")
    if k < 1:
        raise ValidationError(f"csls_k={k} must be positive")
    if top < 1 or top > len(targets):
        raise ValidationError(f"top={top} outside [1, {len(targets)}]")
    if k > len(targets) or k > len(src_rset):
        raise KTooLarge(f"csls_k={k} exceeds a matrix size ({len(src_rset)}, {len(targets)})")


def _csls_topk(
    queries: np.ndarray,
    targets: np.ndarray,
    src_rset: np.ndarray,
    k: int,
    top: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``top`` best CSLS targets for every unit query row.

    Returns (ids, scores), both of shape (len(queries), top), best first,
    ties by ascending target id.  The query r-term is taken over ``targets``
    themselves, the target r-term over ``src_rset``.  Each row's r-term and
    ranking depend only on that row, so both run in row blocks: the target
    r-term step (``_target_rterm``) in one block buffer, the ranking step
    (``_csls_rank``) in two.  Each step allocates its buffers once, for its
    largest block, so memory is at most two block buffers per call.

    Every CSLS caller's argument checks live in ``_check_csls``, which this
    and ``evaluate_map`` call first: ``DimMismatch`` when query and target
    widths differ, ``ValidationError`` when ``k`` or ``top`` is below 1 or
    ``top`` exceeds the targets, and ``KTooLarge`` when ``k`` exceeds the
    targets or the ``src_rset`` rows.
    """
    _check_csls(queries, targets, src_rset, k, top)
    return _csls_rank(queries, targets, _target_rterm(targets, src_rset, k), k, top)


def csls_knn(
    queries: EmbeddingMatrix,
    targets: EmbeddingMatrix,
    top: int,
    *,
    csls_k: int = 10,
) -> list[tuple[str, list[tuple[str, float]]]]:
    """Top CSLS neighbors in ``targets`` for every query row.

    Returns one ``(query, [(target, score), ...])`` record per query row, in
    query order.  The r-terms use the full query and target matrices, over
    ``csls_k`` neighbors.  Each record's targets are sorted by descending
    score, ties by ascending target id.
    """
    q = _unit_rows(queries.rows, queries.vocab)
    t = _unit_rows(targets.rows, targets.vocab)
    ids, scores = _csls_topk(q, t, q, csls_k, top)
    names = targets.vocab.tokens
    return [
        (token, [(names[j], s) for j, s in zip(id_row, score_row)])
        for token, id_row, score_row in zip(queries.vocab.tokens, ids.tolist(), scores.tolist())
    ]


def evaluate_map(
    linear_map: LinearMap,
    src: EmbeddingMatrix,
    tgt: EmbeddingMatrix,
    eval_dict: BilingualDictionary,
    *,
    csls_k: int = 10,
    eval_k: int = 1,
    sample: int = 10000,
) -> tuple[float, float]:
    """Return ``(precision, score)``: precision@k and the unsupervised score.

    Precision at ``eval_k`` is taken over unique evaluated source tokens: a
    source scores a hit when any of its listed targets appears in the top
    ``eval_k`` CSLS retrieval of its mapped vector, with the target r-term
    over the whole mapped source.  Sources missing from the source matrix,
    and sources none of whose targets are in the target matrix, are skipped
    and counted.  Raises ``EmptyEvalDict`` when nothing remains.

    The unsupervised score (Conneau et al. 2018) is the mean cosine between
    the first ``min(sample, len(src))`` mapped sources and their CSLS best
    match, with the target r-term over those sampled rows only.  The sample
    follows the vocabulary's frequency order for frequency-sorted embedding
    files.  It needs no dictionary, so it serves as a sanity filter.

    Source and targets are mapped and normalized once for both numbers.
    When ``len(src) <= sample`` the sample is the whole mapped source, so the
    unsupervised score reuses the precision's target r-term instead of
    computing the same one again; a smaller sample takes its own.
    """
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
    if skipped:
        log.info("precision eval skipped %d of %d sources", skipped, skipped + len(evaluated))
    queries = mapped[[i for i, _ in evaluated]]
    top = min(eval_k, len(t))
    _check_csls(queries, t, mapped, csls_k, top)
    r_t = _target_rterm(t, mapped, csls_k)
    ids, _ = _csls_rank(queries, t, r_t, csls_k, top)
    hits = sum(
        any(tgt.vocab.token(int(j)) in targets for j in id_row)
        for id_row, (_, targets) in zip(ids, evaluated)
    )
    sampled = mapped[:sample]
    if len(sampled) == len(mapped):
        # the sample is the whole mapped source, so its target r-term is r_t
        ids, _ = _csls_rank(sampled, t, r_t, csls_k, 1)
    else:
        ids, _ = _csls_topk(sampled, t, sampled, csls_k, 1)
    score = float(np.mean(np.sum(sampled * t[ids[:, 0]], axis=1)))
    return hits / len(evaluated), score


def _fit_pairs(x_rows: np.ndarray, y_rows: np.ndarray, label: str) -> Fit:
    n = x_rows.shape[0]
    d = min(x_rows.shape[1], y_rows.shape[1])
    if n < d:
        warnings.warn(
            f"{label}: {n} training pairs for {d} dimensions; map is underdetermined",
            LowRankWarning,
            stacklevel=3,
        )
    solved = procrustes_solve(x_rows, y_rows)
    residual = float(np.mean(np.linalg.norm(x_rows @ solved.matrix - y_rows, axis=1)))
    log.info("%s: %d pairs, mean residual %.6f", label, n, residual)
    return Fit(solved, n, residual)


def fit_independent_mapping(src: EmbeddingMatrix, model_emb: EmbeddingMatrix) -> Fit:
    """Fit a single map from the source space straight into the model space.

    Training pairs are the tokens the two vocabularies share, matched
    byte-wise.  Raises ``EmptyIntersection`` when there are none; emits a
    ``LowRankWarning`` when there are fewer pairs than dimensions.
    """
    shared = [tok for tok in src.vocab.tokens if tok in model_emb.vocab]
    if not shared:
        raise EmptyIntersection("source and model vocabularies share no tokens")
    s, m = src.vocab, model_emb.vocab
    x_rows = _unit_rows(src.rows, s)[[s.id(t) for t in shared]]
    y_rows = _unit_rows(model_emb.rows, m)[[m.id(t) for t in shared]]
    return _fit_pairs(x_rows, y_rows, "independent fit")


def fit_joint_mapping(
    src: EmbeddingMatrix,
    english: EmbeddingMatrix,
    model_emb: EmbeddingMatrix,
    dictionary: BilingualDictionary,
    model_vocab: Vocabulary,
) -> tuple[Fit, Fit]:
    """Fit the two-stage route: source -> English -> model space.

    Returns ``(to_english, to_model)``.  Stage 1 fits ``to_english`` on
    every dictionary pair whose source has a source-space row and whose
    target has an English row (all pairs of a multi-target source are used).
    Stage 2 maps the source rows through ``to_english`` and fits ``to_model``
    on every dictionary pair whose target is in ``model_vocab`` and has a row
    in ``model_emb``.

    Raises ``EmptyStage1Dict`` or ``EmptyStage2Anchors`` when a stage has no
    usable pairs.
    """
    s = _unit_rows(src.rows, src.vocab)
    e = _unit_rows(english.rows, english.vocab)
    m = _unit_rows(model_emb.rows, model_emb.vocab)

    stage1 = [
        (w, t) for w, t in dictionary.pairs if w in src.vocab and t in english.vocab
    ]
    if not stage1:
        raise EmptyStage1Dict("no dictionary pair joins the source and English spaces")
    x1 = s[[src.vocab.id(w) for w, _ in stage1]]
    y1 = e[[english.vocab.id(t) for _, t in stage1]]
    to_english = _fit_pairs(x1, y1, "joint fit stage 1")

    mapped = _mapped_unit(to_english.map, src)
    stage2 = [
        (w, t)
        for w, t in dictionary.pairs
        if w in src.vocab and t in model_emb.vocab and t in model_vocab
    ]
    if not stage2:
        raise EmptyStage2Anchors("no dictionary target is a model token with a row")
    x2 = mapped[[src.vocab.id(w) for w, _ in stage2]]
    y2 = m[[model_emb.vocab.id(t) for _, t in stage2]]
    return to_english, _fit_pairs(x2, y2, "joint fit stage 2")


def save_map(linear_map: LinearMap, path) -> None:
    """Write a map as a ``d1 d2`` header plus d1 rows of 9-digit values."""
    _write_matrix(path, None, linear_map.matrix)


def load_map(path) -> LinearMap:
    """Read a map written by :func:`save_map`."""
    return LinearMap(_read_matrix(path, labeled=False)[1])
