"""Mixture construction: new tokens as convex combinations of model rows.

A new subword token w with a mapped source-space vector is described by its
top-m CSLS anchor candidates from the anchor pool (English tokens that also
exist in the model vocabulary).  A max-shifted softmax over the candidate
scores gives mixture weights, and the token's model-space embedding is the
weighted sum of the anchors' raw model rows:

    e(w) = sum_u p(u | w) * model_row(u)

Weights therefore sum to one and the mixed vector lies in the convex hull of
its anchor rows.  Ranking happens on unit-row arrays that
:func:`build_all_assignments` makes from its own inputs; the raw model rows
are only combined, never rescaled.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

import numpy as np

from .alignment import LinearMap, _csls_topk, _mapped_unit
from .embeddings import (
    EmbeddingMatrix,
    Vocabulary,
    _all_finite,
    _is_token,
    _read_lines,
    _unit_rows,
    _write_lines,
)
from .errors import (
    DuplicateNewToken,
    EmptyAnchorPool,
    MalformedLine,
    ValidationError,
)

WEIGHT_DECIMALS = 6


def mixture_weights(scores) -> np.ndarray:
    """Softmax each row of an ``(n, m)`` score array into weights.

    Each row is shifted by its own max for stability and keeps its column
    order.  Equal scores get equal weights; a lone score gets weight 1.0.
    An empty row or a non-finite score raises ``ValidationError``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] == 0:
        raise ValidationError(f"cannot weight score rows of shape {scores.shape}")
    if not _all_finite(scores):
        raise ValidationError("candidate scores contain non-finite values")
    exp = np.exp(scores - scores.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


def build_all_assignments(
    new_tokens: Sequence[str],
    src: EmbeddingMatrix,
    to_english: LinearMap,
    english: EmbeddingMatrix,
    model_emb: EmbeddingMatrix,
    model_vocab: Vocabulary,
    *,
    csls_k: int = 10,
    top_m: int = 5,
) -> list[tuple[str, list[tuple[str, float]]]]:
    """``(token, [(anchor, weight), ...])`` for every new token, in input order.

    These are the records :func:`save_assignments` writes and
    :func:`load_assignments` reads back; each anchor list is sorted by
    descending weight, ties by ascending anchor id in the English
    vocabulary, and its weights sum to 1 within 1e-9.

    The anchor pool is computed once as the English tokens also present in
    ``model_vocab`` (English vocabulary order).  Each new token must be
    distinct (``DuplicateNewToken``) and have a source-space row; rows are
    mapped through ``to_english`` before scoring.

    Scores are CSLS with the source r-term over all mapped source rows and
    the target r-term over the anchor-pool rows only.  The neighborhood size
    is clamped to the pool and source sizes, so small pools stay usable.
    Each token keeps its ``min(top_m, len(pool))`` best anchors.
    """
    pool = [
        i for i, t in enumerate(english.vocab.tokens) if t in model_vocab and t in model_emb.vocab
    ]
    if not pool:
        raise EmptyAnchorPool("no English token is present in the model vocabulary")
    mapped = _mapped_unit(to_english, src)
    pool_rows = _unit_rows(english.rows, english.vocab)[pool]

    q_ids: dict[str, int] = {}
    for tok in new_tokens:
        if tok in q_ids:
            raise DuplicateNewToken(tok)
        q_ids[tok] = src.vocab.id(tok)
    # pool positions follow English ids, so the kernel's tie order is theirs
    ids, scores = _csls_topk(
        mapped[list(q_ids.values())], pool_rows, mapped,
        min(csls_k, len(pool), len(mapped)), min(top_m, len(pool)),
    )
    # softmax preserves the score order, so each weight row is already
    # descending with ties on ascending English id
    weights = mixture_weights(scores)
    anchors = [english.vocab.tokens[i] for i in pool]
    return [
        (tok, [(anchors[j], w) for j, w in zip(id_row, w_row)])
        for tok, id_row, w_row in zip(new_tokens, ids.tolist(), weights.tolist())
    ]


def format_anchors(anchors: Sequence[tuple[str, float]]) -> str:
    return ",".join(f"{tok}:{weight:.{WEIGHT_DECIMALS}f}" for tok, weight in anchors)


# greedy ``.*`` splits an anchor at its last colon
_ANCHOR = re.compile(rf"(.*):(\d+\.\d{{{WEIGHT_DECIMALS}}})")


def save_assignments(
    assignments: Sequence[tuple[str, Sequence[tuple[str, float]]]], path
) -> None:
    """Write one ``token<TAB>anchor:weight,...`` line per (token, anchors) record."""
    _write_lines(path, (f"{token}\t{format_anchors(anchors)}" for token, anchors in assignments))


def load_assignments(path) -> list[tuple[str, list[tuple[str, float]]]]:
    """Parse an assignment file back into (token, weights) records.

    Weights were rounded to ``WEIGHT_DECIMALS`` decimals on save, so they are
    renormalized to sum exactly to one.  Anchor tokens containing a comma are
    recovered by re-joining split fragments until a ``:weight`` tail appears
    (exactly ``WEIGHT_DECIMALS`` digits after the point).  The token
    and every anchor must follow the token rule, no token may repeat, and no
    anchor may repeat within its record (``MalformedLine``).
    """
    out: dict[str, list[tuple[str, float]]] = {}
    for lineno, line in _read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not _is_token(parts[0]) or not parts[1]:
            raise MalformedLine(f"expected 'token<TAB>anchors', got {line!r}", line=lineno)
        token, anchor_field = parts
        if token in out:
            raise MalformedLine(f"repeated token {token!r}", line=lineno)
        anchors: dict[str, float] = {}
        buf: str | None = None
        for fragment in anchor_field.split(","):
            buf = fragment if buf is None else buf + "," + fragment
            match = _ANCHOR.fullmatch(buf)
            if match:
                tok, weight_text = match.groups()
                if not _is_token(tok):
                    raise MalformedLine(f"invalid anchor token in {buf!r}", line=lineno)
                if tok in anchors:
                    raise MalformedLine(f"repeated anchor {tok!r}", line=lineno)
                anchors[tok] = float(weight_text)
                buf = None
        if buf is not None or not anchors:
            raise MalformedLine(f"unparseable anchor list {anchor_field!r}", line=lineno)
        total = sum(anchors.values())
        if total <= 0:
            raise MalformedLine("anchor weights sum to zero", line=lineno)
        out[token] = [(t, w / total) for t, w in anchors.items()]
    return list(out.items())
