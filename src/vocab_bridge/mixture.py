"""Mixture construction: new tokens as convex combinations of model rows.

A new subword token w with a mapped source-space vector is described by its
top-m CSLS anchor candidates from the anchor pool (English tokens that also
exist in the model vocabulary).  A max-shifted softmax over the candidate
scores gives mixture weights, and the token's model-space embedding is the
weighted sum of the anchors' raw model rows:

    e(w) = sum_u p(u | w) * model_row(u)

Weights therefore sum to one and the mixed vector lies in the convex hull of
its anchor rows.  All ranking happens on normalized copies; the raw model
rows are only combined, never rescaled.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .alignment import AlignConfig, LinearMap, _csls_topk, apply_map, _unit
from .embeddings import EmbeddingMatrix, Vocabulary, _atomic_text
from .errors import (
    DimMismatch,
    EmptyAnchorPool,
    MalformedLine,
    MissingAnchor,
    TokenNotFound,
    ValidationError,
)

WEIGHT_DECIMALS = 6


@dataclass(frozen=True, eq=False)
class MixtureAssignment:
    """Anchors, weights and the resulting vector for one new token.

    ``anchors`` is sorted by descending weight, ties by ascending anchor id
    in the English vocabulary; weights sum to 1 within 1e-9.
    """

    source_token: str
    anchors: tuple[tuple[str, float], ...]
    mixed_vector: np.ndarray = field(repr=False)


def mixture_weights(candidates: Sequence[tuple[str, float]]) -> list[tuple[str, float]]:
    """Softmax the candidate scores into weights (max-shifted for stability).

    Preserves candidate order.  Equal scores get equal weights; a lone
    candidate gets weight 1.0.
    """
    if not candidates:
        raise ValidationError("cannot weight an empty candidate list")
    scores = np.array([s for _, s in candidates], dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValidationError("candidate scores contain non-finite values")
    exp = np.exp(scores - scores.max())
    weights = exp / exp.sum()
    return [(tok, float(w)) for (tok, _), w in zip(candidates, weights)]


def mixture_embedding(
    weights: Sequence[tuple[str, float]], model_emb: EmbeddingMatrix
) -> np.ndarray:
    """Weighted sum of raw model rows; raises ``MissingAnchor`` on absence."""
    if not weights:
        raise ValidationError("cannot mix an empty weight list")
    out = np.zeros(model_emb.dim)
    for anchor, weight in weights:
        idx = model_emb.vocab.index.get(anchor)
        if idx is None:
            raise MissingAnchor(anchor)
        out += weight * model_emb.rows[idx]
    return out


def build_all_assignments(
    new_tokens: Sequence[str],
    src: EmbeddingMatrix,
    to_english: LinearMap,
    english: EmbeddingMatrix,
    model_emb: EmbeddingMatrix,
    model_vocab: Vocabulary,
    cfg: AlignConfig,
) -> list[MixtureAssignment]:
    """Mixture assignments for every new token, in input order.

    The anchor pool is computed once as the English tokens also present in
    ``model_vocab`` (English vocabulary order).  Each new token must have a
    source-space row; rows are mapped through ``to_english`` before scoring.

    Scores are CSLS with the source r-term over all mapped source rows and
    the target r-term over the anchor-pool rows only.  The neighborhood size
    is clamped to the pool and source sizes, so small pools stay usable.
    Each token keeps its ``min(cfg.top_m, len(pool))`` best anchors, ties by
    ascending id in the English vocabulary.
    """
    pool = [
        i for i, t in enumerate(english.vocab.tokens) if t in model_vocab and t in model_emb.vocab
    ]
    if not pool:
        raise EmptyAnchorPool("no English token is present in the model vocabulary")
    mapped = apply_map(to_english, _unit(src))
    eng_u = _unit(english)
    if mapped.dim != eng_u.dim:
        raise DimMismatch(f"mapped dim {mapped.dim} != English dim {eng_u.dim}")
    pool_rows = eng_u.rows[pool]
    k = min(cfg.csls_k, len(pool), len(mapped))

    q_ids = []
    for tok in new_tokens:
        if tok not in mapped.vocab:
            raise TokenNotFound(tok)
        q_ids.append(mapped.vocab.id(tok))
    if not q_ids:
        return []
    # pool positions follow English ids, so the kernel's tie order is theirs
    ids, scores = _csls_topk(
        mapped.rows[q_ids], pool_rows, mapped.rows, k, min(cfg.top_m, len(pool))
    )

    out = []
    for tok, id_row, score_row in zip(new_tokens, ids, scores):
        candidates = [
            (english.vocab.token(pool[int(j)]), float(s)) for j, s in zip(id_row, score_row)
        ]
        weighted = mixture_weights(candidates)
        # softmax preserves the score order, so the weight sort is already
        # descending with ties on ascending English id
        mixed = mixture_embedding(weighted, model_emb)
        out.append(
            MixtureAssignment(
                source_token=tok, anchors=tuple(weighted), mixed_vector=mixed
            )
        )
    return out


def format_anchors(anchors: Sequence[tuple[str, float]]) -> str:
    return ",".join(f"{tok}:{weight:.{WEIGHT_DECIMALS}f}" for tok, weight in anchors)


_WEIGHT_TAIL = re.compile(r":\d+\.\d{6}$")


def save_assignments(assignments: Sequence[MixtureAssignment], path) -> None:
    """Write one ``token<TAB>anchor:weight,...`` line per assignment."""
    with _atomic_text(path) as fh:
        for a in assignments:
            fh.write(f"{a.source_token}\t{format_anchors(a.anchors)}\n")


def load_assignments(path) -> list[tuple[str, list[tuple[str, float]]]]:
    """Parse an assignment file back into (token, weights) records.

    Weights were rounded to 6 decimals on save, so they are renormalized to
    sum exactly to one.  Anchor tokens containing a comma are recovered by
    re-joining split fragments until a ``:weight`` tail appears.
    """
    out: list[tuple[str, list[tuple[str, float]]]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise MalformedLine(f"expected 'token<TAB>anchors', got {line!r}", line=lineno)
            token, anchor_field = parts
            anchors: list[tuple[str, float]] = []
            buf: str | None = None
            for fragment in anchor_field.split(","):
                buf = fragment if buf is None else buf + "," + fragment
                if _WEIGHT_TAIL.search(buf):
                    tok, weight_text = buf.rsplit(":", 1)
                    if not tok:
                        raise MalformedLine(f"empty anchor token in {buf!r}", line=lineno)
                    anchors.append((tok, float(weight_text)))
                    buf = None
            if buf is not None or not anchors:
                raise MalformedLine(f"unparseable anchor list {anchor_field!r}", line=lineno)
            total = sum(w for _, w in anchors)
            if total <= 0:
                raise MalformedLine("anchor weights sum to zero", line=lineno)
            anchors = [(t, w / total) for t, w in anchors]
            out.append((token, anchors))
    return out
