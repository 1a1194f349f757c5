"""Vocabulary expansion: splice new subword tokens into a pretrained model.

The expanded vocabulary keeps the original vocabulary as an id-stable prefix
and appends the new tokens; original embedding rows are copied bit for bit.
Three strategies produce rows for the new tokens:

* MIXTURE: convex combination of anchor rows from a mixture assignment;
* JOINT: the token's source-space row pushed through the two-stage maps;
* RANDOM: a uniformly drawn donor row from the original matrix (baseline).

Every new token gets a provenance record describing how its row was built.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alignment import LinearMap
from .embeddings import (
    EmbeddingMatrix,
    Vocabulary,
    _atomic_text,
    _staged,
    save_embeddings,
    save_vocabulary,
    subset,
)
from .errors import (
    DimMismatch,
    DuplicateNewToken,
    MissingAssignment,
    MissingToken,
    ValidationError,
)
from .mixture import format_anchors, mixture_embedding

PROVENANCE_FILE = "provenance.tsv"
VOCAB_FILE = "vocab.txt"
EMBEDDINGS_FILE = "embeddings.vec"


class StrategyKind(enum.Enum):
    MIXTURE = "mixture"
    JOINT = "joint"
    RANDOM = "random"


@dataclass(frozen=True)
class ExpansionStrategy:
    """Which row construction to use; RANDOM requires a seed."""

    kind: StrategyKind
    seed: int | None = None

    def __post_init__(self):
        if self.kind is StrategyKind.RANDOM and self.seed is None:
            raise ValidationError("RANDOM strategy requires a seed")


@dataclass(frozen=True)
class ProvenanceRecord:
    token: str
    strategy: str
    detail: str


@dataclass(frozen=True, eq=False)
class ExpandedModel:
    vocab: Vocabulary
    embeddings: EmbeddingMatrix
    provenance: tuple[ProvenanceRecord, ...]


def select_new_subwords(lang_vocab: Vocabulary, model_vocab: Vocabulary) -> list[str]:
    """Language-vocabulary tokens absent from the model vocabulary, in order."""
    return [tok for tok in lang_vocab.tokens if tok not in model_vocab]


def expand_vocabulary(
    model_vocab: Vocabulary,
    model_emb: EmbeddingMatrix,
    new_tokens: Sequence[str],
    strategy: ExpansionStrategy,
    *,
    assignments: Mapping[str, Sequence[tuple[str, float]]] | None = None,
    src: EmbeddingMatrix | None = None,
    to_english: LinearMap | None = None,
    to_model: LinearMap | None = None,
) -> ExpandedModel:
    """Build the expanded model.

    ``model_vocab`` fixes the original token order; every one of its tokens
    must have a row in ``model_emb``.  New tokens must be distinct and
    disjoint from the original vocabulary (``DuplicateNewToken``).  The
    MIXTURE strategy reads anchor weights from ``assignments``, a mapping from
    each new token to its (anchor, weight) pairs; JOINT needs ``src`` plus
    both maps; RANDOM draws donor rows with the strategy seed.  With zero new
    tokens the output equals the input row for row.
    """
    if model_emb.vocab.tokens == model_vocab.tokens:
        original_rows = model_emb.rows
    else:
        original_rows = subset(model_emb, model_vocab.tokens).rows

    seen: set[str] = set()
    for tok in new_tokens:
        if tok in model_vocab or tok in seen:
            raise DuplicateNewToken(tok)
        seen.add(tok)

    dim = model_emb.dim
    new_rows = np.zeros((len(new_tokens), dim))
    provenance: list[ProvenanceRecord] = []

    if strategy.kind is StrategyKind.MIXTURE:
        if assignments is None:
            raise ValidationError("MIXTURE strategy requires assignments")
        for i, tok in enumerate(new_tokens):
            anchors = assignments.get(tok)
            if anchors is None:
                raise MissingAssignment(tok)
            new_rows[i] = mixture_embedding(anchors, model_emb)
            provenance.append(ProvenanceRecord(tok, "mixture", format_anchors(anchors)))
    elif strategy.kind is StrategyKind.JOINT:
        if src is None or to_english is None or to_model is None:
            raise ValidationError("JOINT strategy requires src and both maps")
        if src.dim != to_english.src_dim:
            raise DimMismatch(f"source dim {src.dim} != first map input {to_english.src_dim}")
        if to_english.tgt_dim != to_model.src_dim:
            raise DimMismatch("the two maps do not compose")
        if to_model.tgt_dim != dim:
            raise DimMismatch(f"second map output {to_model.tgt_dim} != model dim {dim}")
        composed = to_english.matrix @ to_model.matrix
        for i, tok in enumerate(new_tokens):
            idx = src.vocab.index.get(tok)
            if idx is None:
                raise MissingToken(tok, i)
            new_rows[i] = src.rows[idx] @ composed
            provenance.append(ProvenanceRecord(tok, "joint", "mapped from source row"))
    elif strategy.kind is StrategyKind.RANDOM:
        rng = np.random.default_rng(strategy.seed)
        if len(model_vocab) == 0:
            raise ValidationError("cannot draw donor rows from an empty model")
        donors = rng.integers(0, len(model_vocab), size=len(new_tokens))
        for i, tok in enumerate(new_tokens):
            donor = int(donors[i])
            new_rows[i] = original_rows[donor]
            provenance.append(
                ProvenanceRecord(tok, "random", f"donor={model_vocab.token(donor)}")
            )
    else:  # pragma: no cover - enum is closed
        raise ValidationError(f"unknown strategy {strategy.kind}")

    vocab = Vocabulary(model_vocab.tokens + tuple(new_tokens))
    rows = np.vstack([original_rows, new_rows]) if len(new_tokens) else original_rows
    emb = EmbeddingMatrix(vocab, rows)
    return ExpandedModel(vocab=vocab, embeddings=emb, provenance=tuple(provenance))


def emit_expanded(model: ExpandedModel, out_dir) -> None:
    """Write vocab.txt, embeddings.vec and provenance.tsv into ``out_dir``, all or none."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = (out / VOCAB_FILE, out / EMBEDDINGS_FILE, out / PROVENANCE_FILE)
    with _staged(*files) as (vocab_tmp, emb_tmp, prov_tmp):
        save_vocabulary(model.vocab, vocab_tmp)
        save_embeddings(model.embeddings, emb_tmp)
        with _atomic_text(prov_tmp) as fh:
            for rec in model.provenance:
                fh.write(f"{rec.token}\t{rec.strategy}\t{rec.detail}\n")
