"""Vocabulary expansion: splice new subword tokens into a pretrained model.

The expanded vocabulary keeps the original vocabulary as an id-stable prefix
and appends the new tokens; original embedding rows are copied bit for bit.
Three builders make the new rows, each from only the inputs it reads:

* :func:`mixture_rows`: convex combination of anchor rows from a mixture
  assignment;
* :func:`joint_rows`: the token's source row pushed through both maps;
* :func:`random_rows`: a uniformly drawn donor row (baseline).

Each returns ``(new_rows, provenance)``, one ``(token, strategy, detail)``
record per new token saying how its row was built; :func:`expand_vocabulary`
splices the rows in and :func:`emit_expanded` writes the result.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
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


def select_new_subwords(lang_vocab: Vocabulary, model_vocab: Vocabulary) -> list[str]:
    """Language-vocabulary tokens absent from the model vocabulary, in order."""
    return [tok for tok in lang_vocab.tokens if tok not in model_vocab]


def mixture_rows(
    new_tokens: Sequence[str],
    assignments: Mapping[str, Sequence[tuple[str, float]]],
    model_emb: EmbeddingMatrix,
) -> tuple[np.ndarray, list[tuple[str, str, str]]]:
    """Each new token's row as the weighted sum of its anchors' model rows.

    ``assignments`` maps every new token to its (anchor, weight) pairs;
    a token without one raises ``MissingAssignment``.
    """
    rows = np.empty((len(new_tokens), model_emb.dim))
    provenance = []
    for i, tok in enumerate(new_tokens):
        anchors = assignments.get(tok)
        if anchors is None:
            raise MissingAssignment(tok)
        rows[i] = mixture_embedding(anchors, model_emb)
        provenance.append((tok, "mixture", format_anchors(anchors)))
    return rows, provenance


def joint_rows(
    new_tokens: Sequence[str],
    src: EmbeddingMatrix,
    to_english: LinearMap,
    to_model: LinearMap,
) -> tuple[np.ndarray, list[tuple[str, str, str]]]:
    """Each new token's source row pushed through ``to_english`` then ``to_model``.

    A token without a row in ``src`` raises ``MissingToken``.
    """
    if src.dim != to_english.src_dim:
        raise DimMismatch(f"source dim {src.dim} != first map input {to_english.src_dim}")
    if to_english.tgt_dim != to_model.src_dim:
        raise DimMismatch("the two maps do not compose")
    composed = to_english.matrix @ to_model.matrix
    rows = np.empty((len(new_tokens), to_model.tgt_dim))
    provenance = []
    for i, tok in enumerate(new_tokens):
        idx = src.vocab.index.get(tok)
        if idx is None:
            raise MissingToken(tok, i)
        # one product per row: a gathered product rounds differently
        rows[i] = src.rows[idx] @ composed
        provenance.append((tok, "joint", "mapped from source row"))
    return rows, provenance


def random_rows(
    new_tokens: Sequence[str],
    model_vocab: Vocabulary,
    model_emb: EmbeddingMatrix,
    seed: int,
) -> tuple[np.ndarray, list[tuple[str, str, str]]]:
    """Each new token's row copied from a donor drawn uniformly from ``model_vocab``."""
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


def expand_vocabulary(
    model_vocab: Vocabulary,
    model_emb: EmbeddingMatrix,
    new_rows: np.ndarray,
    provenance: Sequence[tuple[str, str, str]],
) -> EmbeddingMatrix:
    """The model with one row of ``new_rows`` appended per provenance record.

    ``model_vocab`` fixes the original token order; every one of its tokens
    must have a row in ``model_emb`` (``MissingToken`` names the first that
    does not, with its position).  The new tokens are the records' tokens and
    must be distinct and disjoint from ``model_vocab`` (``DuplicateNewToken``);
    ``new_rows`` holds their rows in the same order (``DimMismatch``
    otherwise).  With no records the output equals the input row for row.
    """
    new_tokens = tuple(token for token, _, _ in provenance)
    seen: set[str] = set()
    for tok in new_tokens:
        if tok in model_vocab or tok in seen:
            raise DuplicateNewToken(tok)
        seen.add(tok)

    n = len(model_vocab)
    ids = np.empty(n, dtype=np.intp)
    for pos, tok in enumerate(model_vocab.tokens):
        idx = model_emb.vocab.index.get(tok)
        if idx is None:
            raise MissingToken(tok, pos)
        ids[pos] = idx

    if new_rows.shape != (len(new_tokens), model_emb.dim):
        raise DimMismatch(
            f"new rows have shape {new_rows.shape}, expected "
            f"{(len(new_tokens), model_emb.dim)}"
        )
    rows = np.empty((n + len(new_tokens), model_emb.dim))
    # every id is valid; numpy documents ``out`` as buffered under mode="raise"
    np.take(model_emb.rows, ids, axis=0, out=rows[:n], mode="clip")
    rows[n:] = new_rows
    return EmbeddingMatrix(Vocabulary(model_vocab.tokens + new_tokens), rows)


def emit_expanded(
    model: EmbeddingMatrix, provenance: Sequence[tuple[str, str, str]], out_dir
) -> None:
    """Write vocab.txt, embeddings.vec and provenance.tsv into ``out_dir``, all or none."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = (out / VOCAB_FILE, out / EMBEDDINGS_FILE, out / PROVENANCE_FILE)
    with _staged(*files) as (vocab_tmp, emb_tmp, prov_tmp):
        save_vocabulary(model.vocab, vocab_tmp)
        save_embeddings(model, emb_tmp)
        with _atomic_text(prov_tmp) as fh:
            for record in provenance:
                fh.write("\t".join(record) + "\n")
