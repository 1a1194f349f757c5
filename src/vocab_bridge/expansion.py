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
    _staged,
    _write_lines,
    save_embeddings,
    save_vocabulary,
)
from .errors import (
    DimMismatch,
    DuplicateNewToken,
    MissingAnchor,
    MissingAssignment,
    MissingToken,
    ValidationError,
)
from .mixture import format_anchors

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

    ``assignments`` maps every new token to its (anchor, weight) pairs.  In
    token order, a token without one raises ``MissingAssignment``, an empty
    list ``ValidationError`` and an anchor without a model row
    ``MissingAnchor``.
    """
    index = model_emb.vocab.index
    records = []
    for tok in new_tokens:
        anchors = assignments.get(tok)
        if anchors is None:
            raise MissingAssignment(tok)
        if not anchors:
            raise ValidationError("cannot mix an empty weight list")
        for anchor, _ in anchors:
            if anchor not in index:
                raise MissingAnchor(anchor)
        records.append(anchors)
    rows = np.empty((len(new_tokens), model_emb.dim))
    for m in set(map(len, records)):
        members = [i for i, anchors in enumerate(records) if len(anchors) == m]
        ids = np.array([[index[a] for a, _ in records[i]] for i in members])
        weights = np.array([[w for _, w in records[i]] for i in members], dtype=np.float64)
        # one gathered product per anchor slot, summed in anchor order from
        # zero: the same products and sums as mixing each token alone
        acc = np.zeros((len(members), model_emb.dim))
        for j in range(m):
            acc += weights[:, j, None] * model_emb.rows[ids[:, j]]
        rows[members] = acc
    provenance = [(tok, "mixture", format_anchors(a)) for tok, a in zip(new_tokens, records)]
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
    draws = np.random.default_rng(seed).integers(0, len(model_vocab), size=len(new_tokens))
    donors = [model_vocab.token(i) for i in draws.tolist()]
    rows = model_emb.rows[[model_emb.vocab.id(donor) for donor in donors]]
    return rows, [(tok, "random", f"donor={donor}") for tok, donor in zip(new_tokens, donors)]


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
    return EmbeddingMatrix._wrap(Vocabulary(model_vocab.tokens + new_tokens), rows)


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
        _write_lines(prov_tmp, map("\t".join, provenance))
