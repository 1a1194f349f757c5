"""Token vocabularies and dense embedding matrices, with text I/O.

The on-disk embedding format is the plain text interchange layout used by
word2vec and fastText: a header line ``<count> <dim>`` followed by one row per
token, fields separated by single spaces; one trailing space per line, as
fastText writes it, is ignored.  Values are written with 9 significant
digits, which round-trips float64 data to within 1e-8 relative error.  Linear
maps use the same layout without the token column.  Vocabulary files hold one
token per line; the 0-based line number is the token id.  Every text output is
written atomically (see :func:`_atomic_text`).  A matrix keeps its rows as
given; :func:`_unit_rows` is the one row normalization, and each scorer
applies it to its own inputs.

A token is a non-empty string without whitespace.  Word-internal pieces carry
the fixed WordPiece prefix ``CONTINUATION_PREFIX`` (``"##"``); it is part of
the data format, so no file or object stores another spelling.  Tokens are
compared byte-wise.  No Unicode normalization or case folding is performed
anywhere in this package.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import (
    CountMismatch,
    MalformedHeader,
    MissingToken,
    NonFiniteValue,
    ParseError,
    RowArityMismatch,
    TokenNotFound,
    ValidationError,
    ZeroRow,
)

# Norm below which a row counts as zero and cannot be normalized.
ZERO_NORM_TOL = 1e-12
# Marks a word-internal piece in the WordPiece convention.
CONTINUATION_PREFIX = "##"


def _is_token(text: str) -> bool:
    """True for a non-empty string without whitespace (the token rule)."""
    return text.split() == [text]  # split() cuts at exactly the isspace() chars


class Vocabulary:
    """An ordered set of unique subword tokens.

    Token ids are positions in the original ordering.  Tokens must be
    non-empty and free of whitespace.
    """

    __slots__ = ("tokens", "index")

    def __init__(self, tokens: Iterable[str]):
        toks = tuple(tokens)
        index: dict[str, int] = {}
        for i, tok in enumerate(toks):
            if not isinstance(tok, str) or not _is_token(tok):
                raise ValidationError(
                    f"token {tok!r} at position {i} is empty, not a string or holds whitespace"
                )
            if tok in index:
                raise ValidationError(f"duplicate token {tok!r} at position {i}")
            index[tok] = i
        self.tokens = toks
        self.index = index

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: object) -> bool:
        return token in self.index

    def __iter__(self):
        return iter(self.tokens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.tokens == other.tokens

    def __repr__(self) -> str:
        return f"Vocabulary({len(self.tokens)} tokens)"

    def id(self, token: str) -> int:
        try:
            return self.index[token]
        except KeyError:
            raise TokenNotFound(token) from None

    def token(self, token_id: int) -> str:
        return self.tokens[token_id]


class EmbeddingMatrix:
    """A float64 matrix with one row per vocabulary token.

    Instances are immutable: the row array is copied on construction and its
    write flag is cleared.  Rows are stored as given, never rescaled; the
    scorers normalize their own inputs.  ``duplicate_count`` records how many
    duplicate rows were dropped while parsing, if the matrix came from
    :func:`load_embeddings`.
    """

    __slots__ = ("vocab", "rows", "duplicate_count")

    def __init__(self, vocab: Vocabulary, rows, *, duplicate_count: int = 0):
        arr = np.array(rows, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValidationError(f"rows must be 2-D, got shape {arr.shape}")
        if arr.shape[0] != len(vocab):
            raise ValidationError(
                f"row count {arr.shape[0]} does not match vocabulary size {len(vocab)}"
            )
        if arr.shape[1] < 1:
            raise ValidationError("embedding dimension must be at least 1")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("embedding rows contain non-finite values")
        arr.setflags(write=False)
        self.vocab = vocab
        self.rows = arr
        self.duplicate_count = duplicate_count

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def row(self, token: str) -> np.ndarray:
        """Return the embedding row for ``token`` (read-only view)."""
        return self.rows[self.vocab.id(token)]


def load_embeddings(path) -> EmbeddingMatrix:
    """Parse a text embedding file.

    Duplicate tokens keep the first occurrence; the number of dropped rows is
    available as ``duplicate_count`` on the result.  Parse problems raise
    errors naming the offending 1-based line number: ``MalformedHeader``,
    ``RowArityMismatch``, ``NonFiniteValue`` and ``CountMismatch``.
    """
    tokens, values = _read_matrix(path, labeled=True)
    first: dict[str, int] = {}
    for i, token in enumerate(tokens):
        first.setdefault(token, i)
    duplicates = len(tokens) - len(first)
    rows = values[list(first.values())] if duplicates else values
    return EmbeddingMatrix(Vocabulary(first), rows, duplicate_count=duplicates)


def save_embeddings(emb: EmbeddingMatrix, path) -> None:
    """Write ``emb`` in the text interchange format (9 significant digits)."""
    _write_matrix(path, emb.vocab.tokens, emb.rows)


@contextmanager
def _staged(*paths):
    """Yield temporary paths beside ``paths`` that replace them all if the block succeeds."""
    tmps = [Path(f"{os.fspath(path)}.{os.getpid()}.tmp") for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _atomic_text(path):
    """Open a UTF-8 text file that replaces ``path`` only if the block succeeds."""
    with _staged(path) as (tmp,), open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _read_matrix(path, labeled: bool) -> tuple[list[str] | None, np.ndarray]:
    """Stream a ``<rows> <cols>`` text matrix; return ``(labels, values)``.

    With ``labeled`` each row starts with a token (``labels`` is their list),
    otherwise ``labels`` is ``None`` and at least one row is required.  Errors
    name the 1-based line where they are found.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().removesuffix("\n")
        try:
            count, dim = map(int, header.removesuffix(" ").split(" "))
        except ValueError:
            raise MalformedHeader(f"expected '<rows> <cols>', got {header!r}", line=1) from None
        if count < (0 if labeled else 1) or dim < 1:
            raise MalformedHeader(f"invalid header values {header!r}", line=1)

        labels: list[str] | None = [] if labeled else None
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


def _write_matrix(path, labels: Sequence[str] | None, values: np.ndarray) -> None:
    """Write ``values`` (9 significant digits), each row after its label if any."""
    count, dim = values.shape
    fmt = " ".join(["%.9g"] * dim) + "\n"
    with _atomic_text(path) as fh:
        fh.write(f"{count} {dim}\n")
        for i, row in enumerate(values):
            if labels is not None:
                fh.write(labels[i] + " ")
            fh.write(fmt % tuple(row.tolist()))


def _unit_rows(rows: np.ndarray, vocab: Vocabulary) -> np.ndarray:
    """A new array of ``rows`` scaled to unit L2 norm; ``vocab`` names rows.

    Raises ``ZeroRow`` naming the first token whose norm is below
    ``ZERO_NORM_TOL``.  Applied to unit rows it changes nothing beyond 1e-12.
    """
    norms = np.linalg.norm(rows, axis=1)
    small = np.flatnonzero(norms < ZERO_NORM_TOL)
    if small.size:
        raise ZeroRow(vocab.token(int(small[0])))
    return rows / norms[:, None]


def subset(emb: EmbeddingMatrix, tokens: Sequence[str]) -> EmbeddingMatrix:
    """Restrict ``emb`` to ``tokens``, in the order requested.

    Raises ``MissingToken`` naming the first absent token and its position in
    the request.
    """
    ids = []
    for pos, tok in enumerate(tokens):
        idx = emb.vocab.index.get(tok)
        if idx is None:
            raise MissingToken(tok, pos)
        ids.append(idx)
    rows = emb.rows[ids] if ids else np.zeros((0, emb.dim))
    return EmbeddingMatrix(Vocabulary(tokens), rows)


def load_vocabulary(path) -> Vocabulary:
    """Read a one-token-per-line vocabulary file; line number = token id."""
    with open(path, encoding="utf-8") as fh:
        tokens = [line.rstrip("\n") for line in fh]
    return Vocabulary(tokens)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with _atomic_text(path) as fh:
        for token in vocab.tokens:
            fh.write(token + "\n")
