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

Each text matrix is parsed once per content.  After a regular file parses,
its result is kept in ``__vbcache__/<name>.vbc`` beside it: the SHA-256 of
the bytes parsed, the tokens and the rows in ``.npy`` form.  A later read
hashes the file and, if the digest and every check of the entry hold, loads
the rows from the entry instead of parsing; it returns the same values bit
for bit.  A stale, damaged or unwritable entry only means the file is
parsed.  The logger ``vocab_bridge.embeddings`` says at debug level which
reads hit, which parse and which entries could not be written.
"""

from __future__ import annotations

import hashlib
import io
import logging
import os
import stat
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import (
    CountMismatch,
    MalformedHeader,
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
# Cells per block of rows that the text-matrix reader parses at once.
_PARSE_CELLS = 2**17
# Where a text matrix's parsed form is kept, beside the file; the first
# line of an entry starts with the format tag.
_CACHE_DIR = "__vbcache__"
_ENTRY_SUFFIX = ".vbc"
_ENTRY_TAG = b"vbcache-1"

log = logging.getLogger(__name__)


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
        # all tokens at once: a space-join splits back into the same strings
        # exactly when each is a non-empty string without whitespace
        try:
            valid = " ".join(toks).split() == list(toks)
        except TypeError:
            valid = False
        index = dict(zip(toks, range(len(toks)))) if valid else {}
        if len(index) != len(toks):  # name the first bad token and its position
            seen: set[str] = set()
            for i, tok in enumerate(toks):
                if not isinstance(tok, str) or not _is_token(tok):
                    raise ValidationError(
                        f"token {tok!r} at position {i} is empty, not a string or holds whitespace"
                    )
                if tok in seen:
                    raise ValidationError(f"duplicate token {tok!r} at position {i}")
                seen.add(tok)
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


class _StageTemp(str):
    """The temporary file of an enclosing :func:`_staged` block, which renames it."""


@contextmanager
def _staged(*paths):
    """Yield temporary paths beside ``paths`` that replace them all if the block succeeds.

    A path that is already a temporary of an enclosing block is yielded as
    it is and written in place, so each file is renamed once, by that block.
    """
    tmps = [path if isinstance(path, _StageTemp)
            else _StageTemp(f"{os.fspath(path)}.{os.getpid()}.tmp") for path in paths]
    owned = [(tmp, path) for tmp, path in zip(tmps, paths) if tmp is not path]
    try:
        yield tmps
        for tmp, path in owned:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in owned:
            Path(tmp).unlink(missing_ok=True)
        raise


class _HashingReader(io.RawIOBase):
    """A binary file, opened to read, that feeds every byte read from it to ``digest``."""

    def __init__(self, file, digest):
        self._file = file
        self._digest = digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        self._digest.update(memoryview(buffer)[:n])
        return n

    def fileno(self) -> int:
        return self._file.fileno()

    def close(self) -> None:
        self._file.close()
        super().close()


@contextmanager
def _open_text(path, digest=None):
    """Open ``path`` to read as UTF-8; a decode error in the block is a ``ParseError``.

    Only LF ends a line, as the writers emit it: a lone CR stays inside its line.
    With ``digest`` (a ``hashlib`` object) every byte read is also hashed.
    """
    if digest is None:
        fh = open(path, encoding="utf-8", newline="\n")
    else:
        raw = _HashingReader(open(path, "rb", buffering=0), digest)
        fh = io.TextIOWrapper(io.BufferedReader(raw, 2**16), encoding="utf-8", newline="\n")
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{os.fspath(path)}: {exc}") from None


@contextmanager
def _atomic_text(path):
    """Open a UTF-8 text file that replaces ``path`` only if the block succeeds."""
    with _staged(path) as (tmp,), open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _read_matrix(path, labeled: bool) -> tuple[list[str] | None, np.ndarray]:
    """Read a ``<rows> <cols>`` text matrix; return ``(labels, values)``.

    With ``labeled`` each row starts with a token (``labels`` is their list),
    otherwise ``labels`` is ``None`` and at least one row is required.  A
    regular file whose cache entry holds its current bytes loads from the
    entry (:func:`_cached`); otherwise it is parsed (:func:`_parse_matrix`)
    while its bytes are hashed, and the result is stored as its entry.
    """
    entry = _cache_entry(path)
    if entry is None:  # a pipe or a device is read once, as it streams
        with _open_text(path) as fh:
            return _parse_matrix(fh, labeled)
    cached = _cached(entry, path, labeled)
    if cached is not None:
        log.debug("%s: loaded from %s", path, entry)
        return cached
    log.debug("%s: parsed, no valid entry in %s", path, entry)
    digest = hashlib.sha256()
    with _open_text(path, digest) as fh:
        before = os.fstat(fh.fileno())
        labels, values = _parse_matrix(fh, labeled)
        after = os.fstat(fh.fileno())
    # the digest is of the bytes parsed, so an entry is never wrong; a file
    # written to during the read would only leave one no later read matches
    if (before.st_size, before.st_mtime_ns) == (after.st_size, after.st_mtime_ns):
        _store(entry, digest.hexdigest(), labels, values)
    return labels, values


def _parse_header(header: str, labeled: bool) -> tuple[int, int]:
    """``(rows, cols)`` from a matrix header line without its LF."""
    try:
        count, dim = map(int, header.removesuffix(" ").split(" "))
    except ValueError:
        raise MalformedHeader(f"expected '<rows> <cols>', got {header!r}", line=1) from None
    if count < (0 if labeled else 1) or dim < 1:
        raise MalformedHeader(f"invalid header values {header!r}", line=1)
    return count, dim


def _parse_matrix(fh, labeled: bool) -> tuple[list[str] | None, np.ndarray]:
    """Stream the text matrix open in ``fh``; return ``(labels, values)``.

    Row counts, arity and tokens are checked line by line; the numbers are
    parsed in blocks of about ``_PARSE_CELLS`` cells (:func:`_parse_rows`).
    Errors name the 1-based line where they are found, the first bad line
    winning.
    """
    header = fh.readline().removesuffix("\n")
    count, dim = _parse_header(header, labeled)
    labels: list[str] | None = [] if labeled else None
    try:
        values = np.empty((count, dim))
    except (MemoryError, ValueError):  # numpy: ValueError when the size overflows
        raise MalformedHeader(f"header {header!r} does not fit in memory", line=1) from None
    width = dim + 1 if labeled else dim
    block_rows = max(1, _PARSE_CELLS // dim)
    pending: list[str] = []  # numeric text of the rows from values[start] on
    start = rows = 0

    def flush() -> None:
        nonlocal start
        end = start + len(pending)
        _parse_rows(pending, values[start:end], start + 2)
        pending.clear()
        start = end

    for rows, line in enumerate(fh, start=1):
        lineno = rows + 1
        if rows > count:
            flush()
            raise CountMismatch(f"header declares {count} rows but file has more", line=lineno)
        text = line.removesuffix("\n").removesuffix(" ")
        fields = text.count(" ") + 1
        if fields != width:
            flush()
            raise RowArityMismatch(f"expected {width} fields, got {fields}", line=lineno)
        if labeled:
            token, _, text = text.partition(" ")
            if not _is_token(token):
                flush()
                raise ParseError(f"invalid token {token!r}", line=lineno)
            labels.append(token)
        pending.append(text)
        if len(pending) == block_rows:
            flush()
    flush()
    if rows < count:
        raise CountMismatch(f"header declares {count} rows but file has {rows}", line=rows + 2)
    return labels, values


def _cache_entry(path) -> Path | None:
    """The cache entry of ``path`` if it names a regular file, else ``None``."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        file = Path(os.fsdecode(path))
    except (OSError, TypeError, ValueError):
        return None  # opening it to parse reports what is wrong
    return file.parent / _CACHE_DIR / (file.name + _ENTRY_SUFFIX)


def _cached(entry: Path, path, labeled: bool) -> tuple[list[str] | None, np.ndarray] | None:
    """The ``(labels, values)`` that ``entry`` holds for the current bytes of ``path``.

    An entry is outside input: ``None`` unless its digest is the SHA-256 of
    the file, its flag is ``labeled``, it holds one valid token per row
    declared in the file's header (none for a map) and its rows are a finite
    C-order float64 array of the header's shape and nothing after them.
    """
    try:
        with open(entry, "rb") as fh:
            tag, digest, flag, size = fh.readline(256).split()
            if tag != _ENTRY_TAG or flag != b"%d" % labeled or not size.isdigit():
                return None
            with open(path, "rb") as src:
                header = src.readline()
                src.seek(0)
                actual = hashlib.sha256()
                while block := src.read(2**18):
                    actual.update(block)
            if actual.hexdigest().encode() != digest:
                return None
            count, dim = _parse_header(header.decode("utf-8").removesuffix("\n"), labeled)
            text = fh.read(int(size)).decode("utf-8")
            labels = text.split("\n") if text else []
            if len(labels) != (count if labeled else 0) or text.split() != labels:
                return None
            start = fh.tell()
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if shape != (count, dim) or fortran or dtype != np.float64 or left != count * dim * 8:
                return None
            fh.seek(start)
            values = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, ParseError):
        return None
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        return None
    return (labels if labeled else None), values


def _store(entry: Path, digest: str, labels: list[str] | None, values: np.ndarray) -> None:
    """Write ``entry`` for a parsed file; a file system error only leaves it unwritten."""
    text = "\n".join(labels).encode("utf-8") if labels is not None else b""
    try:
        entry.parent.mkdir(exist_ok=True)
        with _staged(entry) as (tmp,), open(tmp, "wb") as fh:
            fh.write(b"%s %s %d %d\n" % (_ENTRY_TAG, digest.encode(), labels is not None, len(text)))
            fh.write(text)
            np.save(fh, values, allow_pickle=False)
    except OSError as exc:
        log.debug("%s: not cached: %s", entry, exc)


def _parse_rows(texts: list[str], out: np.ndarray, line: int) -> None:
    """Parse ``texts``, one row of space-separated numbers each, into ``out``.

    ``line`` is the line number of ``texts[0]``.  Every field follows Python
    ``float()`` syntax and must be finite.  numpy's C parser reads the whole
    block at once.  A block it rejects, or one holding an empty text or a
    character in U+001C-U+001F (which the C parser strips around a number
    but ``float()`` rejects), is parsed row by row instead: that accepts what
    ``float()`` accepts and finds the first bad line.
    """
    has_c0 = any("\x1c" in t or "\x1d" in t or "\x1e" in t or "\x1f" in t for t in texts)
    if texts and all(texts) and not has_c0:
        try:
            parsed = np.loadtxt(texts, delimiter=" ", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            parsed = None
        if parsed is not None and parsed.shape == out.shape:
            out[...] = parsed
            finite = np.isfinite(out).all(axis=1)
            if not finite.all():
                raise NonFiniteValue("non-finite value", line=line + int(finite.argmin()))
            return
    for offset, text in enumerate(texts):
        try:
            out[offset] = text.split(" ")
        except ValueError:
            raise ParseError("unparseable numeric value", line=line + offset) from None
        if not np.isfinite(out[offset]).all():
            raise NonFiniteValue("non-finite value", line=line + offset)


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


def load_vocabulary(path) -> Vocabulary:
    """Read a one-token-per-line vocabulary file; line number = token id."""
    with _open_text(path) as fh:
        tokens = [line.rstrip("\n") for line in fh]
    return Vocabulary(tokens)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with _atomic_text(path) as fh:
        for token in vocab.tokens:
            fh.write(token + "\n")
