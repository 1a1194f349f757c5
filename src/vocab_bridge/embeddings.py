"""Token vocabularies and dense embedding matrices, with text I/O.

The on-disk embedding format is the plain text interchange layout used by
word2vec and fastText: a header line ``<count> <dim>`` followed by one row per
token, fields separated by single spaces; one trailing space per line, as
fastText writes it, is ignored.  Values are written with 9 significant digits,
which round-trips float64 data to within 1e-8 relative error: each value's text
is byte for byte ``format(v, ".9g")``.  numpy builds the text of blocks of rows
at once from each value's correctly rounded 9-digit mantissa, a ``uint32``
whose digits and trailing zeros come from tables of the 10,000 4-digit groups;
Python's formatter writes the values printed in scientific notation and those
whose rounding numpy cannot be sure of.  Linear maps use the same layout
without the token column.  Vocabulary files hold one token per line; the
0-based line number is the token id.  Line files are read by
:func:`_read_lines` (vocabularies, merges, token lists, dictionaries, count
tables, mixture assignments) and written by :func:`_write_lines` (those,
provenance and every command's text output); no other module calls ``open``.
Every text output replaces its target atomically (see :func:`_atomic_text`) or
goes to stdout.  A matrix keeps its rows as given; :func:`_unit_rows` is the
one row normalization, and each scorer applies it to its own inputs.

A token is a non-empty string without whitespace.  Word-internal pieces carry
the fixed WordPiece prefix ``CONTINUATION_PREFIX`` (``"##"``); it is part of
the data format, so no file or object stores another spelling.  Tokens are
compared byte-wise.  No Unicode normalization or case folding is performed
anywhere in this package.

Each text matrix is parsed once per version of the file.  After a regular
file parses, its result is kept in ``__vbcache__/<name>.vbc`` beside it: the
file's stat key (:func:`_key`), the tokens and the rows in ``.npy`` form.  A
later read trusts the entry, without opening the file, exactly when
``os.stat`` gives the key it holds; any other read parses.  Git's rule for
racy index entries decides what is stored: a parse leaves an entry only if
the file's key did not move while it was read and its ctime is more than
``_RACY_NS`` before the read began, so that any later change to the file
moves its key.  A file read that soon after it changed is parsed on every
read until it ages.  A pipe or a device is parsed as it streams and never
cached.

A hit that passes every other check of the entry maps its rows read-only
instead of parsing; they are the same values bit for bit.  A stale, damaged
or unwritable entry only means the file is parsed.  An entry is never
compared with the file's content, so a backwards step of the wall clock, a
file system without a true ctime, or another program that writes an entry
under the file's key can make a read serve a stale entry; deleting
``__vbcache__`` forces a parse.  The logger ``vocab_bridge.embeddings`` says
at debug level which reads loaded an entry, which parsed and which entries
could not be written.

The entry format is ``vbcache-5``: its first line, the tag, the byte length
of the tokens and the five fields of the stat key, is padded so that the
rows start on a 64-byte boundary of the file, and so of the mapping.  An
entry of another format is a miss and is rewritten.  Each array mapped from
an entry holds one file descriptor until it is freed.  The package only
ever replaces an entry by rename (:func:`_staged`), so a mapping of the old
entry stays valid; another program that truncates an entry in place while
it is mapped makes the process die of SIGBUS when it reads the lost rows.
"""

from __future__ import annotations

import logging
import mmap
import os
import stat
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import time_ns

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
# Values per block that the text-matrix writer formats at once.
_FORMAT_CELLS = 2**14
# Values per block that the finite check tests at once.
_FINITE_CELLS = 2**16
# Where a text matrix's parsed form is kept, beside the file; the first
# line of an entry starts with the format tag.
_CACHE_DIR = "__vbcache__"
_ENTRY_SUFFIX = ".vbc"
_ENTRY_TAG = b"vbcache-5"
# A parse is stored only if the file's ctime is more than this before the
# read began: twice the coarsest ctime tick in common use (1 s, as on ext3
# and HFS+), which also covers the lag of a coarse clock.
_RACY_NS = 2 * 10**9
# Byte boundary in the entry file, and so in its mapping, where its rows start.
_ROW_ALIGN = 64

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


def _all_finite(values: np.ndarray) -> bool:
    """True if no value of ``values`` (at least 1-D) is NaN or infinite.

    ``np.isfinite`` runs over blocks of leading-axis slices of about
    ``_FINITE_CELLS`` values, so nothing of the array's size is allocated.
    """
    step = max(1, _FINITE_CELLS // max(1, values[:1].size))
    for start in range(0, len(values), step):
        if not np.isfinite(values[start:start + step]).all():
            return False
    return True


class EmbeddingMatrix:
    """A float64 matrix with one row per vocabulary token.

    Instances are immutable: the constructor copies the rows it is given and
    clears the copy's write flag.  Within the package, :meth:`_wrap` takes an
    array the package owns without copying it: a fresh result, or rows that
    :func:`load_embeddings` maps read-only from a cache entry, which hold one
    file descriptor while the matrix lives.  Rows are stored as given, never
    rescaled; the scorers normalize their own inputs.  ``duplicate_count``
    is the number of duplicate rows :func:`load_embeddings` dropped while
    parsing, and 0 for a matrix from anywhere else.
    """

    __slots__ = ("vocab", "rows", "duplicate_count")

    def __init__(self, vocab: Vocabulary, rows):
        self._hold(vocab, np.array(rows, dtype=np.float64, copy=True), 0)

    @classmethod
    def _wrap(cls, vocab: Vocabulary, rows: np.ndarray, *, duplicate_count: int = 0,
              finite: bool = False):
        """An instance over ``rows`` itself, with the constructor's checks but no copy.

        ``rows`` is a float64 array that nothing else writes: a fresh array of
        the package's, or a read-only mapping.  Its write flag is cleared.
        ``finite`` says the caller has already checked every value, so they
        are not scanned again.
        """
        emb = cls.__new__(cls)
        emb._hold(vocab, rows, duplicate_count, finite)
        return emb

    def _hold(self, vocab: Vocabulary, arr: np.ndarray, duplicate_count: int,
              finite: bool = False) -> None:
        if arr.ndim != 2:
            raise ValidationError(f"rows must be 2-D, got shape {arr.shape}")
        if arr.shape[0] != len(vocab):
            raise ValidationError(
                f"row count {arr.shape[0]} does not match vocabulary size {len(vocab)}"
            )
        if arr.shape[1] < 1:
            raise ValidationError("embedding dimension must be at least 1")
        if not (finite or _all_finite(arr)):
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
    # _read_matrix checked every value, in the parse or in the entry
    return EmbeddingMatrix._wrap(Vocabulary(first), rows, duplicate_count=duplicates,
                                 finite=True)


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


@contextmanager
def _open_text(path):
    """Open ``path`` to read as strict UTF-8; a decode error in the block is a ``ParseError``.

    Only LF ends a line, as the writers emit it, and nothing is translated: a
    lone CR stays inside its line, and the lines read are the file's text.
    """
    with open(path, encoding="utf-8", newline="\n") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{os.fspath(path)}: {exc}") from None


@contextmanager
def _atomic_text(path):
    """Open a UTF-8 text file that replaces ``path`` only if the block succeeds."""
    with _staged(path) as (tmp,), open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _read_lines(path) -> Iterator[tuple[int, str]]:
    """Yield ``(1-based line number, line without its LF)`` for each line of ``path``.

    The file is read as :func:`_open_text` reads it, so only LF ends a line.
    """
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            yield lineno, line.removesuffix("\n")


def _write_lines(path, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and an LF, atomically to ``path``; ``None`` means stdout."""
    with nullcontext(sys.stdout) if path is None else _atomic_text(path) as fh:
        for line in lines:
            fh.write(line + "\n")


def _read_matrix(path, labeled: bool) -> tuple[list[str] | None, np.ndarray]:
    """Read a ``<rows> <cols>`` text matrix; return ``(labels, values)``.

    With ``labeled`` each row starts with a token (``labels`` is their list),
    otherwise ``labels`` is ``None`` and at least one row is required.  A
    regular file whose cache entry holds its current stat key loads from the
    entry (:func:`_cached`).  Any other input is parsed
    (:func:`_parse_matrix`).  A regular file's result is then stored as its
    entry, unless the file's stat key moved during the read or its ctime is
    less than ``_RACY_NS`` before the read began: either could let a later
    version of the file match the entry.  A pipe or a device is read once, as
    it streams, and never stored.
    """
    entry = _cache_entry(path)
    if entry is not None:
        cached = _cached(entry, path, labeled)
        if cached is not None:
            return cached
        log.debug("%s: parsed, no valid entry in %s", path, entry)
    verified = time_ns()
    with _open_text(path) as fh:
        before = _key(os.fstat(fh.fileno()))
        labels, values = _parse_matrix(fh, labeled)
        after = _key(os.fstat(fh.fileno()))
    if entry is not None and before == after and before[-1] + _RACY_NS < verified:
        _store(entry, labels, values, before)
    return labels, values


def _key(st: os.stat_result) -> tuple[int, int, int, int, int]:
    """The stat key of a file: any write, ``utime``, ``chmod`` or rename over it changes it."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _valid_shape(count: int, dim: int, labeled: bool) -> bool:
    """True if a header may declare ``count`` rows of ``dim`` values."""
    return count >= (0 if labeled else 1) and dim >= 1


def _parse_header(header: str, labeled: bool) -> tuple[int, int]:
    """``(rows, cols)`` from a matrix header line without its LF."""
    try:
        count, dim = map(int, header.removesuffix(" ").split(" "))
    except ValueError:
        raise MalformedHeader(f"expected '<rows> <cols>', got {header!r}", line=1) from None
    if not _valid_shape(count, dim, labeled):
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
    """The ``(labels, values)`` that ``entry`` holds for ``path``, or ``None``.

    An entry is outside input.  It is trusted only if it holds the stat key
    (:func:`_key`) that ``os.stat`` gives for ``path`` now, and ``path``
    itself is not opened.  The result is also ``None`` unless the entry
    holds one valid token per row if ``labeled`` and none otherwise, and its
    rows are a finite C-order float64 array of a shape a header may declare
    and nothing after them.  The values are a read-only array mapped over
    the entry's rows, which holds a duplicate of the entry's descriptor
    until it is freed.
    """
    try:
        with open(entry, "rb") as fh:
            tag, size, *key = fh.readline(512).split()
            if tag != _ENTRY_TAG or not size.isdigit():
                return None
            if tuple(map(int, key)) != _key(os.stat(path)):
                return None
            text = fh.read(int(size)).decode("utf-8")
            labels = text.split("\n") if text else []
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            if len(shape) != 2 or not _valid_shape(*shape, labeled):
                return None
            count, dim = shape
            if len(labels) != (count if labeled else 0) or text.split() != labels:
                return None
            start = fh.tell()
            left = os.fstat(fh.fileno()).st_size - start
            if fortran or dtype != np.float64 or left != count * dim * 8:
                return None
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            values = np.frombuffer(mapped, np.float64, count * dim, start).reshape(count, dim)
    except (OSError, ValueError):
        return None
    if not _all_finite(values):
        return None
    log.debug("%s: loaded from %s", path, entry)
    return (labels if labeled else None), values


def _store(entry: Path, labels: list[str] | None, values: np.ndarray,
           key: tuple[int, ...]) -> None:
    """Write ``entry`` for a file parsed at stat key ``key``; a file system error leaves none.

    Spaces pad the first line so that the rows start at a multiple of
    ``_ROW_ALIGN``: a ``.npy`` header is a multiple of 64 bytes long.
    """
    text = "\n".join(labels).encode("utf-8") if labels is not None else b""
    line = b" ".join([_ENTRY_TAG, b"%d" % len(text), *(b"%d" % n for n in key)])
    line += b" " * (-(len(line) + 1 + len(text)) % _ROW_ALIGN) + b"\n"
    try:
        entry.parent.mkdir(exist_ok=True)
        with _staged(entry) as (tmp,), open(tmp, "wb") as fh:
            fh.write(line)
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
    """Write ``values`` (9 significant digits), each row after its label if any.

    Each value reads as ``format(v, ".9g")`` writes it.  The values are
    formatted in blocks of whole rows, about ``_FORMAT_CELLS`` values each
    (:func:`_format_cells`); a longer row is a block of its own.
    """
    count, dim = values.shape
    rows = max(1, _FORMAT_CELLS // dim)
    with _atomic_text(path) as fh:
        fh.write(f"{count} {dim}\n")
        for start in range(0, count, rows):
            text = _format_cells(values[start:start + rows]).decode("ascii")
            if labels is not None:
                text = "".join([f"{label} {line}\n" for label, line
                                in zip(labels[start:start + rows], text.split("\n"))])
            fh.write(text)


def _format_tables():
    """The lookup tables of :func:`_format_cells`, built with numpy arithmetic."""
    digits = np.stack(np.indices((10,) * 4, np.uint8).reshape(4, -1), axis=1) + ord("0")
    zeros = np.zeros(10000, np.uint8)
    for step in (10, 100, 1000, 10000):  # a multiple of step ends in one more zero
        zeros[::step] += 1
    key = np.arange(_ZERO_KEY)
    p, nd = key // 9 - 4, key % 9 + 1
    text_len = np.where(p >= 0, p + 1 + np.where(nd > p + 1, nd - p, 0), 1 - p + nd)
    return (digits.view("V4").ravel(), zeros,
            np.concatenate([text_len, [1], np.arange(16)]).astype(np.uint8) + 1,
            np.concatenate([7 + np.minimum(p, 0), [7], np.ones(16, np.intp)]))


# Keys of _format_cells, as uint8: 9 * p + 44 - z for a fixed-point cell
# whose decimal exponent is p (-4..8) and whose 9-digit mantissa ends in z
# zeros (0..8); then zeros; then _SLOW_KEY + its length for each cell Python
# formats, sign excluded.
_ZERO_KEY = 13 * 9
_SLOW_KEY = _ZERO_KEY + 1
# Bytes per record row of _format_cells: digits go to columns 8-16 (the
# leading one, then two 4-byte groups), and a separator can follow at 17.
_RECORD = 18
_POW10 = 10.0 ** np.arange(13)  # exact
# "0000".."9999" as 4-byte items, which numpy gathers without a per-item
# copy; trailing zeros of 0..9999 as 4 digits (uint8); per key, the bytes of
# its text and separator (uint8) and the text's first column in a record row.
_DIGITS4, _ZEROS4, _WIDTH, _BEGIN = _format_tables()


def _items(buffer: np.ndarray, offset: int, count: int, stride: int, size: int) -> np.ndarray:
    """``count`` items of ``size`` bytes of ``buffer``, ``stride`` bytes apart from ``offset``."""
    return np.ndarray((count,), f"V{size}", buffer, offset, (stride,))


def _cell_keys(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[bytes]]:
    """Classify the float64 values ``x`` for :func:`_format_cells`.

    Returns each value's key (see ``_ZERO_KEY``), its 9-digit mantissa as
    ``uint32``, which numpy divides by a constant in SIMD lanes (only
    meaningful for a fixed-point key), whether its text starts with a minus
    sign, and the text of each value Python formats, sign removed, in order.

    A value ``v`` with ``p = floor(log10|v|)`` in -4..8 is scaled by an exact
    power to ``s = |v| * 10**(8 - p)`` (one rounding, at most 6e-8 below
    2**30), and ``m`` is ``s`` rounded to an integer.  Where ``1e8 <= s``,
    ``m < 1e9`` and ``s`` is at least 1e-5 from a half-integer, ``m`` is
    certainly the correctly rounded mantissa and ``%.9g`` prints
    fixed-point.  Its trailing zeros are those of its last 4-digit group,
    and where that is 0000 also those of the group before.  Zeros also have
    a key.  Python formats every other value (scientific notation, uncertain
    rounding, non-finite), and its text gives the sign: ``-nan`` prints as
    ``nan``.
    """
    a = np.abs(x)
    with np.errstate(all="ignore"):  # log10(0), inf - inf, casts of nan
        p = np.fmin(np.fmax(np.floor(np.log10(a)), -4), 8)
        s = a * _POW10.take((8 - p).astype(np.intp))
        m = np.rint(s)
        # s in [1e8, 1e9) fixes the exponent at p whatever log10 gave
        fast = (s >= 1e8) & (m < 1e9) & (np.abs(s - m) <= 0.49999)
        mantissa = m.astype(np.int32).view(np.uint32)
    q = mantissa // 10000
    low = mantissa - q * 10000
    zeros = _ZEROS4.take(low) + _ZEROS4.take(q - q // 10000 * 10000) * (low == 0)
    key = (p * 9 + 44).astype(np.uint8) - zeros
    zero = a == 0
    key[zero] = _ZERO_KEY
    neg = np.signbit(x)
    slow = np.flatnonzero(~(fast | zero))
    texts = [format(v, ".9g") for v in x[slow].tolist()]
    neg[slow] = [text[0] == "-" for text in texts]
    bodies = [text.removeprefix("-").encode() for text in texts]
    key[slow] = [_SLOW_KEY + len(body) for body in bodies]
    return key, mantissa, neg, bodies


def _format_cells(block: np.ndarray) -> bytes:
    """``format(v, ".9g")`` of each value of a 2-D ``block``, each followed by a separator.

    The separator is a space, or an LF after each row's last value.  The
    cells are sorted by key (:func:`_cell_keys`), and each key's records
    (text and separator) are laid out with slice assignments in rows of
    ``rec``, then copied to their byte offsets in the output with one
    assignment of fixed-size items per key.
    """
    key, mantissa, neg, bodies = _cell_keys(np.asarray(block, dtype=np.float64).ravel())
    size = _WIDTH.take(key)  # text and separator
    ends = np.cumsum(size + neg, dtype=np.intp)  # past each separator, in the output
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=_SLOW_KEY + 16)
    bounds = [0, *np.cumsum(counts).tolist()]  # key g's records are rows bounds[g]:bounds[g + 1]

    rec = np.empty((key.size, _RECORD), np.uint8)
    nfast = bounds[_ZERO_KEY]
    m = mantissa.take(order[:nfast])
    q = m // 10000
    high = q // 10000
    rec[:nfast, 8] = high + ord("0")
    for col, digits in ((9, q - high * 10000), (13, m - q * 10000)):
        _items(rec, col, nfast, _RECORD, 4)[...] = _DIGITS4.take(digits)
    for p in range(-4, 9):
        lo, hi = bounds[(p + 4) * 9], bounds[(p + 4) * 9 + 9]
        if lo == hi:
            continue
        if p >= 0:  # the integer digits move left, before the point
            _items(rec, lo * _RECORD + 7, hi - lo, _RECORD, p + 1)[...] = \
                _items(rec, lo * _RECORD + 8, hi - lo, _RECORD, p + 1)
            rec[lo:hi, p + 8] = ord(".")
        else:
            for col, char in enumerate(b"0.000"[:1 - p], start=7 + p):
                rec[lo:hi, col] = char
    rec[bounds[_ZERO_KEY]:bounds[_SLOW_KEY], 7] = ord("0")
    if bodies:
        rec[bounds[_SLOW_KEY]:, 1:16] = np.frombuffer(
            b"".join(body.ljust(15) for body in sorted(bodies, key=len)), np.uint8).reshape(-1, 15)

    # The records cover every byte of the output but the minus sign before
    # each negative cell's text.
    out = np.full(int(ends[-1]), ord("-"), np.uint8)
    starts = (ends - size).take(order)  # where each text begins
    for g in np.flatnonzero(counts).tolist():
        lo, hi, begin, width = bounds[g], bounds[g + 1], int(_BEGIN[g]), int(_WIDTH[g])
        rec[lo:hi, begin + width - 1] = ord(" ")
        _items(out, 0, out.size + 1 - width, 1, width)[starts[lo:hi]] = \
            _items(rec, lo * _RECORD + begin, hi - lo, _RECORD, width)
    out[ends[block.shape[1] - 1::block.shape[1]] - 1] = ord("\n")
    return out.tobytes()


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
    return Vocabulary([line for _, line in _read_lines(path)])


def save_vocabulary(vocab: Vocabulary, path) -> None:
    _write_lines(path, vocab.tokens)
