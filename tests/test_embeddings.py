"""Vocabulary and embedding matrix behavior, including text round-trips."""

import hashlib
import io
import logging
import mmap
import os
import struct
import tempfile
import shutil
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles

from vocab_bridge import (
    EmbeddingMatrix,
    Vocabulary,
    bpe_train,
    expand_vocabulary,
    load_dictionary,
    load_embeddings,
    load_map,
    load_vocabulary,
    save_embeddings,
    save_vocabulary,
    wordpiece_segment,
)
from vocab_bridge import embeddings
from vocab_bridge.cli import _read_tokens
from vocab_bridge.embeddings import (
    _atomic_text,
    _is_token,
    _read_matrix,
    _unit_rows,
    _write_matrix,
)
from vocab_bridge.errors import (
    CountMismatch,
    MalformedHeader,
    MalformedLine,
    MissingToken,
    NonFiniteValue,
    ParseError,
    RowArityMismatch,
    TokenNotFound,
    ValidationError,
    ZeroRow,
)
from vocab_bridge.tokenizer import MERGES_HEADER, load_bpe_model

from conftest import make_emb, unit_rows


class TestVocabulary:
    def test_ids_follow_input_order(self):
        v = Vocabulary(["the", "##er", "ca"])
        assert v.id("the") == 0
        assert v.id("ca") == 2
        assert v.token(1) == "##er"
        assert "##er" in v and "er" not in v

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Vocabulary(["a", "b", "a"])

    def test_rejects_empty_token(self):
        with pytest.raises(ValidationError):
            Vocabulary(["a", ""])

    def test_rejects_whitespace(self):
        for bad in ["a b", "a\tb", "a\nb"]:
            with pytest.raises(ValidationError):
                Vocabulary([bad])

    def test_first_fault_is_named_with_its_position(self):
        """An invalid token before a duplicate, and a duplicate before an
        invalid token, each raise the message of the earlier fault."""
        with pytest.raises(ValidationError) as exc:
            Vocabulary(["a", "b c", "b", "a"])
        assert str(exc.value) == (
            "token 'b c' at position 1 is empty, not a string or holds whitespace"
        )
        with pytest.raises(ValidationError) as exc:
            Vocabulary(["a", "b", "a", "", 7])
        assert str(exc.value) == "duplicate token 'a' at position 2"

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["a", "b", "ça", "##er", "", " ", "a b", "c\u2028", 7, None, b"a"]),
            max_size=8,
        )
    )
    def test_rejections_match_a_token_by_token_check(self, tokens):
        want = oracles.vocabulary_fault_reference(tokens)
        if want is None:
            vocab = Vocabulary(tokens)
            assert vocab.tokens == tuple(tokens)
            assert vocab.index == {tok: i for i, tok in enumerate(tokens)}
        else:
            with pytest.raises(ValidationError) as exc:
                Vocabulary(tokens)
            assert str(exc.value) == want

    def test_byte_wise_comparison(self):
        """No case folding or Unicode normalization: distinct spellings coexist."""
        v = Vocabulary(["Je", "je", "ça", "ça"])
        assert len(v) == 4
        assert v.id("je") != v.id("Je")

    def test_unknown_token_raises(self):
        with pytest.raises(TokenNotFound):
            Vocabulary(["a"]).id("b")

    def test_equality_is_by_tokens_and_only_with_vocabularies(self):
        v = Vocabulary(["a", "##b"])
        assert v == Vocabulary(["a", "##b"]) and v != Vocabulary(["##b", "a"])
        assert v.__eq__(("a", "##b")) is NotImplemented
        assert v != ("a", "##b") and v != ["a", "##b"] and v != "a ##b"


class TestEmbeddingMatrix:
    def test_rows_are_immutable(self):
        m = make_emb(["a", "b"], np.eye(2))
        with pytest.raises(ValueError):
            m.rows[0, 0] = 5.0

    def test_owns_a_frozen_copy_of_its_rows(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = make_emb(["a", "b"], arr)
        assert not np.shares_memory(m.rows, arr)
        assert not m.rows.flags.writeable
        arr[0, 0] = 9.0
        assert m.rows[0, 0] == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            make_emb(["a"], [[np.nan, 1.0]])

    def test_wrap_freezes_the_array_itself(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = EmbeddingMatrix._wrap(Vocabulary(["a", "b"]), arr, duplicate_count=2)
        assert m.rows is arr and not arr.flags.writeable and m.duplicate_count == 2

    @pytest.mark.parametrize("rows, match", [
        (np.zeros(2), "2-D"), (np.eye(3), "row count"), (np.zeros((2, 0)), "dimension"),
        (np.array([[1.0, 2.0], [np.nan, 4.0]]), "non-finite"),
        (np.array([[1.0, -np.inf], [3.0, 4.0]]), "non-finite"),
    ])
    def test_wrap_keeps_the_constructor_checks(self, rows, match):
        for build in (EmbeddingMatrix, EmbeddingMatrix._wrap):
            with pytest.raises(ValidationError, match=match):
                build(Vocabulary(["a", "b"]), rows)

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValidationError):
            make_emb(["a", "b"], np.eye(3))

    def test_row_lookup(self):
        m = make_emb(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(m.row("b"), [3.0, 4.0])


@st.composite
def _finite_check_inputs(draw):
    """A 1-D or 2-D float64 array, maybe with one NaN, -NaN or infinity, maybe sliced."""
    shape = tuple(draw(st.lists(st.integers(0, 12), min_size=1, max_size=2)))
    values = draw(arrays(np.float64, shape, elements=st.floats(-1e300, 1e300)))
    if values.size and draw(st.booleans()):
        special = draw(st.sampled_from([np.nan, -np.nan, np.copysign(np.nan, -1.0),
                                        np.inf, -np.inf]))
        values.flat[draw(st.integers(0, values.size - 1))] = special
    view = draw(st.sampled_from(["whole", "every-other-row", "reversed", "transposed",
                                 "every-third-column"]))
    if view == "every-other-row":
        values = values[::2]
    elif view == "reversed":
        values = values[::-1]
    elif view == "transposed":
        values = values.T
    elif view == "every-third-column" and values.ndim == 2:
        values = values[:, ::3]
    return values


class TestAllFinite:
    """``_all_finite``, the package's one whole-array finite check."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_finite_check_inputs(), st.sampled_from([1, 5, 64, 2**16]))
    @example(np.zeros(0), 1)
    @example(np.zeros((0, 4)), 1)
    @example(np.zeros((3, 0)), 1)
    @example(np.array([1.0, np.copysign(np.nan, -1.0)]), 1)
    def test_matches_isfinite_all(self, values, cells):
        """Blocked over any block size, it agrees with ``np.isfinite(values).all()``."""
        with mock.patch.object(embeddings, "_FINITE_CELLS", cells):
            assert embeddings._all_finite(values) == bool(np.isfinite(values).all())

    def test_allocates_no_array_of_the_input_size(self):
        values = np.zeros((2000, 512))
        values[-1, -1] = np.nan
        tracemalloc.start()
        try:
            assert not embeddings._all_finite(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= embeddings._FINITE_CELLS + 2**14


class _TextMatrixErrors:
    """Parse cases shared by every text-matrix loader, each with its line.

    Cases are written as embedding files; a subclass's ``_load`` adapts the
    text to its own format and ``_values`` returns the loaded matrix.
    """

    def test_malformed_header(self, tmp_path):
        with pytest.raises(MalformedHeader) as err:
            self._load(tmp_path, "2\nfoo 1\n")
        assert err.value.line == 1

    def test_header_too_large_for_memory(self, tmp_path):
        with pytest.raises(MalformedHeader) as err:
            self._load(tmp_path, f"{10**15} {10**6}\nfoo 1\n")
        assert err.value.line == 1

    def test_row_arity_mismatch_names_line(self, tmp_path):
        with pytest.raises(RowArityMismatch) as err:
            self._load(tmp_path, "2 3\nfoo 1 2 3\nbar 4 5\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_values(self, tmp_path, bad):
        with pytest.raises(NonFiniteValue) as err:
            self._load(tmp_path, f"1 2\nfoo 1 {bad}\n")
        assert err.value.line == 2

    def test_unparseable_value(self, tmp_path):
        with pytest.raises(ParseError) as err:
            self._load(tmp_path, "1 2\nfoo 1 abc\n")
        assert err.value.line == 2

    def test_count_mismatch(self, tmp_path):
        with pytest.raises(CountMismatch) as err:
            self._load(tmp_path, "3 2\nfoo 1 2\nbar 3 4\n")
        assert err.value.line == 4  # first missing row
        with pytest.raises(CountMismatch) as err:
            self._load(tmp_path, "1 2\nfoo 1 2\nbar 3 4\n")
        assert err.value.line == 3  # first extra row

    def test_double_space_rejected(self, tmp_path):
        with pytest.raises(RowArityMismatch):
            self._load(tmp_path, "1 2\nfoo 1  2\n")

    def test_fasttext_trailing_space_accepted(self, tmp_path):
        text = "3 3 \nfoo 1 0 0 \nbar 0 1 0 \nbaz 0 0 1 \n"
        np.testing.assert_array_equal(self._values(self._load(tmp_path, text)), np.eye(3))

    def test_two_trailing_spaces_rejected(self, tmp_path):
        with pytest.raises(RowArityMismatch) as err:
            self._load(tmp_path, "2 2\nfoo 1 0\nbar 0 1  \n")
        assert err.value.line == 3

    def test_lone_cr_is_not_a_line_end(self, tmp_path):
        """Only LF ends a line: two rows joined by a CR are one line of too many fields."""
        with pytest.raises(RowArityMismatch) as err:
            self._load(tmp_path, "2 2\nfoo 1 2\rbar 3 4\n")
        assert err.value.line == 2

    def test_crlf_line_ends_accepted(self, tmp_path):
        text = "2 2\r\nfoo 1 0\r\nbar 0 1\r\n"
        np.testing.assert_array_equal(self._values(self._load(tmp_path, text)), np.eye(2))


class TestLoadEmbeddings(_TextMatrixErrors):
    def _load(self, tmp_path, text):
        path = tmp_path / "emb.vec"
        path.write_text(text, encoding="utf-8")
        return load_embeddings(path)

    def _values(self, emb):
        return emb.rows

    def test_basic_parse(self, tmp_path):
        m = self._load(tmp_path, "2 3\nfoo 1 2 3\nbar 4 5 6\n")
        assert m.vocab.tokens == ("foo", "bar")
        np.testing.assert_array_equal(m.rows, [[1, 2, 3], [4, 5, 6]])
        assert m.duplicate_count == 0

    def test_duplicate_tokens_first_wins(self, tmp_path):
        """Two rows for one token: line 2's vector survives, one drop counted."""
        m = self._load(tmp_path, "2 2\nfoo 1 2\nfoo 3 4\n")
        assert len(m) == 1
        np.testing.assert_array_equal(m.rows, [[1.0, 2.0]])
        assert m.duplicate_count == 1


class TestLoadMap(_TextMatrixErrors):
    """The shared cases through ``load_map``: every row loses its token."""

    def _load(self, tmp_path, text):
        header, *body = text.split("\n")
        path = tmp_path / "m.map"
        rows = [line.partition(" ")[2] for line in body]
        path.write_text("\n".join([header, *rows]), encoding="utf-8")
        return load_map(path)

    def _values(self, linear_map):
        return linear_map.matrix


class TestSaveEmbeddings:
    def test_nine_significant_digits(self, tmp_path):
        m = make_emb(["##er"], [[0.123456789123, -1.0, 2.5e-4]])
        path = tmp_path / "out.vec"
        save_embeddings(m, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "1 3"
        assert text.splitlines()[1] == "##er 0.123456789 -1 0.00025"

    def test_empty_matrix(self, tmp_path):
        m = EmbeddingMatrix(Vocabulary([]), np.zeros((0, 3)))
        path = tmp_path / "empty.vec"
        save_embeddings(m, path)
        assert path.read_text(encoding="utf-8") == "0 3\n"
        loaded = load_embeddings(path)
        assert len(loaded) == 0 and loaded.dim == 3

    def test_round_trip_accuracy(self, tmp_path):
        """Save then load changes no value by more than 1e-8 relative."""
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((40, 6)) * np.exp(rng.uniform(-20, 20, size=(40, 6)))
        m = make_emb([f"t{i}" for i in range(40)], rows)
        path = tmp_path / "rt.vec"
        save_embeddings(m, path)
        back = load_embeddings(path)
        assert back.vocab.tokens == m.vocab.tokens
        np.testing.assert_allclose(back.rows, m.rows, rtol=1e-8, atol=0.0)

    def test_unicode_round_trip(self, tmp_path):
        m = make_emb(["ça", "qu'", "##'"], np.eye(3))
        path = tmp_path / "uni.vec"
        save_embeddings(m, path)
        back = load_embeddings(path)
        assert back.vocab.tokens == ("ça", "qu'", "##'")


_TOKENS = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=4).filter(
    lambda t: not any(ch.isspace() for ch in t)
)
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.1]),
)


@st.composite
def _text_matrices(draw):
    labeled = draw(st.booleans())
    count = draw(st.integers(0 if labeled else 1, 5))
    values = draw(arrays(np.float64, (count, draw(st.integers(1, 5))), elements=_VALUES))
    labels = draw(st.lists(_TOKENS, min_size=count, max_size=count)) if labeled else None
    return labels, values


# Finite float64 bit patterns, half of them with an exponent near the range
# (1e-4 to 1e9) that "%.9g" prints in fixed-point notation.
_RAW_FLOATS = st.builds(
    lambda sign, exponent, fraction: struct.unpack(
        "<d", struct.pack("<Q", sign << 63 | exponent << 52 | fraction))[0],
    st.integers(0, 1),
    st.one_of(st.integers(1023 - 17, 1023 + 33), st.integers(0, 2046)),
    st.integers(0, 2**52 - 1),
)


@st.composite
def _raw_matrices(draw):
    labeled = draw(st.booleans())
    count = draw(st.integers(0, 6))
    dim = draw(st.integers(1, 9))
    cells = draw(st.lists(_RAW_FLOATS, min_size=count * dim, max_size=count * dim))
    labels = draw(st.lists(_TOKENS, min_size=count, max_size=count)) if labeled else None
    return labels, np.array(cells, dtype=np.float64).reshape(count, dim)


class TestTextMatrixFormat:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_text_matrices())
    @example((["a", "b"], np.array([[-0.0, 5e-324], [1e308, -1e308]])))
    @example((None, np.array([[0.1, -2.5e-310, 1.0]])))
    def test_writer_matches_oracle_and_round_trips(self, matrix):
        labels, values = matrix
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.txt"
            _write_matrix(path, labels, values)
            assert path.read_bytes() == oracles.format_matrix(labels, values).encode("utf-8")
            back_labels, back = _read_matrix(path, labeled=labels is not None)
        assert back_labels == labels
        assert back.shape == values.shape
        np.testing.assert_allclose(back, values, rtol=1e-8, atol=0.0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_raw_matrices(), st.sampled_from([1, 2, 3, 7, embeddings._FORMAT_CELLS]))
    def test_every_block_size_matches_oracle(self, matrix, cells):
        """Blocks of a few rows, rows longer than a block and labels across block
        edges all give the bytes of ``format(v, ".9g")``."""
        labels, values = matrix
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.txt"
            with mock.patch.object(embeddings, "_FORMAT_CELLS", cells):
                _write_matrix(path, labels, values)
            assert path.read_bytes() == oracles.format_matrix(labels, values).encode("utf-8")

    def test_a_row_wider_than_a_block_is_a_block_of_its_own(self, tmp_path, monkeypatch):
        """Every block handed to ``_format_cells`` holds whole rows."""
        values = np.random.default_rng(4).normal(0, 0.05, (5, 9))
        shapes = []
        format_cells = embeddings._format_cells

        def recording(block):
            shapes.append(block.shape)
            return format_cells(block)

        monkeypatch.setattr(embeddings, "_FORMAT_CELLS", 4)
        monkeypatch.setattr(embeddings, "_format_cells", recording)
        labels = [f"t{i}" for i in range(5)]
        _write_matrix(tmp_path / "m.vec", labels, values)
        assert shapes == [(1, 9)] * 5
        assert (tmp_path / "m.vec").read_bytes() == oracles.format_matrix(
            labels, values).encode("utf-8")

    @pytest.mark.parametrize("value, text", [
        (0.0, "0"), (-0.0, "-0"), (5e-324, "4.94065646e-324"), (-2.5e-310, "-2.5e-310"),
        (1e308, "1e+308"), (-1e308, "-1e+308"), (1e-05, "1e-05"),
        (9.9999999995e-05, "0.0001"), (99999.99995, "99999.9999"), (999999999.5, "1e+09"),
        # exact ties, rounded half to even
        (123456789.5, "123456790"), (12345678.25, "12345678.2"), (1234567.125, "1234567.12"),
        (0.0001220703125, "0.000122070312"),
        (1234567885.0, "1.23456788e+09"), (1e9, "1e+09"), (1e16, "1e+16"),
        (float("nan"), "nan"), (-float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf"),
    ])
    def test_edge_values(self, tmp_path, value, text):
        """Alone and between fixed-point values of both signs, a value reads as
        ``format(v, ".9g")`` writes it; ``-nan`` takes Python's sign."""
        assert format(value, ".9g") == text
        path = tmp_path / "m.map"
        _write_matrix(path, None, np.array([[value, -0.5, value, 0.25, value], [value] * 5]))
        assert path.read_text(encoding="utf-8") == f"2 5\n{text} -0.5 {text} 0.25 {text}\n" + (
            " ".join([text] * 5) + "\n")

    @pytest.mark.parametrize("cells", [7, embeddings._FORMAT_CELLS])
    def test_every_fixed_point_key_matches_oracle(self, tmp_path, monkeypatch, cells):
        """Each exponent -4..8 with each count of significant digits 1..9 (so
        mantissas ending in 8..0 zeros), of both signs, and a row of 4-decimal
        values as model files hold them read as ``format(v, ".9g")`` writes them."""
        mantissas = ["123456789"[:nd] for nd in range(1, 10)] + ["9" + "0" * n + "1" for n in range(8)]
        rows = [[float(f"{sign}{digits}e{p + 1 - len(digits)}") for p in range(-4, 9)]
                for digits in mantissas for sign in "+-"]
        rows.append([k / 10000 for k in (-40000, -12345, -1000, -10, -1, 0, 1, 7, 120, 3456,
                                         10000, 25000, 40000)])
        values = np.array(rows)
        keys = {(int(f"{v:.8e}"[-3:]), len(format(v, ".9g").replace(".", "").strip("0")))
                for v in np.abs(values[:-1]).ravel()}
        assert keys == {(p, nd) for p in range(-4, 9) for nd in range(1, 10)}
        monkeypatch.setattr(embeddings, "_FORMAT_CELLS", cells)
        _write_matrix(tmp_path / "m.map", None, values)
        assert (tmp_path / "m.map").read_bytes() == oracles.format_matrix(
            None, values).encode("utf-8")

    def test_memory_layout_does_not_matter(self, tmp_path, monkeypatch):
        """A Fortran-order matrix and a transposed view write their C-order copy's bytes."""
        monkeypatch.setattr(embeddings, "_FORMAT_CELLS", 7)
        values = np.random.default_rng(3).normal(0, 0.05, (9, 5))
        for matrix in (np.asfortranarray(values), values.T):
            assert not matrix.flags.c_contiguous
            _write_matrix(tmp_path / "given.map", None, matrix)
            _write_matrix(tmp_path / "copy.map", None, np.ascontiguousarray(matrix))
            assert (tmp_path / "given.map").read_bytes() == (tmp_path / "copy.map").read_bytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows, dim", [(40_000, 16), (10_000, 300)])
    def test_extra_memory_is_bounded(self, tmp_path, rows, dim, order):
        """Formatting in blocks peaks at most 4 MiB above the matrix and its labels."""
        values = np.asarray(np.random.default_rng(5).uniform(-1, 1, (rows, dim)), order=order)
        labels = [f"t{i}" for i in range(rows)]
        tracemalloc.start()
        try:
            _write_matrix(tmp_path / "m.vec", labels, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocabulary(Vocabulary(["old", "tokens"]), path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with _atomic_text(path) as fh:
                fh.write("new\n" * 1000)
                raise RuntimeError("disk full")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]


# Fields float() accepts; numpy's C parser rejects the first five.
_ODD_NUMBERS = ["1_0", "1e1_0", "\u0661", "\u0663.\u0665", "\U0001d7cf", "\t1", "1\xa0", "+.5", "-0"]
# Fields that make a row fail: non-finite, empty, unparseable, or a C0 separator.
_BAD_FIELDS = ["nan", "-inf", "1e400", "", "abc", "1__0", "\x1c1", "1\x1d", "\x1e2", "2\x1f", "\x00"]
_BAD_TOKENS = ["", "a\x85b", "a\tb"]


@st.composite
def _matrix_files(draw):
    """``(labeled, text)`` of a text-matrix file; a noisy one has adversarial rows."""
    labeled = draw(st.booleans())
    dim = draw(st.integers(1, 3))
    rows = draw(st.integers(0, 7))
    noisy = draw(st.booleans())
    fields = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.sampled_from(_ODD_NUMBERS))
    tokens = st.sampled_from(["a", "##b", "\xe7a"])
    slips = [0]
    if noisy:
        fields = st.one_of(fields, st.sampled_from(_BAD_FIELDS))
        tokens = st.one_of(tokens, st.sampled_from(_BAD_TOKENS))
        slips = [0] * 8 + [-1, 1]
    declared = max(0, rows + draw(st.sampled_from(slips)))
    lines = [f"{declared} {dim}"]
    for _ in range(rows):
        width = dim + draw(st.sampled_from(slips))
        row = draw(st.lists(fields, min_size=width, max_size=width))
        if labeled:
            row.insert(0, draw(tokens))
        lines.append(" ".join(row) + draw(st.sampled_from(["", "", " "])))
    return labeled, "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _outcome(reader, path, labeled):
    """Labels and the values' bytes, or the error's class, line and message."""
    try:
        labels, values = reader(path, labeled)
    except ParseError as exc:
        return type(exc), exc.line, str(exc)
    return labels, values.shape, values.tobytes()


class TestReadMatrixBlocks:
    """The block reader against the row-by-row reference, at every block size."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(_matrix_files(), st.sampled_from([1, 2, 3, embeddings._PARSE_CELLS]))
    @example((False, "2 2\n1_0 \u0661\n\U0001d7cf -0\n"), 2)
    @example((True, "2 1\na \x1c1\nb 1\n"), 2)
    def test_matches_row_by_row_reference(self, matrix_file, cells):
        """Same labels, bitwise-same values, or the same error class, line and message."""
        labeled, text = matrix_file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.txt"
            path.write_text(text, encoding="utf-8")
            want = _outcome(oracles.read_matrix_reference, path, labeled)
            with mock.patch.object(embeddings, "_PARSE_CELLS", cells):
                assert _outcome(_read_matrix, path, labeled) == want

    @pytest.mark.parametrize("labeled, text, error, line", [
        (False, "3 2\n1 2\n1 inf\nabc 2\n", NonFiniteValue, 3),  # then unparseable
        (False, "3 2\n1 2\nnan 2\n1 2 3\n", NonFiniteValue, 3),  # then an arity error
        (False, "3 2\n1 2\n1 2\n1 2 3\n", RowArityMismatch, 4),
        (True, "4 2\na 1 2\nb 3 4\nc 1_x 2\n\x85 1 2\n", ParseError, 4),  # then a bad token
        (False, "1 2\n-inf 2\n1 2\n", NonFiniteValue, 2),  # then a row too many
        (False, "4 2\n1 2\n3 4\n5 6\n7 8\n", None, None),  # two full blocks, none pending
        (False, "5 2\n1 2\n3 4\n5 6\n7 8\n", CountMismatch, 6),
        (False, "3 2\n1 2\n3 4\n5 6\n7 8\n", CountMismatch, 5),
        (False, "2 1\n\u0661_0\n\x1f2\n", ParseError, 3),  # C0 separator after a digit
    ])
    def test_first_bad_line_wins(self, tmp_path, monkeypatch, labeled, text, error, line):
        """Blocks of four cells (two rows); the outcome is the reference's."""
        path = tmp_path / "m.txt"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(embeddings, "_PARSE_CELLS", 4)
        got = _outcome(_read_matrix, path, labeled)
        assert got == _outcome(oracles.read_matrix_reference, path, labeled)
        if error is None:
            assert got[1] == (4, 2)
        else:
            assert got[:2] == (error, line)

    @pytest.mark.parametrize("rows, dim", [(40_000, 16), (10_000, 300)])
    def test_extra_memory_is_bounded(self, tmp_path, rows, dim):
        """Parsing in blocks peaks at most 4 MiB above the matrix itself."""
        path = tmp_path / "m.map"
        _write_matrix(path, None, np.random.default_rng(5).uniform(-1, 1, (rows, dim)))
        tracemalloc.start()
        try:
            _, values = _read_matrix(path, labeled=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (rows, dim)
        assert peak - values.nbytes <= 4 * 2**20


def _entry(path):
    return path.parent / "__vbcache__" / (path.name + ".vbc")


def _counted_read(path, labeled):
    """``_outcome`` of one read, and how many blocks of numbers it parsed."""
    with mock.patch.object(embeddings, "_parse_rows", wraps=embeddings._parse_rows) as parse:
        outcome = _outcome(_read_matrix, path, labeled)
    return outcome, parse.call_count


def _forge(path, labeled, **changes):
    """Store an entry for ``path`` under its current stat key with ``changes`` to its content."""
    labels, values = oracles.read_matrix_reference(path, labeled)
    content = {"labels": labels, "values": values, "key": embeddings._key(path.stat()), **changes}
    embeddings._store(_entry(path), **content)


def _edit_in_place(path, offset, data):
    """Overwrite bytes of ``path`` in place and put its atime and mtime back.

    The write is repeated until the file's ctime has moved: only a file system
    whose ctime tick is coarser than the time between two writes needs more
    than one.
    """
    st = path.stat()
    while path.stat().st_ctime_ns == st.st_ctime_ns:
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(data)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


def _later(seconds=60):
    """Move the parse cache's clock ahead, as if every file had last changed
    ``seconds`` before each read: what it parses then is not racy, and is stored."""
    now = time.time_ns
    return mock.patch.object(embeddings, "time_ns", lambda: now() + seconds * 10**9)


def _cache_log(caplog):
    """The debug messages of the parse cache captured so far, then cleared."""
    messages = [r.getMessage() for r in caplog.records if r.name == "vocab_bridge.embeddings"]
    caplog.clear()
    return messages


def _is_mapped(values):
    """True if ``values`` is a view of a memory map."""
    while isinstance(values, np.ndarray):
        values = values.base
    return isinstance(values, memoryview) and isinstance(values.obj, mmap.mmap)


def _first_line(path):
    """The fields of the first line of ``path``'s entry."""
    return _entry(path).read_bytes().split(b"\n", 1)[0].split()


class TestMatrixCache:
    """The ``__vbcache__`` entry beside a text matrix: same results, one parse per
    version of the file.  Tests that need an entry to be stored read under
    :func:`_later`, since a file read within 2 s of its last change is not stored."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_matrix_files())
    @example((False, "2 2\n1_0 \u0661\n\U0001d7cf -0\n"))
    @example((True, "0 3\n"))
    @example((True, "2 2\r\n\xe7a 1 2\r\n##b 3 4\r\n"))
    @example((True, "2 1\n\U0001f600\u3042 -1.5\n##\xe9 2e-3"))
    @example((False, "2 2\r\n1 2\r\n-0 \u0661e1"))
    def test_second_read_loads_the_entry(self, matrix_file):
        """Both reads give the reference's outcome; only a good file leaves an entry,
        and its second read parses no numbers."""
        labeled, text = matrix_file
        with tempfile.TemporaryDirectory() as tmp, _later():
            path = Path(tmp) / "m.txt"
            path.write_text(text, encoding="utf-8")
            want = _outcome(oracles.read_matrix_reference, path, labeled)
            assert _outcome(_read_matrix, path, labeled) == want
            again, parsed = _counted_read(path, labeled)
            assert again == want
            ok = not isinstance(want[0], type)
            assert _entry(path).is_file() == ok
            assert parsed == 0 or not ok

    def test_same_size_and_restored_mtime_is_parsed_again(self, tmp_path, caplog):
        """A rewrite that keeps the size and puts the mtime back still moves the
        ctime: the next read parses and stores, the one after loads."""
        path = tmp_path / "emb.vec"
        path.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")
        with _later():
            _read_matrix(path, labeled=True)
            st = path.stat()
            while path.stat().st_ctime_ns == st.st_ctime_ns:
                path.write_text("2 2\na 5 6\nb 7 8\n", encoding="utf-8")
                os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
            assert path.stat().st_size == st.st_size
            assert path.stat().st_mtime_ns == st.st_mtime_ns
            with caplog.at_level(logging.DEBUG, logger="vocab_bridge.embeddings"):
                (labels, shape, data), parsed = _counted_read(path, labeled=True)
                assert parsed == 1 and "parsed" in caplog.text
                caplog.clear()
                assert _counted_read(path, labeled=True)[1] == 0 and "loaded" in caplog.text
        assert labels == ["a", "b"]
        assert data == np.array([[5.0, 6.0], [7.0, 8.0]]).tobytes()

    @pytest.mark.parametrize("damage", [
        "truncated", "foreign", "empty",
        {"values": np.zeros((2, 0))},  # a shape no header may declare
        {"values": np.zeros((3, 2))},
        {"values": np.zeros((2, 2), dtype=np.float32)},
        {"values": np.asfortranarray(np.arange(4.0).reshape(2, 2))},
        {"values": np.array([[1.0, np.nan], [3.0, 4.0]])},
        {"values": np.array([[1.0, 2.0], [3.0, -np.inf]])},
        {"labels": ["a"]},
        {"labels": ["a", "b", "c"]},
        {"labels": ["a", "b c"]},
        {"labels": ["a", ""]},
        {"labels": None},
        "foreign-key",
        "npy-2.0",
    ])
    def test_bad_entry_is_a_miss_and_is_rewritten(self, tmp_path, damage):
        path = tmp_path / "emb.vec"
        path.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")
        want = _outcome(oracles.read_matrix_reference, path, True)
        entry = _entry(path)
        with _later():
            _read_matrix(path, labeled=True)
            if damage == "truncated":
                entry.write_bytes(entry.read_bytes()[:-9])
            elif damage == "foreign":
                other = tmp_path / "other.vec"
                other.write_text("2 2\na 1 2\nb 3 5\n", encoding="utf-8")
                _read_matrix(other, labeled=True)
                _entry(other).replace(entry)
            elif damage == "foreign-key":  # the right rows under another file's stat key
                other = tmp_path / "other.vec"
                shutil.copyfile(path, other)
                _forge(path, labeled=True, key=embeddings._key(other.stat()))
            elif damage == "empty":
                entry.write_bytes(b"")
            elif damage == "npy-2.0":  # the same rows under a version 2.0 .npy header
                data = entry.read_bytes()
                npy = io.BytesIO()
                np.lib.format.write_array(npy, np.array([[1.0, 2.0], [3.0, 4.0]]), version=(2, 0))
                entry.write_bytes(data[:data.index(b"\x93NUMPY")] + npy.getvalue())
            else:
                _forge(path, labeled=True, **damage)
            assert _counted_read(path, labeled=True) == (want, 1)
            assert _counted_read(path, labeled=True) == (want, 0)

    def test_map_entry_does_not_serve_an_embedding_read(self, tmp_path):
        """A map's entry is not read for the same file loaded as embeddings."""
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3 4\n", encoding="utf-8")
        as_map = _outcome(oracles.read_matrix_reference, path, False)
        with _later():
            assert _counted_read(path, False) == (as_map, 1)
            with pytest.raises(RowArityMismatch):
                load_embeddings(path)
            assert _counted_read(path, False) == (as_map, 0)

    def test_unwritable_entry_still_loads(self, tmp_path, caplog):
        """``__vbcache__`` as a plain file: every read parses, none fails."""
        path = tmp_path / "emb.vec"
        path.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")
        (tmp_path / "__vbcache__").write_text("not a directory", encoding="utf-8")
        want = _outcome(oracles.read_matrix_reference, path, True)
        with caplog.at_level(logging.DEBUG, logger="vocab_bridge.embeddings"), _later():
            for _ in range(2):
                assert _counted_read(path, labeled=True) == (want, 1)
            assert load_embeddings(path).vocab.tokens == ("a", "b")
        assert f"{_entry(path)}: not cached: [Errno" in caplog.text

    def test_malformed_file_leaves_no_entry(self, tmp_path):
        path = tmp_path / "emb.vec"
        path.write_text("2 2\na 1 2\nb 3 x\n", encoding="utf-8")
        with _later():
            for _ in range(2):
                with pytest.raises(ParseError) as err:
                    load_embeddings(path)
                assert err.value.line == 3
        assert not (tmp_path / "__vbcache__").exists()

    def test_undecodable_file_leaves_no_entry(self, tmp_path):
        path = tmp_path / "emb.vec"
        path.write_bytes(b"1 1\n\xe9 1\n")
        with _later():
            for _ in range(2):
                with pytest.raises(ParseError, match="emb.vec: 'utf-8' codec"):
                    load_embeddings(path)
        assert not (tmp_path / "__vbcache__").exists()

    def test_file_changed_while_read_leaves_no_entry(self, tmp_path):
        """A later mtime, or a same-size write in place with atime and mtime put
        back, during the parse: either moves the stat key, and no entry is left."""
        path = tmp_path / "emb.vec"
        parse_rows = embeddings._parse_rows

        def later_mtime():
            os.utime(path, ns=(0, path.stat().st_mtime_ns + 10**9))

        def same_size_in_place():
            st = path.stat()
            _edit_in_place(path, 6, b"5")
            assert (path.stat().st_size, path.stat().st_mtime_ns) == (st.st_size, st.st_mtime_ns)

        for change in (later_mtime, same_size_in_place):
            path.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")

            def touching(texts, out, line):
                change()
                parse_rows(texts, out, line)

            with mock.patch.object(embeddings, "_parse_rows", touching), _later():
                labels, values = _read_matrix(path, labeled=True)
            assert labels == ["a", "b"]
            assert not _entry(path).exists()

    def test_pipe_is_parsed_and_not_cached(self, tmp_path):
        path = tmp_path / "emb.vec"
        os.mkfifo(path)
        writer = threading.Thread(
            target=path.write_text, args=("2 2\na 1 2\nb 3 4\n",), kwargs={"encoding": "utf-8"},
            daemon=True,
        )
        writer.start()
        with _later():
            labels, values = _read_matrix(path, labeled=True)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert labels == ["a", "b"]
        np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])
        assert not (tmp_path / "__vbcache__").exists()

    @pytest.mark.parametrize("rows, dim", [(40_000, 16), (10_000, 300)])
    def test_extra_memory_is_bounded_on_miss_and_hit(self, tmp_path, rows, dim):
        """A read that writes the entry, and one that loads it, each peak at most
        4 MiB above the matrix."""
        path = tmp_path / "m.map"
        _write_matrix(path, None, np.random.default_rng(5).uniform(-1, 1, (rows, dim)))
        for miss in (True, False):
            with mock.patch.object(embeddings, "_parse_rows", wraps=embeddings._parse_rows) as parse, \
                    _later():
                tracemalloc.start()
                try:
                    _, values = _read_matrix(path, labeled=False)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert (parse.call_count > 0) == miss
            assert values.shape == (rows, dim)
            assert peak - values.nbytes <= 4 * 2**20

    def test_version_1_entry_is_a_miss_and_is_rewritten(self, tmp_path):
        """An entry in any earlier format, byte for byte, is parsed over: the
        unpadded ``vbcache-1``, the padded ``vbcache-2``, whose first line
        also held a labeled flag, ``vbcache-3``, which held no stat key, and
        ``vbcache-4``, which held a digest and a verification time, here with
        the file's current key and a time well after its ctime."""
        path = tmp_path / "emb.vec"
        path.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")
        want = _outcome(oracles.read_matrix_reference, path, True)
        npy = io.BytesIO()
        np.save(npy, np.array([[1.0, 2.0], [3.0, 4.0]]), allow_pickle=False)
        digest = hashlib.sha256(path.read_bytes()).hexdigest().encode()
        key = embeddings._key(path.stat())
        fields = b" ".join(b"%d" % n for n in key)
        version_2 = b"vbcache-2 " + digest + b" 1 3"
        version_2 += b" " * (-(len(version_2) + 4) % 64) + b"\n"
        version_3 = b"vbcache-3 " + digest + b" 3"
        version_3 += b" " * (-(len(version_3) + 4) % 64) + b"\n"
        version_4 = b"vbcache-4 %s 3 %s %d" % (digest, fields, key[-1] + 60 * 10**9)
        version_4 += b" " * (-(len(version_4) + 4) % 64) + b"\n"
        _entry(path).parent.mkdir()
        for first_line in (b"vbcache-1 " + digest + b" 1 3\n", version_2, version_3, version_4):
            _entry(path).write_bytes(first_line + b"a\nb" + npy.getvalue())
            with _later():
                assert _counted_read(path, labeled=True) == (want, 1)
            assert _first_line(path) == [b"vbcache-5", b"3", *fields.split()]
            assert _counted_read(path, labeled=True) == (want, 0)

    def test_unstattable_path_fails_as_open_does(self, tmp_path):
        """A path ``os.stat`` rejects (a NUL byte) has no entry: the read fails as
        ``open`` fails, and no ``__vbcache__`` is made."""
        path = f"{tmp_path / 'emb.vec'}\0x"
        with pytest.raises(ValueError, match="null") as err:
            load_embeddings(path)
        with pytest.raises(ValueError) as opened:
            open(path)
        assert str(err.value) == str(opened.value)
        assert not (tmp_path / "__vbcache__").exists()

    @pytest.mark.parametrize("labeled, tokens", [
        (True, ["a"]), (True, ["ab", "\xe7"]), (True, [f"t{i}" for i in range(37)]),
        (True, ["\U0001f600" * 20, "##b"]), (False, [None] * 3),
    ])
    def test_hit_maps_aligned_read_only_rows(self, tmp_path, labeled, tokens):
        """A hit's rows are a plain read-only array on a 64-byte boundary, equal to the parse,
        and ``load_embeddings`` wraps them without a copy."""
        path = tmp_path / "m.txt"
        rows = np.random.default_rng(len(tokens)).standard_normal((len(tokens), 3))
        _write_matrix(path, tokens if labeled else None, rows)
        with _later():
            _, parsed = _read_matrix(path, labeled)
        with mock.patch.object(embeddings, "_parse_rows") as parse:
            _, values = _read_matrix(path, labeled)
            emb = load_embeddings(path) if labeled else None
        assert parse.call_count == 0
        assert type(values) is np.ndarray and _is_mapped(values)
        assert not values.flags.writeable and values.ctypes.data % 64 == 0
        assert values.tobytes() == parsed.tobytes()
        if labeled:
            assert _is_mapped(emb.rows) and emb.rows.tobytes() == parsed.tobytes()

    def test_hit_allocates_no_copy_of_the_rows(self, tmp_path):
        """``load_embeddings`` on a hit allocates under a quarter of the matrix's bytes."""
        path = tmp_path / "emb.vec"
        rows = np.random.default_rng(9).standard_normal((5000, 256))
        _write_matrix(path, [f"w{i}" for i in range(len(rows))], rows)
        with _later():
            load_embeddings(path)
        tracemalloc.start()
        try:
            emb = load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _is_mapped(emb.rows)
        assert peak < emb.rows.nbytes / 4

    def test_held_matrix_outlives_the_entry_it_was_mapped_from(self, tmp_path):
        """Re-reading an edited file replaces the entry by rename; a held matrix keeps its rows."""
        path = tmp_path / "emb.vec"
        tokens = [f"w{i}" for i in range(40)]
        rows = np.random.default_rng(4).standard_normal((40, 6))
        _write_matrix(path, tokens, rows)
        with _later():
            load_embeddings(path)
            held = load_embeddings(path)
            assert _is_mapped(held.rows)
            want = held.rows.tobytes()
            inode = _entry(path).stat().st_ino
            _write_matrix(path, tokens, -rows)
            edited = load_embeddings(path)
        assert _entry(path).stat().st_ino != inode
        assert held.rows.tobytes() == want
        assert edited.rows.tobytes() == (-held.rows).tobytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
    def test_each_mapped_matrix_holds_one_descriptor_until_freed(self, tmp_path):
        path = tmp_path / "emb.vec"
        _write_matrix(path, ["a", "b"], np.eye(2))
        with _later():
            load_embeddings(path)
        start = len(os.listdir("/proc/self/fd"))
        held = [load_embeddings(path) for _ in range(3)]
        assert all(_is_mapped(emb.rows) for emb in held)
        assert len(os.listdir("/proc/self/fd")) == start + len(held)
        del held
        for _ in range(100):
            load_embeddings(path)
        assert len(os.listdir("/proc/self/fd")) == start

    def test_aged_entry_is_trusted_without_opening_the_file(self, tmp_path, caplog):
        """An entry that holds the file's stat key is loaded without opening or
        parsing the file."""
        path = tmp_path / "emb.vec"
        _write_matrix(path, ["a", "b"], np.arange(4.0).reshape(2, 2))
        with _later():
            want = _outcome(_read_matrix, path, True)
        with caplog.at_level(logging.DEBUG, logger="vocab_bridge.embeddings"), \
                mock.patch.object(embeddings, "open", wraps=open, create=True) as opened:
            again, parsed = _counted_read(path, labeled=True)
        assert (again, parsed) == (want, 0)
        assert [call.args[0] for call in opened.call_args_list] == [_entry(path)]
        assert _cache_log(caplog) == [f"{path}: loaded from {_entry(path)}"]

    def test_same_size_edit_with_times_restored_is_parsed_again(self, tmp_path):
        """An edit after the entry is stored that keeps size, atime and mtime
        still moves the ctime, so the file is parsed."""
        path = tmp_path / "emb.vec"
        path.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")
        with _later():
            _read_matrix(path, labeled=True)
        assert _counted_read(path, labeled=True)[1] == 0
        st = path.stat()
        _edit_in_place(path, 6, b"5")
        assert (path.stat().st_size, path.stat().st_atime_ns, path.stat().st_mtime_ns) \
            == (st.st_size, st.st_atime_ns, st.st_mtime_ns)
        (labels, shape, data), parsed = _counted_read(path, labeled=True)
        assert parsed == 1 and labels == ["a", "b"]
        assert data == np.array([[5.0, 2.0], [3.0, 4.0]]).tobytes()

    def test_identical_copy_renamed_over_is_parsed_once_then_trusted(self, tmp_path, caplog):
        """A new inode with the same bytes: parsed once and stored with the new
        key, which the next read trusts."""
        path = tmp_path / "emb.vec"
        path.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")
        want = _outcome(oracles.read_matrix_reference, path, True)
        with _later():
            _read_matrix(path, labeled=True)
        inode = path.stat().st_ino
        shutil.copyfile(path, tmp_path / "copy.vec")
        (tmp_path / "copy.vec").replace(path)
        assert path.stat().st_ino != inode
        with caplog.at_level(logging.DEBUG, logger="vocab_bridge.embeddings"):
            with _later():
                assert _counted_read(path, labeled=True) == (want, 1)
            assert _cache_log(caplog) == [f"{path}: parsed, no valid entry in {_entry(path)}"]
            assert _counted_read(path, labeled=True) == (want, 0)
            assert _cache_log(caplog) == [f"{path}: loaded from {_entry(path)}"]
        assert int(_first_line(path)[3]) == path.stat().st_ino

    def test_racy_file_is_parsed_on_every_read_until_it_ages(self, tmp_path, caplog):
        """While the clock reads the file's ctime, every read parses and no entry is
        written; the first read after the file has aged stores one, and the next
        opens only the entry."""
        path = tmp_path / "emb.vec"
        path.write_text("2 2\na 1 2\nb 3 4\n", encoding="utf-8")
        want = _outcome(oracles.read_matrix_reference, path, True)
        parsed = f"{path}: parsed, no valid entry in {_entry(path)}"
        with caplog.at_level(logging.DEBUG, logger="vocab_bridge.embeddings"), \
                mock.patch.object(embeddings, "_store", wraps=embeddings._store) as store:
            with mock.patch.object(embeddings, "time_ns", lambda: path.stat().st_ctime_ns):
                for _ in range(3):
                    assert _counted_read(path, labeled=True) == (want, 1)
            assert _cache_log(caplog) == [parsed] * 3
            assert store.call_count == 0 and not _entry(path).exists()
            with _later():
                assert _counted_read(path, labeled=True) == (want, 1)
            assert _cache_log(caplog) == [parsed]
            assert store.call_count == 1
            with mock.patch.object(embeddings, "open", wraps=open, create=True) as opened:
                assert _counted_read(path, labeled=True) == (want, 0)
            assert [call.args[0] for call in opened.call_args_list] == [_entry(path)]
            assert _cache_log(caplog) == [f"{path}: loaded from {_entry(path)}"]

    def test_one_finite_scan_per_load(self, tmp_path):
        """``load_embeddings`` scans a hit's rows once, in the entry check, and a
        miss's rows only in the parse's own line checks."""
        path = tmp_path / "emb.vec"
        _write_matrix(path, ["a", "b", "a"], np.arange(6.0).reshape(3, 2))
        with mock.patch.object(embeddings, "_all_finite", wraps=embeddings._all_finite) as scans:
            with _later():
                miss = load_embeddings(path)
            assert scans.call_count == 0
            for checks in (1, 2):
                hit = load_embeddings(path)
                assert scans.call_count == checks
        assert hit.rows.tobytes() == miss.rows.tobytes() and hit.duplicate_count == 1

    def test_entry_that_may_not_serve_a_map_read_is_a_miss(self, tmp_path):
        """A trusted entry of a 0-row labeled read does not serve a map read,
        which needs at least one row: the map read fails as the parse does."""
        path = tmp_path / "m.txt"
        path.write_text("0 3\n", encoding="utf-8")
        with _later():
            assert _read_matrix(path, labeled=True)[0] == []
            with pytest.raises(MalformedHeader):
                _read_matrix(path, labeled=False)


class TestNormalizeRows:
    """``_unit_rows``, the package's one row normalization."""

    def test_three_four_five(self):
        rows = np.array([[3.0, 4.0]])
        out = _unit_rows(rows, Vocabulary(["a"]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)
        np.testing.assert_array_equal(rows, [[3.0, 4.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        vocab = Vocabulary(["a", "b", "c"])
        once = _unit_rows(rng.standard_normal((3, 5)), vocab)
        again = _unit_rows(once, vocab)
        assert np.max(np.abs(again - once)) <= 1e-12

    def test_zero_row_named(self):
        with pytest.raises(ZeroRow) as err:
            _unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]]), Vocabulary(["ok", "dead"]))
        assert err.value.token == "dead"

    def test_empty_matrix(self):
        assert _unit_rows(np.zeros((0, 2)), Vocabulary([])).shape == (0, 2)


def _gather(emb, tokens):
    """Rows of ``emb`` in ``tokens`` order: the expansion splice with no new rows."""
    no_rows = np.empty((0, emb.dim))
    return expand_vocabulary(Vocabulary(tokens), emb, no_rows, ())


class TestSubset:
    def test_requested_order(self):
        m = make_emb(["a", "b", "c"], np.diag([1.0, 2.0, 3.0]))
        s = _gather(m, ["c", "a"])
        assert s.vocab.tokens == ("c", "a")
        np.testing.assert_array_equal(s.rows[:, 2], [3.0, 0.0])

    def test_missing_token_position(self):
        m = make_emb(["a", "b"], np.eye(2))
        with pytest.raises(MissingToken) as err:
            _gather(m, ["a", "zz"])
        assert err.value.token == "zz" and err.value.position == 1

    def test_permutation_round_trip(self):
        rng = np.random.default_rng(11)
        tokens = [f"t{i}" for i in range(12)]
        m = make_emb(tokens, unit_rows(rng, 12, 4))
        perm = list(rng.permutation(tokens))
        back = _gather(_gather(m, perm), tokens)
        np.testing.assert_array_equal(back.rows, m.rows)


class TestVocabularyFiles:
    def test_round_trip(self, tmp_path):
        v = Vocabulary(["[UNK]", "the", "##er", "ça"])
        path = tmp_path / "vocab.txt"
        save_vocabulary(v, path)
        assert load_vocabulary(path).tokens == v.tokens

    def test_line_number_is_id(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("zero\none\ntwo\n", encoding="utf-8")
        v = load_vocabulary(path)
        assert v.id("one") == 1

    def test_lone_cr_stays_in_its_line(self, tmp_path):
        """A CR does not end a line, so ids after it do not shift: the token is rejected."""
        path = tmp_path / "vocab.txt"
        path.write_text("a\rb\nc\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="whitespace"):
            load_vocabulary(path)

    def test_unicode_line_separator_stays_in_its_line(self, tmp_path):
        """U+0085 is not a line break: the token holding it is rejected as whitespace."""
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\x85c\nd\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="whitespace"):
            load_vocabulary(path)


class TestTokenRule:
    def test_rule_matches_isspace_on_every_code_point(self):
        """A token is non-empty and holds no character for which isspace is true."""
        assert not _is_token("")
        for cp in range(0x110000):
            ch = chr(cp)
            want = not ch.isspace()
            assert _is_token(ch) is want, hex(cp)
            assert _is_token(f"a{ch}b") is want, hex(cp)

    @pytest.mark.parametrize("bad", ["a\x85b", "a\u2028b", "a\x0bb", "a\u3000b", "a\rb"])
    def test_every_reader_rejects_whitespace_inside_a_token(self, tmp_path, bad):
        """Vocabularies, embedding rows, merges, token files, dictionaries and words
        share one rule."""
        with pytest.raises(ValidationError, match="whitespace"):
            Vocabulary(["a", bad])
        cases = [
            (load_embeddings, f"1 1\n{bad} 1.0\n", ParseError),
            (load_bpe_model, f"{MERGES_HEADER}\n{bad} c\n", MalformedLine),
            (_read_tokens, f"a\n{bad}\n", MalformedLine),
            (load_dictionary, f"a\tb\n{bad}\tc\n", MalformedLine),
        ]
        for reader, text, error in cases:
            path = tmp_path / "input.txt"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(error) as err:
                reader(path)
            assert type(err.value) is error and err.value.line == 2
        with pytest.raises(ValidationError):
            bpe_train({bad: 2}, 5)
        with pytest.raises(ValidationError):
            wordpiece_segment(Vocabulary(["a"]), "[UNK]", bad)
