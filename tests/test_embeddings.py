"""Vocabulary and embedding matrix behavior, including text round-trips."""

import tempfile
from pathlib import Path

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
    load_embeddings,
    load_map,
    load_vocabulary,
    save_embeddings,
    save_vocabulary,
    wordpiece_segment,
)
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

    def test_byte_wise_comparison(self):
        """No case folding or Unicode normalization: distinct spellings coexist."""
        v = Vocabulary(["Je", "je", "ça", "ça"])
        assert len(v) == 4
        assert v.id("je") != v.id("Je")

    def test_unknown_token_raises(self):
        with pytest.raises(TokenNotFound):
            Vocabulary(["a"]).id("b")


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

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValidationError):
            make_emb(["a", "b"], np.eye(3))

    def test_row_lookup(self):
        m = make_emb(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(m.row("b"), [3.0, 4.0])


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

    @pytest.mark.parametrize("bad", ["a\x85b", "a\u2028b", "a\x0bb", "a\u3000b"])
    def test_every_reader_rejects_whitespace_inside_a_token(self, tmp_path, bad):
        """Vocabularies, embedding rows, merges, token files and words share one rule."""
        with pytest.raises(ValidationError, match="whitespace"):
            Vocabulary(["a", bad])
        cases = [
            (load_embeddings, f"1 1\n{bad} 1.0\n", ParseError),
            (load_bpe_model, f"{MERGES_HEADER}\n{bad} c\n", MalformedLine),
            (_read_tokens, f"a\n{bad}\n", MalformedLine),
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
