"""Selecting new subwords and splicing them into a pretrained model."""

import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import make_emb, planted_chain, tok_list, unit_rows
from vocab_bridge import (
    LinearMap,
    Vocabulary,
    emit_expanded,
    expand_vocabulary,
    joint_rows,
    load_embeddings,
    load_vocabulary,
    mixture_rows,
    random_rows,
    select_new_subwords,
)
from vocab_bridge import expansion
from vocab_bridge.expansion import EMBEDDINGS_FILE, PROVENANCE_FILE, VOCAB_FILE
from vocab_bridge.errors import (
    DimMismatch,
    DuplicateNewToken,
    MissingAssignment,
    MissingToken,
    ValidationError,
)


def expand_random(model, new_tokens, seed, vocab=None):
    """Splice random donor rows for ``new_tokens`` into ``model``.

    Returns the expanded matrix and the provenance records.
    """
    vocab = model.vocab if vocab is None else vocab
    rows, provenance = random_rows(new_tokens, vocab, model, seed)
    return expand_vocabulary(vocab, model, rows, provenance), provenance


class TestSelectNewSubwords:
    def test_keeps_only_absent_tokens_in_order(self):
        lang = Vocabulary(["je", "##er", "ça", "les"])
        model = Vocabulary(["les", "##er", "the"])
        assert select_new_subwords(lang, model) == ["je", "ça"]

    def test_everything_shared_gives_empty(self):
        v = Vocabulary(["a", "##b"])
        assert select_new_subwords(v, v) == []


class TestRandomStrategy:
    def _model(self, rng, n=20, d=6):
        return make_emb(tok_list("m", n), rng.standard_normal((n, d)))

    def test_zero_new_tokens_is_identity(self):
        rng = np.random.default_rng(0)
        model = self._model(rng)
        out, provenance = expand_random(model, [], seed=1)
        assert out.vocab.tokens == model.vocab.tokens
        assert np.array_equal(out.rows, model.rows)
        assert provenance == []

    def test_same_seed_reproduces_rows(self):
        rng = np.random.default_rng(1)
        model = self._model(rng)
        new = ["x1", "x2", "x3"]
        a, a_provenance = expand_random(model, new, seed=7)
        b, b_provenance = expand_random(model, new, seed=7)
        assert np.array_equal(a.rows, b.rows)
        assert a_provenance == b_provenance

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(2)
        model = self._model(rng, n=50)
        new = [f"x{i}" for i in range(10)]
        assert expand_random(model, new, seed=0)[1] != expand_random(model, new, seed=1)[1]

    def test_donor_row_matches_provenance(self):
        rng = np.random.default_rng(3)
        model = self._model(rng)
        out, provenance = expand_random(model, ["x1", "x2"], seed=11)
        for i, (token, strategy, detail) in enumerate(provenance):
            assert token == out.vocab.token(len(model.vocab) + i)
            assert strategy == "random"
            assert detail.startswith("donor=")
            donor = detail.removeprefix("donor=")
            new_row = out.rows[len(model.vocab) + i]
            assert np.array_equal(new_row, model.row(donor))

    def test_original_rows_and_ids_untouched(self):
        rng = np.random.default_rng(4)
        model = self._model(rng)
        out, _ = expand_random(model, ["x1"], seed=5)
        n = len(model.vocab)
        assert out.vocab.tokens[:n] == model.vocab.tokens
        assert out.vocab.tokens[n:] == ("x1",)
        assert np.array_equal(out.rows[:n], model.rows)
        for tok in model.vocab.tokens:
            assert out.vocab.id(tok) == model.vocab.id(tok)

    def test_donors_drawn_in_vocab_order(self):
        """Donor ids index ``model_vocab``, not the embedding file's order."""
        rng = np.random.default_rng(19)
        model = self._model(rng, n=8)
        reordered = Vocabulary(reversed(model.vocab.tokens))
        rows, provenance = random_rows(["x1", "x2", "x3"], reordered, model, seed=2)
        same, _ = random_rows(["x1", "x2", "x3"], model.vocab, model, seed=2)
        for i, (_, _, detail) in enumerate(provenance):
            donor = detail.removeprefix("donor=")
            assert np.array_equal(rows[i], model.row(donor))
        assert not np.array_equal(rows, same)


class TestJointStrategy:
    def test_rows_come_from_composed_maps(self):
        rng = np.random.default_rng(5)
        chain = planted_chain(rng, n=30, d_src=8, d_model=12)
        to_english = LinearMap(chain.q1)
        to_model = LinearMap(chain.q2)
        new = list(chain.src.vocab.tokens[:6])
        rows, provenance = joint_rows(new, chain.src, to_english, to_model)
        out = expand_vocabulary(chain.model.vocab, chain.model, rows, provenance)
        composed = chain.q1 @ chain.q2
        n = len(chain.model.vocab)
        for i, tok in enumerate(new):
            # bitwise: one product per row, as the rows were always built
            assert np.array_equal(out.rows[n + i], chain.src.row(tok) @ composed)
            # the planted chain pairs l#### with en#### sharing one latent row
            np.testing.assert_allclose(
                out.rows[n + i],
                chain.model.row(tok.replace("l", "en", 1)),
                atol=1e-8,
            )
        assert provenance == [(tok, "joint", "mapped from source row") for tok in new]

    def test_dim_mismatches(self):
        rng = np.random.default_rng(7)
        model = make_emb(tok_list("m", 4), rng.standard_normal((4, 3)))
        src = make_emb(["x"], unit_rows(rng, 1, 2))
        eye2, eye3 = LinearMap(np.eye(2)), LinearMap(np.eye(3))
        with pytest.raises(DimMismatch):
            joint_rows(["x"], src, eye3, eye3)
        with pytest.raises(DimMismatch):
            joint_rows(["x"], src, eye2, eye3)
        # joint_rows never sees the model; the splice checks the width
        rows, provenance = joint_rows(["x"], src, eye2, eye2)
        with pytest.raises(DimMismatch):
            expand_vocabulary(model.vocab, model, rows, provenance)

    def test_new_token_missing_from_source(self):
        rng = np.random.default_rng(8)
        src = make_emb(["x"], unit_rows(rng, 1, 2))
        with pytest.raises(MissingToken):
            joint_rows(["ghost"], src, LinearMap(np.eye(2)), LinearMap(np.eye(2)))


class TestMixtureStrategy:
    def _fixture(self, rng):
        model = make_emb(tok_list("m", 6), rng.standard_normal((6, 4)))
        anchors = (("m0001", 0.75), ("m0004", 0.25))
        return model, anchors

    def test_rows_are_weighted_sums(self):
        rng = np.random.default_rng(9)
        model, anchors = self._fixture(rng)
        rows, provenance = mixture_rows(["new"], {"new": anchors}, model)
        out = expand_vocabulary(model.vocab, model, rows, provenance)
        want = 0.75 * model.row("m0001") + 0.25 * model.row("m0004")
        np.testing.assert_allclose(out.rows[-1], want, atol=1e-12)
        assert provenance == [("new", "mixture", "m0001:0.750000,m0004:0.250000")]

    def test_missing_assignment(self):
        rng = np.random.default_rng(11)
        model, anchors = self._fixture(rng)
        with pytest.raises(MissingAssignment, match="orphan"):
            mixture_rows(["new", "orphan"], {"new": anchors}, model)


class TestExpandValidation:
    def test_duplicate_against_model_vocab(self):
        rng = np.random.default_rng(13)
        model = make_emb(["keep", "stay"], rng.standard_normal((2, 3)))
        with pytest.raises(DuplicateNewToken, match="stay"):
            expand_random(model, ["stay"], seed=0)

    def test_duplicate_within_new_tokens(self):
        rng = np.random.default_rng(14)
        model = make_emb(["keep"], rng.standard_normal((1, 3)))
        with pytest.raises(DuplicateNewToken, match="twice"):
            expand_random(model, ["twice", "twice"], seed=0)

    def test_vocab_row_gather_reorders(self):
        """Embeddings stored in a different order still follow the vocab."""
        rng = np.random.default_rng(15)
        rows = rng.standard_normal((3, 2))
        emb = make_emb(["a", "b", "c"], rows)
        vocab = Vocabulary(["c", "a", "b"])
        out, _ = expand_random(emb, [], seed=0, vocab=vocab)
        np.testing.assert_array_equal(out.rows, rows[[2, 0, 1]])

    def test_vocab_token_without_row(self):
        rng = np.random.default_rng(16)
        emb = make_emb(["a"], rng.standard_normal((1, 2)))
        with pytest.raises(MissingToken) as err:
            expand_vocabulary(Vocabulary(["a", "b"]), emb, np.empty((0, 2)), [])
        assert err.value.token == "b" and err.value.position == 1

    def test_random_rows_need_a_donor(self):
        model = make_emb(["a"], np.ones((1, 3)))
        with pytest.raises(ValidationError, match="empty model"):
            random_rows(["x"], Vocabulary([]), model, seed=0)

    def test_row_count_must_match_records(self):
        rng = np.random.default_rng(20)
        model = make_emb(["a", "b"], rng.standard_normal((2, 3)))
        rows, provenance = random_rows(["x", "y"], model.vocab, model, seed=0)
        with pytest.raises(DimMismatch):
            expand_vocabulary(model.vocab, model, rows[:1], provenance)

    def test_reordered_splice_memory(self):
        """A reordered model costs one output buffer, frozen in place, and its vocabulary."""
        rng = np.random.default_rng(21)
        n, d = 20000, 64
        tokens = tok_list("m", n)
        model = make_emb(tokens, rng.standard_normal((n, d)))
        vocab = Vocabulary(tokens[::-1])
        new_rows, provenance = random_rows(tok_list("x", 50), vocab, model, seed=3)
        tracemalloc.start()
        try:
            out = expand_vocabulary(vocab, model, new_rows, provenance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * model.rows.nbytes
        assert np.array_equal(out.rows[:n], model.rows[::-1])


class TestEmitExpanded:
    def test_writes_all_three_files(self, tmp_path):
        rng = np.random.default_rng(17)
        model = make_emb(tok_list("m", 5), rng.standard_normal((5, 3)))
        out, provenance = expand_random(model, ["x1", "x2"], seed=3)
        emit_expanded(out, provenance, tmp_path / "expanded")
        base = tmp_path / "expanded"
        vocab = load_vocabulary(base / VOCAB_FILE)
        assert vocab.tokens == out.vocab.tokens
        emb = load_embeddings(base / EMBEDDINGS_FILE)
        assert emb.vocab.tokens == out.vocab.tokens
        np.testing.assert_allclose(emb.rows, out.rows, rtol=1e-8)
        lines = (base / PROVENANCE_FILE).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line, (token, strategy, detail) in zip(lines, provenance):
            assert line == f"{token}\t{strategy}\t{detail}"

    def test_renames_each_output_once(self, tmp_path):
        """The three files are written in place as temporaries and renamed once each."""
        model = make_emb(tok_list("m", 5), np.random.default_rng(19).standard_normal((5, 3)))
        base = tmp_path / "expanded"
        with mock.patch("os.replace", wraps=os.replace) as rename:
            emit_expanded(*expand_random(model, ["x1"], seed=3), base)
        names = [VOCAB_FILE, EMBEDDINGS_FILE, PROVENANCE_FILE]
        assert [Path(call.args[1]) for call in rename.call_args_list] == [base / n for n in names]
        assert sorted(p.name for p in base.iterdir()) == sorted(names)

    def test_failed_write_leaves_every_file_as_it_was(self, tmp_path, monkeypatch):
        """A failure while writing the embeddings replaces none of the three files."""
        rng = np.random.default_rng(18)
        model = make_emb(tok_list("m", 5), rng.standard_normal((5, 3)))
        base = tmp_path / "expanded"
        emit_expanded(*expand_random(model, ["x1"], seed=3), base)
        before = {p.name: p.read_bytes() for p in base.iterdir()}
        assert sorted(before) == sorted([VOCAB_FILE, EMBEDDINGS_FILE, PROVENANCE_FILE])

        def failing_save(emb, path):
            Path(path).write_text("2 3\npartial", encoding="utf-8")
            raise OSError("disk full")

        monkeypatch.setattr(expansion, "save_embeddings", failing_save)
        bigger, provenance = expand_random(model, ["y1", "y2"], seed=4)
        with pytest.raises(OSError, match="disk full"):
            emit_expanded(bigger, provenance, base)
        assert {p.name: p.read_bytes() for p in base.iterdir()} == before
