"""Selecting new subwords and splicing them into a pretrained model."""

from pathlib import Path

import numpy as np
import pytest

from conftest import make_emb, planted_chain, tok_list, unit_rows
from vocab_bridge import (
    ExpansionStrategy,
    LinearMap,
    StrategyKind,
    Vocabulary,
    emit_expanded,
    expand_vocabulary,
    load_embeddings,
    load_vocabulary,
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

    def test_seed_requirement(self):
        with pytest.raises(ValidationError):
            ExpansionStrategy(StrategyKind.RANDOM)
        ExpansionStrategy(StrategyKind.RANDOM, seed=0)

    def test_zero_new_tokens_is_identity(self):
        rng = np.random.default_rng(0)
        model = self._model(rng)
        out = expand_vocabulary(
            model.vocab, model, [], ExpansionStrategy(StrategyKind.RANDOM, seed=1)
        )
        assert out.vocab.tokens == model.vocab.tokens
        assert np.array_equal(out.embeddings.rows, model.rows)
        assert out.provenance == ()

    def test_same_seed_reproduces_rows(self):
        rng = np.random.default_rng(1)
        model = self._model(rng)
        new = ["x1", "x2", "x3"]
        a = expand_vocabulary(
            model.vocab, model, new, ExpansionStrategy(StrategyKind.RANDOM, seed=7)
        )
        b = expand_vocabulary(
            model.vocab, model, new, ExpansionStrategy(StrategyKind.RANDOM, seed=7)
        )
        assert np.array_equal(a.embeddings.rows, b.embeddings.rows)
        assert a.provenance == b.provenance

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(2)
        model = self._model(rng, n=50)
        new = [f"x{i}" for i in range(10)]
        a = expand_vocabulary(
            model.vocab, model, new, ExpansionStrategy(StrategyKind.RANDOM, seed=0)
        )
        b = expand_vocabulary(
            model.vocab, model, new, ExpansionStrategy(StrategyKind.RANDOM, seed=1)
        )
        assert a.provenance != b.provenance

    def test_donor_row_matches_provenance(self):
        rng = np.random.default_rng(3)
        model = self._model(rng)
        out = expand_vocabulary(
            model.vocab, model, ["x1", "x2"],
            ExpansionStrategy(StrategyKind.RANDOM, seed=11),
        )
        for i, rec in enumerate(out.provenance):
            assert rec.strategy == "random"
            assert rec.detail.startswith("donor=")
            donor = rec.detail.removeprefix("donor=")
            new_row = out.embeddings.rows[len(model.vocab) + i]
            assert np.array_equal(new_row, model.row(donor))

    def test_original_rows_and_ids_untouched(self):
        rng = np.random.default_rng(4)
        model = self._model(rng)
        out = expand_vocabulary(
            model.vocab, model, ["x1"],
            ExpansionStrategy(StrategyKind.RANDOM, seed=5),
        )
        n = len(model.vocab)
        assert out.vocab.tokens[:n] == model.vocab.tokens
        assert out.vocab.tokens[n:] == ("x1",)
        assert np.array_equal(out.embeddings.rows[:n], model.rows)
        for tok in model.vocab.tokens:
            assert out.vocab.id(tok) == model.vocab.id(tok)


class TestJointStrategy:
    def test_rows_come_from_composed_maps(self):
        rng = np.random.default_rng(5)
        chain = planted_chain(rng, n=30, d_src=8, d_model=12)
        to_english = LinearMap(chain.q1)
        to_model = LinearMap(chain.q2)
        new = list(chain.src.vocab.tokens[:6])
        out = expand_vocabulary(
            chain.model.vocab, chain.model, new,
            ExpansionStrategy(StrategyKind.JOINT),
            src=chain.src, to_english=to_english, to_model=to_model,
        )
        composed = chain.q1 @ chain.q2
        n = len(chain.model.vocab)
        for i, tok in enumerate(new):
            want = chain.src.row(tok) @ composed
            np.testing.assert_allclose(out.embeddings.rows[n + i], want, atol=1e-12)
            # the planted chain pairs l#### with en#### sharing one latent row
            np.testing.assert_allclose(
                out.embeddings.rows[n + i],
                chain.model.row(tok.replace("l", "en", 1)),
                atol=1e-8,
            )
        assert all(rec.strategy == "joint" for rec in out.provenance)

    def test_requires_all_inputs(self):
        rng = np.random.default_rng(6)
        model = make_emb(tok_list("m", 4), rng.standard_normal((4, 3)))
        with pytest.raises(ValidationError):
            expand_vocabulary(
                model.vocab, model, ["x"], ExpansionStrategy(StrategyKind.JOINT)
            )

    def test_dim_mismatches(self):
        rng = np.random.default_rng(7)
        model = make_emb(tok_list("m", 4), rng.standard_normal((4, 3)))
        src = make_emb(["x"], unit_rows(rng, 1, 2))
        eye2, eye3 = LinearMap(np.eye(2)), LinearMap(np.eye(3))
        with pytest.raises(DimMismatch):
            expand_vocabulary(
                model.vocab, model, ["x"], ExpansionStrategy(StrategyKind.JOINT),
                src=src, to_english=eye3, to_model=eye3,
            )
        with pytest.raises(DimMismatch):
            expand_vocabulary(
                model.vocab, model, ["x"], ExpansionStrategy(StrategyKind.JOINT),
                src=src, to_english=eye2, to_model=eye3,
            )
        with pytest.raises(DimMismatch):
            expand_vocabulary(
                model.vocab, model, ["x"], ExpansionStrategy(StrategyKind.JOINT),
                src=src, to_english=eye2, to_model=eye2,
            )

    def test_new_token_missing_from_source(self):
        rng = np.random.default_rng(8)
        model = make_emb(tok_list("m", 4), rng.standard_normal((4, 2)))
        src = make_emb(["x"], unit_rows(rng, 1, 2))
        with pytest.raises(MissingToken):
            expand_vocabulary(
                model.vocab, model, ["ghost"], ExpansionStrategy(StrategyKind.JOINT),
                src=src, to_english=LinearMap(np.eye(2)),
                to_model=LinearMap(np.eye(2)),
            )


class TestMixtureStrategy:
    def _fixture(self, rng):
        model = make_emb(tok_list("m", 6), rng.standard_normal((6, 4)))
        anchors = (("m0001", 0.75), ("m0004", 0.25))
        return model, anchors

    def test_rows_are_weighted_sums(self):
        rng = np.random.default_rng(9)
        model, anchors = self._fixture(rng)
        out = expand_vocabulary(
            model.vocab, model, ["new"], ExpansionStrategy(StrategyKind.MIXTURE),
            assignments={"new": anchors},
        )
        want = 0.75 * model.row("m0001") + 0.25 * model.row("m0004")
        np.testing.assert_allclose(out.embeddings.rows[-1], want, atol=1e-12)
        (rec,) = out.provenance
        assert rec == type(rec)("new", "mixture", "m0001:0.750000,m0004:0.250000")

    def test_missing_assignment(self):
        rng = np.random.default_rng(11)
        model, anchors = self._fixture(rng)
        with pytest.raises(MissingAssignment, match="orphan"):
            expand_vocabulary(
                model.vocab, model, ["new", "orphan"],
                ExpansionStrategy(StrategyKind.MIXTURE),
                assignments={"new": anchors},
            )

    def test_assignments_required(self):
        rng = np.random.default_rng(12)
        model, _ = self._fixture(rng)
        with pytest.raises(ValidationError):
            expand_vocabulary(
                model.vocab, model, ["new"], ExpansionStrategy(StrategyKind.MIXTURE)
            )


class TestExpandValidation:
    def test_duplicate_against_model_vocab(self):
        rng = np.random.default_rng(13)
        model = make_emb(["keep", "stay"], rng.standard_normal((2, 3)))
        with pytest.raises(DuplicateNewToken, match="stay"):
            expand_vocabulary(
                model.vocab, model, ["stay"],
                ExpansionStrategy(StrategyKind.RANDOM, seed=0),
            )

    def test_duplicate_within_new_tokens(self):
        rng = np.random.default_rng(14)
        model = make_emb(["keep"], rng.standard_normal((1, 3)))
        with pytest.raises(DuplicateNewToken, match="twice"):
            expand_vocabulary(
                model.vocab, model, ["twice", "twice"],
                ExpansionStrategy(StrategyKind.RANDOM, seed=0),
            )

    def test_vocab_row_gather_reorders(self):
        """Embeddings stored in a different order still follow the vocab."""
        rng = np.random.default_rng(15)
        rows = rng.standard_normal((3, 2))
        emb = make_emb(["a", "b", "c"], rows)
        vocab = Vocabulary(["c", "a", "b"])
        out = expand_vocabulary(
            vocab, emb, [], ExpansionStrategy(StrategyKind.RANDOM, seed=0)
        )
        np.testing.assert_array_equal(out.embeddings.rows, rows[[2, 0, 1]])

    def test_vocab_token_without_row(self):
        rng = np.random.default_rng(16)
        emb = make_emb(["a"], rng.standard_normal((1, 2)))
        with pytest.raises(MissingToken, match="b"):
            expand_vocabulary(
                Vocabulary(["a", "b"]), emb, [],
                ExpansionStrategy(StrategyKind.RANDOM, seed=0),
            )


class TestEmitExpanded:
    def test_writes_all_three_files(self, tmp_path):
        rng = np.random.default_rng(17)
        model = make_emb(tok_list("m", 5), rng.standard_normal((5, 3)))
        out = expand_vocabulary(
            model.vocab, model, ["x1", "x2"],
            ExpansionStrategy(StrategyKind.RANDOM, seed=3),
        )
        emit_expanded(out, tmp_path / "expanded")
        base = tmp_path / "expanded"
        vocab = load_vocabulary(base / VOCAB_FILE)
        assert vocab.tokens == out.vocab.tokens
        emb = load_embeddings(base / EMBEDDINGS_FILE)
        assert emb.vocab.tokens == out.vocab.tokens
        np.testing.assert_allclose(emb.rows, out.embeddings.rows, rtol=1e-8)
        lines = (base / PROVENANCE_FILE).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line, rec in zip(lines, out.provenance):
            assert line == f"{rec.token}\t{rec.strategy}\t{rec.detail}"

    def test_failed_write_leaves_every_file_as_it_was(self, tmp_path, monkeypatch):
        """A failure while writing the embeddings replaces none of the three files."""
        rng = np.random.default_rng(18)
        model = make_emb(tok_list("m", 5), rng.standard_normal((5, 3)))
        base = tmp_path / "expanded"
        emit_expanded(
            expand_vocabulary(
                model.vocab, model, ["x1"], ExpansionStrategy(StrategyKind.RANDOM, seed=3)
            ),
            base,
        )
        before = {p.name: p.read_bytes() for p in base.iterdir()}
        assert sorted(before) == sorted([VOCAB_FILE, EMBEDDINGS_FILE, PROVENANCE_FILE])

        def failing_save(emb, path):
            Path(path).write_text("2 3\npartial", encoding="utf-8")
            raise OSError("disk full")

        monkeypatch.setattr(expansion, "save_embeddings", failing_save)
        bigger = expand_vocabulary(
            model.vocab, model, ["y1", "y2"], ExpansionStrategy(StrategyKind.RANDOM, seed=4)
        )
        with pytest.raises(OSError, match="disk full"):
            emit_expanded(bigger, base)
        assert {p.name: p.read_bytes() for p in base.iterdir()} == before
