"""Anchor candidate selection, softmax weighting and mixed vectors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_emb, tok_list, unit_rows
from vocab_bridge import (
    LinearMap,
    Vocabulary,
    build_all_assignments,
    load_assignments,
    mixture_rows,
    mixture_weights,
    save_assignments,
)
from vocab_bridge.mixture import format_anchors
from vocab_bridge.errors import (
    DuplicateNewToken,
    EmptyAnchorPool,
    MalformedLine,
    MissingAnchor,
    MissingAssignment,
    TokenNotFound,
    ValidationError,
)

# unit rows at 0, 120 and 240 degrees; pairwise cosine is exactly -1/2
TRIPOD = np.array(
    [
        [1.0, 0.0],
        [-0.5, math.sqrt(3.0) / 2.0],
        [-0.5, -math.sqrt(3.0) / 2.0],
    ]
)


class TestMixtureWeights:
    def test_single_candidate_gets_all_mass(self):
        assert mixture_weights([[1.23]]).tolist() == [[1.0]]

    def test_equal_scores_share_evenly(self):
        out = mixture_weights([[0.4] * 5])
        for w in out[0]:
            np.testing.assert_allclose(w, 0.2, atol=1e-12)

    def test_log_score_gaps_give_exact_ratios(self):
        """Scores ln7, ln2, ln1 softmax to 0.7, 0.2, 0.1."""
        out = mixture_weights([[math.log(7.0), math.log(2.0), 0.0]])
        np.testing.assert_allclose(out[0], [0.7, 0.2, 0.1], atol=1e-9)

    def test_shift_invariance(self):
        scores = np.array([[0.3, -1.1, 0.72, 0.0]])
        base = mixture_weights(scores)
        shifted = mixture_weights(scores + 123.0)
        for a, b in zip(base[0], shifted[0]):
            assert abs(a - b) <= 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.standard_normal(rng.integers(1, 9))
            out = mixture_weights([scores])[0]
            np.testing.assert_allclose(sum(out.tolist()), 1.0, atol=1e-9)
            assert all(w > 0.0 for w in out)

    def test_matches_loop_softmax(self):
        rng = np.random.default_rng(1)
        scores = [float(s) for s in rng.standard_normal(6)]
        out = mixture_weights([scores])[0]
        np.testing.assert_allclose(out, oracles.softmax(scores), atol=1e-12)

    def test_empty_rejected(self):
        for bad in (np.empty((1, 0)), np.empty((0, 0)), [0.5, 0.5], [[0.5, np.inf]], [[np.nan]],
                    [[0.5], [-np.inf]]):
            with pytest.raises(ValidationError):
                mixture_weights(bad)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), m=st.integers(1, 20), data=st.data())
    def test_rows_match_the_per_record_reference_bitwise(self, n, m, data):
        """Each row equals the old one-record softmax bit for bit, with exact
        ties (cells drawn from a small bank) and scores up to +-700."""
        score = st.floats(-700.0, 700.0)
        bank = data.draw(st.lists(score, min_size=1, max_size=3), label="bank")
        cell = st.one_of(st.sampled_from(bank), score)
        scores = np.array(
            data.draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n))
        )
        got = mixture_weights(scores)
        assert got.shape == (n, m)
        for row, got_row in zip(scores.tolist(), got):
            want = oracles.mixture_weights_reference([(f"t{j}", s) for j, s in enumerate(row)])
            assert got_row.tobytes() == np.array([w for _, w in want]).tobytes()


def _mix_one(anchors, model):
    (row,), _ = mixture_rows(["new"], {"new": anchors}, model)
    return row


def _rows_reference(new_tokens, assignments, model):
    """``mixture_rows`` as one ``mixture_embedding_reference`` call per token."""
    rows = np.empty((len(new_tokens), model.dim))
    for i, tok in enumerate(new_tokens):
        anchors = assignments.get(tok)
        if anchors is None:
            raise MissingAssignment(tok)
        rows[i] = oracles.mixture_embedding_reference(anchors, model)
    return rows


class TestMixtureEmbedding:
    """Mixed rows from ``mixture_rows``."""

    def test_single_anchor_copies_raw_row(self):
        model = make_emb(["a", "b"], [[3.0, 4.0], [1.0, 0.0]])
        np.testing.assert_array_equal(_mix_one([("a", 1.0)], model), [3.0, 4.0])

    def test_midpoint(self):
        model = make_emb(["a", "b"], [[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(_mix_one([("a", 0.5), ("b", 0.5)], model), [1.0, 2.0])

    def test_weighted_combination(self):
        model = make_emb(["a", "b", "c"], np.eye(3) * 10.0)
        out = _mix_one([("a", 0.7), ("b", 0.2), ("c", 0.1)], model)
        np.testing.assert_allclose(out, [7.0, 2.0, 1.0])

    def test_missing_anchor(self):
        model = make_emb(["a"], [[1.0, 0.0]])
        with pytest.raises(MissingAnchor, match="ghost"):
            _mix_one([("a", 0.5), ("ghost", 0.5)], model)

    def test_empty_anchor_list_rejected(self):
        model = make_emb(["a"], [[1.0, 0.0]])
        with pytest.raises(ValidationError, match="empty"):
            _mix_one([], model)

    def test_convex_hull_norm_bound(self):
        """A convex combination can never exceed the largest anchor norm."""
        rng = np.random.default_rng(2)
        model = make_emb(tok_list("m", 12), rng.standard_normal((12, 5)) * 3.0)
        max_norm = np.linalg.norm(model.rows, axis=1).max()
        assignments = {}
        for t in range(30):
            n = int(rng.integers(1, 6))
            picks = rng.choice(12, size=n, replace=False)
            raw = rng.random(n) + 1e-3
            assignments[f"n{t}"] = [
                (f"m{j:04d}", float(w)) for j, w in zip(picks, raw / raw.sum())
            ]
        rows, _ = mixture_rows(list(assignments), assignments, model)
        for out in rows:
            assert np.linalg.norm(out) <= max_norm + 1e-9

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab_size=st.integers(1, 8),
        dim=st.integers(1, 6),
        data=st.data(),
    )
    def test_rows_match_the_per_token_reference_bitwise(self, seed, vocab_size, dim, data):
        """Mixed anchor counts, anchors shared across tokens and a model
        vocabulary in reversed order give the old per-token rows bit for bit."""
        rng = np.random.default_rng(seed)
        names = tok_list("m", vocab_size)
        model = make_emb(names[::-1], rng.standard_normal((vocab_size, dim)) * 3.0)
        anchor_lists = data.draw(
            st.lists(
                st.lists(st.sampled_from(names), min_size=1, max_size=5, unique=True),
                min_size=0, max_size=8,
            ),
            label="anchors",
        )
        assignments = {
            f"n{t}": [(a, float(w)) for a, w in zip(anchors, rng.random(len(anchors)))]
            for t, anchors in enumerate(anchor_lists)
        }
        new = list(assignments)[::-1]
        rows, provenance = mixture_rows(new, assignments, model)
        assert rows.shape == (len(new), dim)
        assert rows.tobytes() == _rows_reference(new, assignments, model).tobytes()
        assert provenance == [(t, "mixture", format_anchors(assignments[t])) for t in new]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @example(count=3, orphans={1}, ghosts={2})
    @example(count=3, orphans={2}, ghosts={1})
    @given(
        count=st.integers(1, 6),
        orphans=st.sets(st.integers(0, 5)),
        ghosts=st.sets(st.integers(0, 5)),
    )
    def test_first_fault_in_token_order_is_raised(self, count, orphans, ghosts):
        """The first token without an assignment or with an anchor outside the
        model raises, as in the per-token reference; an earlier
        ``MissingAssignment`` wins over a later ``MissingAnchor``."""
        model = make_emb(["a", "b"], [[1.0, 0.0], [0.0, 2.0]])
        new = [f"n{t}" for t in range(count)]
        assignments = {
            tok: [("a", 0.25), (f"ghost{t}" if t in ghosts else "b", 0.75)]
            for t, tok in enumerate(new)
            if t not in orphans
        }
        first = min(orphans | ghosts, default=count)
        try:
            want = _rows_reference(new, assignments, model)
        except (MissingAssignment, MissingAnchor) as exc:
            assert isinstance(exc, MissingAssignment if first in orphans else MissingAnchor)
            with pytest.raises(type(exc)) as got:
                mixture_rows(new, assignments, model)
            assert got.value.token == exc.token
        else:
            rows, _ = mixture_rows(new, assignments, model)
            assert rows.tobytes() == want.tobytes()


def _anchors(new_tokens, src, english, model, model_vocab=None, **retrieval):
    """Anchor lists that build_all_assignments picks under an identity map."""
    out = build_all_assignments(
        new_tokens, src, LinearMap(np.eye(src.dim)), english, model,
        model.vocab if model_vocab is None else model_vocab, **retrieval,
    )
    return [anchors for _, anchors in out]


class TestCandidateSet:
    """Anchor candidates chosen by build_all_assignments."""

    def test_small_pool_clamps_neighborhood(self):
        """A 3-token pool works under the default k=10 by clamping."""
        rng = np.random.default_rng(3)
        mapped = make_emb(tok_list("s", 4), unit_rows(rng, 4, 2))
        english = make_emb(["e0", "e1", "e2"], TRIPOD)
        model = make_emb(["e0", "e1", "e2"], np.eye(3))
        (out,) = _anchors(["s0000"], mapped, english, model)
        assert len(out) == 3
        assert {t for t, _ in out} == {"e0", "e1", "e2"}

    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(4)
        pool_rows = unit_rows(rng, 6, 4)
        english = make_emb(tok_list("e", 6), pool_rows)
        model = make_emb(tok_list("e", 6), np.eye(6))
        mapped = make_emb(["w"], pool_rows[2:3])
        (out,) = _anchors(["w"], mapped, english, model, top_m=3)
        assert out[0][0] == "e0002"

    def test_matches_oracle_on_large_pool(self):
        """Anchors, weights and mixed rows follow the brute-force CSLS oracle.

        The pool is restricted through ``model_vocab`` to the middle 50 of 60
        English tokens; the source r-term runs over every mapped source row.
        """
        rng = np.random.default_rng(5)
        mapped_rows = unit_rows(rng, 40, 8)
        mapped = make_emb(tok_list("s", 40), mapped_rows)
        eng_rows = unit_rows(rng, 60, 8)
        english = make_emb(tok_list("e", 60), eng_rows)
        model = make_emb(tok_list("e", 60), rng.standard_normal((60, 4)))
        pool = [f"e{i:04d}" for i in range(5, 55)]
        pool_rows = eng_rows[5:55]
        new = ["s0012", "s0031", "s0000"]
        out = build_all_assignments(
            new, mapped, LinearMap(np.eye(8)), english, model, Vocabulary(pool),
            csls_k=5, top_m=7,
        )
        assert [tok for tok, _ in out] == new
        rows, _ = mixture_rows(new, dict(out), model)
        for (tok, anchors), row in zip(out, rows):
            q = mapped_rows[mapped.vocab.id(tok)]
            scores = [
                oracles.csls_pair(q, pool_rows[j], mapped_rows, pool_rows, 5)
                for j in range(len(pool))
            ]
            ids = oracles.top_ids(scores, 7)
            assert [t for t, _ in anchors] == [pool[j] for j in ids]
            np.testing.assert_allclose(
                [w for _, w in anchors], oracles.softmax([scores[j] for j in ids]),
                atol=1e-9,
            )
            manual = np.zeros(4)
            for anchor, w in anchors:
                manual += w * model.rows[model.vocab.id(anchor)]
            np.testing.assert_allclose(row, manual, atol=1e-12)

    def test_pool_restricts_candidates(self):
        rng = np.random.default_rng(6)
        english = make_emb(tok_list("e", 10), unit_rows(rng, 10, 4))
        model = make_emb(tok_list("e", 10), np.eye(10))
        mapped = make_emb(["w"], unit_rows(rng, 1, 4))
        (out,) = _anchors(
            ["w"], mapped, english, model, csls_k=1,
            model_vocab=Vocabulary(["e0007", "e0003"]),
        )
        assert {t for t, _ in out} == {"e0003", "e0007"}

    def test_tie_break_uses_english_id_order(self):
        """Identical anchor rows tie; English order wins over model order."""
        english = make_emb(["late", "early"], [[1.0, 0.0], [1.0, 0.0]])
        model = make_emb(["early", "late"], np.eye(2))
        mapped = make_emb(["w"], [[1.0, 0.0]])
        (out,) = _anchors(["w"], mapped, english, model, csls_k=1)
        assert [t for t, _ in out] == ["late", "early"]

    def test_empty_pool(self):
        """Shared English and model tokens outside ``model_vocab`` are no anchors."""
        english = make_emb(["e"], [[1.0, 0.0]])
        model = make_emb(["e"], [[1.0, 0.0]])
        mapped = make_emb(["w"], [[1.0, 0.0]])
        with pytest.raises(EmptyAnchorPool):
            _anchors(["w"], mapped, english, model, model_vocab=Vocabulary(["other"]))

    def test_unknown_tokens(self):
        """An unknown new token raises; unknown ``model_vocab`` tokens are skipped."""
        english = make_emb(["e"], [[1.0, 0.0]])
        model = make_emb(["e"], [[1.0, 0.0]])
        mapped = make_emb(["w"], [[1.0, 0.0]])
        with pytest.raises(TokenNotFound, match="ghost"):
            _anchors(["w", "ghost"], mapped, english, model)
        (out,) = _anchors(["w"], mapped, english, model, model_vocab=Vocabulary(["ghost", "e"]))
        assert out == [("e", 1.0)]


class TestBuildAllAssignments:
    def test_empty_token_list(self):
        rng = np.random.default_rng(7)
        english = make_emb(["e"], unit_rows(rng, 1, 2))
        model = make_emb(["e"], [[1.0, 0.0]])
        src = make_emb(["w"], unit_rows(rng, 1, 2))
        out = build_all_assignments(
            [], src, LinearMap(np.eye(2)), english, model, model.vocab
        )
        assert out == []

    def test_no_shared_anchor_tokens(self):
        rng = np.random.default_rng(8)
        english = make_emb(["e"], unit_rows(rng, 1, 2))
        model = make_emb(["m"], [[1.0, 0.0]])
        src = make_emb(["w"], unit_rows(rng, 1, 2))
        with pytest.raises(EmptyAnchorPool):
            build_all_assignments(
                ["w"], src, LinearMap(np.eye(2)), english, model, model.vocab
            )

    def test_well_separated_anchor_dominates(self):
        """Three mutually 120-degree anchors: the aligned one takes 1/(1+2e^-3).

        With the source rows sitting exactly on the anchor directions the
        r-terms are identical across candidates, so the softmax sees raw
        cosine gaps of 2*(1 - (-1/2)) = 3.
        """
        src = make_emb(["u0", "u1", "u2"], TRIPOD)
        english = make_emb(["a0", "a1", "a2"], TRIPOD)
        model = make_emb(["a0", "a1", "a2"], np.eye(3) * 2.0)
        out = build_all_assignments(
            ["u1"], src, LinearMap(np.eye(2)), english, model, model.vocab
        )
        ((_, anchors),) = out
        top_token, top_weight = anchors[0]
        assert top_token == "a1"
        assert top_weight > 0.9
        expect = 1.0 / (1.0 + 2.0 * math.exp(-3.0))
        np.testing.assert_allclose(top_weight, expect, atol=1e-9)
        np.testing.assert_allclose(sum(w for _, w in anchors), 1.0, atol=1e-9)

    def test_antipodal_pair_concentrates_further(self):
        src = make_emb(["p", "q"], [[1.0, 0.0], [-1.0, 0.0]])
        english = make_emb(["yes", "no"], [[1.0, 0.0], [-1.0, 0.0]])
        model = make_emb(["yes", "no"], [[5.0, 0.0], [0.0, 5.0]])
        ((_, anchors),) = build_all_assignments(
            ["p"], src, LinearMap(np.eye(2)), english, model, model.vocab
        )
        assert anchors[0][0] == "yes"
        np.testing.assert_allclose(
            anchors[0][1], 1.0 / (1.0 + math.exp(-4.0)), atol=1e-9
        )

    def test_agrees_with_per_token_candidate_set(self):
        """The batched build matches one brute-force candidate set per token."""
        rng = np.random.default_rng(9)
        d = 6
        src_rows = unit_rows(rng, 20, d)
        src = make_emb(tok_list("s", 20), src_rows)
        eng_rows = unit_rows(rng, 30, d)
        english = make_emb(tok_list("e", 30), eng_rows)
        model = make_emb(tok_list("e", 30), rng.standard_normal((30, 4)))
        new = ["s0003", "s0017", "s0000"]
        out = build_all_assignments(
            new, src, LinearMap(np.eye(d)), english, model, model.vocab, csls_k=4, top_m=5
        )
        assert [tok for tok, _ in out] == new
        rows, _ = mixture_rows(new, dict(out), model)
        pool = list(english.vocab.tokens)
        for (tok, anchors), row in zip(out, rows):
            q = src_rows[src.vocab.id(tok)]
            scores = [
                oracles.csls_pair(q, eng_rows[j], src_rows, eng_rows, 4)
                for j in range(len(pool))
            ]
            cands = [(pool[j], scores[j]) for j in oracles.top_ids(scores, 5)]
            want = mixture_weights([[s for _, s in cands]])[0]
            assert [t for t, _ in anchors] == [t for t, _ in cands]
            np.testing.assert_allclose([w for _, w in anchors], want, atol=1e-12)
            manual = np.zeros(4)
            for anchor, w in anchors:
                manual += w * model.rows[model.vocab.id(anchor)]
            np.testing.assert_allclose(row, manual, atol=1e-12)

    def test_weights_sorted_descending(self):
        rng = np.random.default_rng(10)
        src = make_emb(tok_list("s", 15), unit_rows(rng, 15, 5))
        english = make_emb(tok_list("e", 20), unit_rows(rng, 20, 5))
        model = make_emb(tok_list("e", 20), rng.standard_normal((20, 3)))
        out = build_all_assignments(
            list(src.vocab.tokens), src, LinearMap(np.eye(5)), english, model,
            model.vocab, csls_k=3,
        )
        for _, anchors in out:
            ws = [w for _, w in anchors]
            assert all(x >= y for x, y in zip(ws, ws[1:]))

    def test_missing_new_token(self):
        rng = np.random.default_rng(11)
        src = make_emb(["w"], unit_rows(rng, 1, 2))
        english = make_emb(["e"], unit_rows(rng, 1, 2))
        model = make_emb(["e"], [[1.0, 0.0]])
        with pytest.raises(TokenNotFound):
            build_all_assignments(
                ["ghost"], src, LinearMap(np.eye(2)), english, model, model.vocab
            )

    def test_repeated_new_token(self):
        """A token listed twice would write two records; the build refuses it."""
        rng = np.random.default_rng(11)
        src = make_emb(["w", "v"], unit_rows(rng, 2, 2))
        english = make_emb(["e"], unit_rows(rng, 1, 2))
        model = make_emb(["e"], [[1.0, 0.0]])
        with pytest.raises(DuplicateNewToken, match="'w'"):
            build_all_assignments(
                ["w", "v", "w"], src, LinearMap(np.eye(2)), english, model, model.vocab
            )


class TestAssignmentFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "mix.tsv"
        save_assignments(
            [("##er", [("her", 0.75), ("a", 0.25)]), ("ça", [("that", 1.0)])], path
        )
        text = path.read_text(encoding="utf-8")
        assert text == "##er\ther:0.750000,a:0.250000\nça\tthat:1.000000\n"
        back = load_assignments(path)
        assert [t for t, _ in back] == ["##er", "ça"]
        np.testing.assert_allclose(
            [w for _, w in back[0][1]], [0.75, 0.25], atol=1e-9
        )

    def test_built_records_round_trip(self, tmp_path):
        """Built records load back with their tokens, anchor order and weights."""
        rng = np.random.default_rng(12)
        src = make_emb(tok_list("s", 15), unit_rows(rng, 15, 5))
        english = make_emb(tok_list("e", 20), unit_rows(rng, 20, 5))
        model = make_emb(tok_list("e", 20), rng.standard_normal((20, 3)))
        built = build_all_assignments(
            ["s0004", "s0011", "s0000"], src, LinearMap(np.eye(5)), english, model,
            model.vocab, csls_k=3,
        )
        path = tmp_path / "mix.tsv"
        save_assignments(built, path)
        back = load_assignments(path)
        assert [tok for tok, _ in back] == [tok for tok, _ in built]
        for (_, got), (_, want) in zip(back, built):
            assert [t for t, _ in got] == [t for t, _ in want]
            np.testing.assert_allclose(
                [w for _, w in got], [w for _, w in want], rtol=0, atol=1e-6
            )

    def test_anchor_tokens_with_commas_and_colons(self, tmp_path):
        path = tmp_path / "mix.tsv"
        save_assignments([("w", [("a,b", 0.5), ("x:y", 0.3), (",", 0.2)])], path)
        (record,) = load_assignments(path)
        assert [t for t, _ in record[1]] == ["a,b", "x:y", ","]
        np.testing.assert_allclose(
            [w for _, w in record[1]], [0.5, 0.3, 0.2], atol=1e-9
        )

    def test_rounded_weights_renormalize(self, tmp_path):
        path = tmp_path / "mix.tsv"
        save_assignments([("w", [("a", 1 / 3), ("b", 1 / 3), ("c", 1 / 3)])], path)
        assert "0.333333" in path.read_text(encoding="utf-8")
        (record,) = load_assignments(path)
        weights = [w for _, w in record[1]]
        np.testing.assert_allclose(sum(weights), 1.0, atol=1e-12)
        np.testing.assert_allclose(weights, [1 / 3] * 3, atol=1e-6)

    @pytest.mark.parametrize(
        "line",
        [
            "no_tab_here",
            "w\t",
            "\ta:1.000000",
            "w\tjustatoken",
            "w\ta:1.0",
            "w\t:0.123456",
            "new tok\ta:1.000000",
            "w\tan chor:1.000000",
            "w\ta:0.500000,b\u2028c:0.500000",
        ],
    )
    def test_malformed_lines(self, tmp_path, line):
        path = tmp_path / "bad.tsv"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_assignments(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ok\ta:1.000000\nbroken line\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as exc:
            load_assignments(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "bad",
        ["new tok\ta:1.000000", "w\tan chor:1.000000", "ok\tb:1.000000",
         "new\tx:0.500000,x:0.500000"],
    )
    def test_token_rule_names_line(self, tmp_path, bad):
        path = tmp_path / "bad.tsv"
        path.write_text(f"ok\ta:1.000000\n{bad}\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as exc:
            load_assignments(path)
        assert exc.value.line == 2

    def test_all_zero_weights_name_line(self, tmp_path):
        path = tmp_path / "zero.tsv"
        path.write_text("ok\ta:1.000000\nw\ta:0.000000,b:0.000000\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match="sum to zero") as exc:
            load_assignments(path)
        assert exc.value.line == 2

    # anchors from these characters hold commas, colons, points and digits,
    # so fragments and weight tails can be confused at every split
    _CHARS = "abc,:.09"
    _WEIGHTS = ["0.500000", "1.000000", "0.250000", "12.345678", "0.000000", "0.5", "3.1234567"]
    _RECORD = st.tuples(
        st.text(_CHARS, min_size=1, max_size=3),
        st.lists(
            st.tuples(st.text(_CHARS, min_size=1, max_size=4), st.sampled_from(_WEIGHTS)),
            min_size=1, max_size=4,
        ),
    ).map(lambda r: r[0] + "\t" + ",".join(f"{a}:{w}" for a, w in r[1]))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        lines=st.lists(_RECORD, max_size=6),
        raw=st.one_of(st.none(), st.tuples(st.integers(0, 6), st.text(_CHARS + "\t ", max_size=12))),
    )
    def test_matches_the_reference_parser(self, tmp_path_factory, lines, raw):
        """Equal records, or the same exception on the same line; ``raw`` is
        an optional free-form line put among the records."""
        if raw is not None:
            lines.insert(*raw)
        path = tmp_path_factory.mktemp("mix") / "mix.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

        def outcome(load):
            try:
                return load(path)
            except MalformedLine as exc:
                return type(exc), exc.line, str(exc)

        assert outcome(load_assignments) == outcome(oracles.load_assignments_reference)

    def test_format_anchors(self):
        assert format_anchors([("x", 0.1), ("y", 0.9)]) == "x:0.100000,y:0.900000"
