"""Procrustes solving, CSLS retrieval, evaluation metrics and the two fits."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    make_emb,
    planted_chain,
    random_orthogonal,
    random_semi_orthogonal,
    tok_list,
    unit_rows,
)
from vocab_bridge import (
    BilingualDictionary,
    LinearMap,
    apply_map,
    build_all_assignments,
    csls_knn,
    evaluate_map,
    fit_independent_mapping,
    fit_joint_mapping,
    procrustes_solve,
)
from vocab_bridge import alignment
from vocab_bridge.alignment import _csls_topk, _row_blocks, load_map, save_map
from vocab_bridge.embeddings import _unit_rows
from vocab_bridge.errors import (
    DegenerateInput,
    DimMismatch,
    EmptyEvalDict,
    EmptyIntersection,
    EmptyStage1Dict,
    EmptyStage2Anchors,
    KTooLarge,
    LowRankWarning,
    MalformedHeader,
    ValidationError,
)


class TestLinearMap:
    def test_accepts_rotation(self):
        rng = np.random.default_rng(0)
        LinearMap(random_orthogonal(rng, 5))

    def test_accepts_tall_and_wide_semi_orthogonal(self):
        rng = np.random.default_rng(1)
        wide = LinearMap(random_semi_orthogonal(rng, 3, 7))
        tall = LinearMap(random_semi_orthogonal(rng, 7, 3))
        assert (wide.src_dim, wide.tgt_dim) == (3, 7)
        assert (tall.src_dim, tall.tgt_dim) == (7, 3)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValidationError, match="semi-orthogonal"):
            LinearMap(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_empty_matrix(self):
        for shape in ((0, 3), (3, 0), (0, 0)):
            with pytest.raises(ValidationError, match="empty"):
                LinearMap(np.zeros(shape))

    def test_rejects_one_dimensional_matrix(self):
        with pytest.raises(ValidationError, match="2-D"):
            LinearMap(np.ones(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_matrix(self, value):
        matrix = np.eye(3)
        matrix[1, 2] = value
        with pytest.raises(ValidationError, match="non-finite"):
            LinearMap(matrix)

    def test_matrix_immutable(self):
        m = LinearMap(np.eye(3))
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 2.0


class TestProcrustes:
    def test_identity_when_targets_equal_inputs(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 4))
        m = procrustes_solve(x, x)
        np.testing.assert_allclose(m.matrix, np.eye(4), atol=1e-9)

    def test_recovers_planted_rotation(self):
        rng = np.random.default_rng(3)
        q = random_orthogonal(rng, 6)
        x = rng.standard_normal((40, 6))
        m = procrustes_solve(x, x @ q)
        assert np.linalg.norm(m.matrix - q) <= 1e-9

    def test_recovers_planted_rectangular_map(self):
        rng = np.random.default_rng(4)
        q = random_semi_orthogonal(rng, 5, 9)
        x = rng.standard_normal((30, 5))
        m = procrustes_solve(x, x @ q)
        assert np.linalg.norm(m.matrix - q) <= 1e-9

    def test_degenerate_cross_covariance(self):
        with pytest.raises(DegenerateInput):
            procrustes_solve(np.zeros((3, 2)), np.ones((3, 2)))
        with pytest.raises(DegenerateInput):
            procrustes_solve(np.ones((3, 2)), np.zeros((3, 2)))

    def test_row_count_mismatch(self):
        with pytest.raises(DimMismatch):
            procrustes_solve(np.eye(3), np.eye(4))

    def test_rejects_one_dimensional_inputs(self):
        with pytest.raises(ValidationError, match="2-D"):
            procrustes_solve(np.ones(3), np.ones((3, 1)))
        with pytest.raises(ValidationError, match="2-D"):
            procrustes_solve(np.ones((3, 1)), np.ones(3))

    def test_rejects_zero_rows(self):
        with pytest.raises(ValidationError, match="at least one"):
            procrustes_solve(np.zeros((0, 2)), np.zeros((0, 3)))

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_rejects_non_finite_inputs(self, side):
        x, y = np.eye(3), np.eye(3)
        (x if side == "x" else y)[2, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            procrustes_solve(x, y)

    def test_matches_2d_grid_search(self):
        """The closed-form solution beats or ties a fine rotation/reflection grid."""
        rng = np.random.default_rng(5)
        x = unit_rows(rng, 30, 2)
        q = random_orthogonal(rng, 2)
        y = x @ q + 0.05 * rng.standard_normal((30, 2))
        m = procrustes_solve(x, y)
        solved = oracles.procrustes_objective(x, y, m.matrix)
        grid = oracles.procrustes_grid_min_2d(x, y, 20000)
        assert solved <= grid + 1e-9
        assert abs(solved - grid) <= 1e-6

    def test_beats_random_orthogonal_matrices(self):
        """Monte-Carlo optimality check in d=4 against 1000 random rotations."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((25, 4))
        y = rng.standard_normal((25, 4))
        m = procrustes_solve(x, y)
        solved = oracles.procrustes_objective(x, y, m.matrix)
        for _ in range(1000):
            r = random_orthogonal(rng, 4)
            assert solved <= oracles.procrustes_objective(x, y, r) + 1e-9

    def test_objective_invariant_under_joint_rotation(self):
        """Rotating both spaces rigidly leaves the achieved objective unchanged."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal((20, 3))
        base = oracles.procrustes_objective(x, y, procrustes_solve(x, y).matrix)
        for seed in range(5):
            r1 = random_orthogonal(np.random.default_rng(100 + seed), 3)
            r2 = random_orthogonal(np.random.default_rng(200 + seed), 3)
            xr, yr = x @ r1, y @ r2
            rotated = oracles.procrustes_objective(
                xr, yr, procrustes_solve(xr, yr).matrix
            )
            np.testing.assert_allclose(rotated, base, atol=1e-8)


class TestApplyMap:
    def test_identity(self):
        m = make_emb(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        out = apply_map(LinearMap(np.eye(2)), m)
        np.testing.assert_array_equal(out.rows, m.rows)

    def test_rotation_preserves_norms(self):
        rng = np.random.default_rng(8)
        emb = make_emb(tok_list("t", 20), unit_rows(rng, 20, 300))
        wide = LinearMap(random_semi_orthogonal(rng, 300, 768))
        out = apply_map(wide, emb)
        np.testing.assert_allclose(np.linalg.norm(out.rows, axis=1), 1.0, atol=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            apply_map(LinearMap(np.eye(3)), make_emb(["a"], [[1.0, 2.0]]))

    def test_holds_its_product_without_a_copy(self):
        """The mapped matrix costs one product buffer, frozen in place."""
        rng = np.random.default_rng(12)
        emb = make_emb(tok_list("t", 20000), rng.standard_normal((20000, 64)))
        linear_map = LinearMap(random_semi_orthogonal(rng, 64, 64))
        tracemalloc.start()
        try:
            out = apply_map(linear_map, emb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.rows.nbytes
        assert not out.rows.flags.writeable

    @pytest.mark.parametrize("d1, d2", [(6, 6), (5, 9), (9, 5)])
    def test_mapped_unit_is_unit_rows_of_applied_map(self, d1, d2):
        """Scorers and ``csls-nn --map`` build the same mapped unit rows, bit for bit."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rows = rng.standard_normal((40, d1)) * np.exp(rng.uniform(-3.0, 3.0, (40, 1)))
            src = make_emb(tok_list("s", 40), rows)
            linear_map = LinearMap(random_semi_orthogonal(rng, d1, d2))
            expected = _unit_rows(apply_map(linear_map, src).rows, src.vocab)
            assert alignment._mapped_unit(linear_map, src).tobytes() == expected.tobytes()


class TestCslsKnn:
    def test_self_retrieval_on_identical_sets(self):
        """Every token's nearest neighbor in a copy of its own space is itself."""
        rng = np.random.default_rng(12)
        rows = unit_rows(rng, 50, 16)
        q = make_emb(tok_list("w", 50), rows)
        t = make_emb(tok_list("w", 50), rows)
        for i, (query, entries) in enumerate(csls_knn(q, t, top=1, csls_k=10)):
            assert query == f"w{i:04d}"
            assert entries[0][0] == f"w{i:04d}"

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(13)
        q_rows = unit_rows(rng, 12, 6)
        t_rows = unit_rows(rng, 15, 6)
        q = make_emb(tok_list("q", 12), q_rows)
        t = make_emb(tok_list("t", 15), t_rows)
        got = csls_knn(q, t, top=5, csls_k=4)
        want_scores = oracles.csls_all_pairs(q_rows, t_rows, 4)
        assert [query for query, _ in got] == tok_list("q", 12)
        for i, (_, entries) in enumerate(got):
            ids = oracles.top_ids(want_scores[i], 5)
            assert [e[0] for e in entries] == [f"t{j:04d}" for j in ids]
            for (tok, score), j in zip(entries, ids):
                assert abs(score - want_scores[i][j]) <= 1e-9

    def test_tie_break_ascending_target_id(self):
        """Duplicate target rows force exact ties, resolved by id order."""
        q = make_emb(["q"], [[1.0, 0.0]])
        t = make_emb(["dup0", "dup1", "dup2"], [[1.0, 0.0]] * 3)
        ((query, entries),) = csls_knn(q, t, top=3, csls_k=1)
        assert query == "q"
        assert [e[0] for e in entries] == ["dup0", "dup1", "dup2"]

    def test_full_depth_is_complete_and_sorted(self):
        rng = np.random.default_rng(14)
        q = make_emb(tok_list("q", 4), unit_rows(rng, 4, 3))
        t = make_emb(tok_list("t", 8), unit_rows(rng, 8, 3))
        _, entries = csls_knn(q, t, top=8, csls_k=3)[0]
        assert len(entries) == 8
        assert sorted({e[0] for e in entries}) == tok_list("t", 8)
        scores = [s for _, s in entries]
        assert all(a >= b - 1e-15 for a, b in zip(scores, scores[1:]))

    def test_k_too_large(self):
        rng = np.random.default_rng(15)
        q = make_emb(tok_list("q", 3), unit_rows(rng, 3, 3))
        t = make_emb(tok_list("t", 3), unit_rows(rng, 3, 3))
        with pytest.raises(KTooLarge):
            csls_knn(q, t, top=1, csls_k=4)


# "eval_precision_at_k" and "unsupervised_score" are the two numbers of evaluate_map
SCORERS = ["csls_knn", "eval_precision_at_k", "unsupervised_score", "build_all_assignments"]


def _scorer(name, to_tgt=None):
    """One call of ``name`` on 12 source and 12 target rows of width 4.

    ``to_tgt`` maps the source rows first (identity by default); the
    returned function takes the retrieval keyword arguments.
    """
    rng = np.random.default_rng(40)
    src = make_emb(tok_list("s", 12), unit_rows(rng, 12, 4))
    tgt = make_emb(tok_list("t", 12), unit_rows(rng, 12, 4))
    model = make_emb(tgt.vocab.tokens, unit_rows(rng, 12, 3))
    pairs = BilingualDictionary(tuple(zip(src.vocab.tokens, tgt.vocab.tokens)))
    m = LinearMap(np.eye(4)) if to_tgt is None else to_tgt
    return {
        "csls_knn": lambda top=1, **kw: csls_knn(apply_map(m, src), tgt, top, **kw),
        "eval_precision_at_k": lambda **kw: evaluate_map(m, src, tgt, pairs, **kw)[0],
        "unsupervised_score": lambda **kw: evaluate_map(m, src, tgt, pairs, **kw)[1],
        "build_all_assignments": lambda **kw: build_all_assignments(
            ["s0000"], src, m, tgt, model, model.vocab, **kw
        ),
    }[name]


class TestRetrievalArguments:
    """Every CSLS caller takes its argument checks from the one kernel."""

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_defaults_run(self, scorer):
        _scorer(scorer)()

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_non_positive_csls_k(self, scorer):
        with pytest.raises(ValidationError, match="csls_k=0"):
            _scorer(scorer)(csls_k=0)

    @pytest.mark.parametrize(
        "scorer, kwargs",
        [("csls_knn", {"top": 0}), ("eval_precision_at_k", {"eval_k": 0}),
         ("build_all_assignments", {"top_m": 0})],
    )
    def test_non_positive_depth(self, scorer, kwargs):
        with pytest.raises(ValidationError, match="top=0"):
            _scorer(scorer)(**kwargs)

    def test_top_beyond_targets(self):
        with pytest.raises(ValidationError, match="top=13"):
            _scorer("csls_knn")(top=13)

    @pytest.mark.parametrize(
        "scorer, kwargs",
        [("eval_precision_at_k", {"csls_k": 13}), ("unsupervised_score", {"csls_k": 13}),
         ("unsupervised_score", {"csls_k": 4, "sample": 3})],
    )
    def test_k_too_large(self, scorer, kwargs):
        with pytest.raises(KTooLarge):
            _scorer(scorer)(**kwargs)

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_mapped_width_mismatch(self, scorer):
        """A 4 -> 6 map against 4-dim targets is a ``DimMismatch``."""
        wide = LinearMap(random_semi_orthogonal(np.random.default_rng(41), 4, 6))
        with pytest.raises(DimMismatch):
            _scorer(scorer, wide)()


class TestCslsTopk:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        d=st.integers(1, 4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=9),
        data=st.data(),
    )
    def test_every_depth_is_a_prefix_of_the_id_tie_order(self, seed, n, d, picks, data):
        """Targets repeat rows of a 4-row bank, so their scores tie exactly."""
        rng = np.random.default_rng(seed)
        queries = unit_rows(rng, n, d)
        targets = unit_rows(rng, 4, d)[picks]
        m = len(picks)
        k = data.draw(st.integers(1, min(n, m)), label="k")
        all_ids, all_scores = _csls_topk(queries, targets, queries, k, m)
        for top in range(1, m + 1):
            ids, scores = _csls_topk(queries, targets, queries, k, top)
            assert ids.shape == scores.shape == (n, top)
            for i in range(n):
                assert sorted(all_ids[i].tolist()) == list(range(m))
                by_id = np.empty(m)
                by_id[all_ids[i]] = all_scores[i]
                want = np.lexsort((np.arange(m), -by_id))[:top]
                assert ids[i].tolist() == want.tolist()
                assert np.array_equal(scores[i], by_id[want])


class TestCslsBlocks:
    """Row blocks of ``_csls_topk`` against the single-block ranking."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 40),
        cols=st.integers(1, 12),
        budget=st.integers(1, 500),
    )
    def test_row_blocks_cover_rows_without_lone_rows(self, n, cols, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(alignment, "_BLOCK_CELLS", budget)
            blocks = _row_blocks(n, cols)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        assert n == 1 or min(sizes) >= 2
        assert max(sizes) <= max(2, budget // cols) + 1
        if n * cols <= budget:
            assert len(blocks) == 1

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 9),
        n_src=st.integers(1, 9),
        d=st.integers(1, 4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_every_budget_ranks_like_one_block(self, seed, n, n_src, d, picks, data):
        """Targets repeat rows of a 4-row bank, so their scores tie exactly."""
        rng = np.random.default_rng(seed)
        queries = unit_rows(rng, n, d)
        src = unit_rows(rng, n_src, d)
        targets = unit_rows(rng, 4, d)[picks]
        m = len(picks)
        k = data.draw(st.integers(1, min(n_src, m)), label="k")
        top = data.draw(st.integers(1, m), label="top")
        budget = data.draw(st.integers(1, max(n * m, m * n_src)), label="budget")
        want_ids, want_scores = _csls_topk(queries, targets, src, k, top)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(alignment, "_BLOCK_CELLS", budget)
            ids, scores = _csls_topk(queries, targets, src, k, top)
            all_ids, all_scores = _csls_topk(queries, targets, src, k, m)
        assert np.array_equal(ids, want_ids)
        np.testing.assert_allclose(scores, want_scores, rtol=0, atol=1e-12)
        for i in range(n):
            by_id = np.empty(m)
            by_id[all_ids[i]] = all_scores[i]
            assert all_ids[i].tolist() == np.lexsort((np.arange(m), -by_id)).tolist()

    def test_peak_memory_follows_the_block_budget(self):
        """3,000 x 2,500 scores are 60 MB dense; the kernel holds two block
        buffers (52 x 2,500 float64 each), its outputs and a little more."""
        rng = np.random.default_rng(19)
        queries = unit_rows(rng, 3000, 16)
        targets = unit_rows(rng, 2500, 16)
        tracemalloc.start()
        try:
            _csls_topk(queries, targets, queries, 10, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = 8 * (alignment._BLOCK_CELLS // 2500) * 2500
        outputs = 3000 * 5 * (8 + 8)
        assert peak < 2 * block + outputs + 0.5e6


class TestCslsTopOne:
    """``top=1`` takes its cut from the row max instead of a partition."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 9),
        n_src=st.integers(1, 9),
        d=st.integers(1, 4),
        data=st.data(),
    )
    def test_top_one_takes_the_lowest_id_of_a_tied_best(self, seed, n, n_src, d, data):
        """Every target is a basis row that appears at least twice, so each
        score is exact and every row's best score is tied; ``top=1`` picks
        the lowest tied id under every block budget."""
        rng = np.random.default_rng(seed)
        queries = unit_rows(rng, n, d)
        src = unit_rows(rng, n_src, d)
        picks = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=6), label="picks")
        order = data.draw(st.permutations(picks * 2), label="order")
        targets = np.eye(d)[order]
        m = len(order)
        k = data.draw(st.integers(1, min(n_src, m)), label="k")
        budget = data.draw(st.integers(1, max(n * m, m * n_src)), label="budget")
        want_ids, want_scores = _csls_topk(queries, targets, src, k, 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(alignment, "_BLOCK_CELLS", budget)
            ids, scores = _csls_topk(queries, targets, src, k, 1)
            all_ids, all_scores = _csls_topk(queries, targets, src, k, m)
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(scores, want_scores)
        for i in range(n):
            by_id = np.empty(m)
            by_id[all_ids[i]] = all_scores[i]
            tied = np.flatnonzero(by_id == by_id.max())
            assert len(tied) >= 2
            assert ids[i, 0] == tied[0]
            assert scores[i, 0] == by_id.max()


class TestCslsReference:
    """The two-buffer kernel against the previous kernel, bit for bit."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 12),
        n_src=st.integers(1, 9),
        d=st.integers(1, 4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_every_budget_matches_the_reference(self, seed, n, n_src, d, picks, data):
        """Targets repeat rows of a 4-row bank, so their scores tie exactly."""
        rng = np.random.default_rng(seed)
        queries = unit_rows(rng, n, d)
        src = unit_rows(rng, n_src, d)
        targets = unit_rows(rng, 4, d)[picks]
        m = len(picks)
        k = data.draw(st.integers(1, min(n_src, m)), label="k")
        top = data.draw(st.integers(1, m), label="top")
        budget = data.draw(st.integers(1, max(n * m, m * n_src)), label="budget")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(alignment, "_BLOCK_CELLS", budget)
            ids, scores = _csls_topk(queries, targets, src, k, top)
            want_ids, want_scores = oracles.csls_topk_reference(queries, targets, src, k, top)
        assert ids.shape == scores.shape == (n, top)
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(scores, want_scores)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        step=st.integers(2, 5),
        full=st.integers(1, 3),
        width=st.integers(1, 9),
        d=st.integers(1, 4),
        in_rterm=st.booleans(),
        data=st.data(),
    )
    def test_a_joined_remainder_fits_the_buffers(
        self, seed, step, full, width, d, in_rterm, data
    ):
        """The last block of one pass is ``step + 1`` rows: the target r-term
        pass when ``in_rterm``, else the ranking pass."""
        rng = np.random.default_rng(seed)
        long = full * step + 1
        n, n_tgt, n_src = (width, long, width) if in_rterm else (long, width, width)
        picks = data.draw(st.lists(st.integers(0, 3), min_size=n_tgt, max_size=n_tgt))
        queries = unit_rows(rng, n, d)
        src = unit_rows(rng, n_src, d)
        targets = unit_rows(rng, 4, d)[picks]
        k = data.draw(st.integers(1, min(n_src, n_tgt)), label="k")
        top = data.draw(st.integers(1, n_tgt), label="top")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(alignment, "_BLOCK_CELLS", step * width)
            blocks = _row_blocks(long, width)
            ids, scores = _csls_topk(queries, targets, src, k, top)
            want_ids, want_scores = oracles.csls_topk_reference(queries, targets, src, k, top)
        assert blocks[-1].stop - blocks[-1].start == step + 1
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(scores, want_scores)


class TestEvaluateMapReference:
    """``evaluate_map`` shares one target r-term exactly when the sample is
    the whole source; both numbers match two full kernel calls bit for bit."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_src=st.integers(2, 12),
        n_tgt=st.integers(2, 12),
        d=st.integers(1, 4),
        offset=st.integers(-3, 3),
        budget=st.integers(1, 60),
        data=st.data(),
    )
    def test_matches_two_kernel_calls(self, seed, n_src, n_tgt, d, offset, budget, data):
        """``offset`` puts ``sample`` below, at or above ``len(src)``."""
        rng = np.random.default_rng(seed)
        sample = max(1, n_src + offset)
        src = make_emb(tok_list("s", n_src), rng.standard_normal((n_src, d)))
        tgt = make_emb(tok_list("t", n_tgt), rng.standard_normal((n_tgt, d)))
        linear_map = LinearMap(random_orthogonal(rng, d))
        pairs = BilingualDictionary(
            tuple((f"s{i:04d}", f"t{(i * 3) % n_tgt:04d}") for i in range(n_src))
        )
        csls_k = data.draw(st.integers(1, min(sample, n_src, n_tgt)), label="csls_k")
        eval_k = data.draw(st.integers(1, n_tgt + 1), label="eval_k")
        kwargs = {"csls_k": csls_k, "eval_k": eval_k, "sample": sample}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(alignment, "_BLOCK_CELLS", budget)
            got = evaluate_map(linear_map, src, tgt, pairs, **kwargs)
            want = oracles.evaluate_map_reference(linear_map, src, tgt, pairs, **kwargs)
        assert got == want

    def test_a_smaller_sample_keeps_its_own_target_rterm(self):
        """At 18 degrees the sampled row is nearer target A (0 degrees) than
        B (40 degrees).  The unsampled source row lies on A, so an r-term over
        the whole source would penalize A and pick B."""
        def on_circle(degrees):
            a = np.radians(degrees)
            return np.column_stack([np.cos(a), np.sin(a)])

        src = make_emb(tok_list("s", 2), on_circle([18, 0]))
        tgt = make_emb(tok_list("t", 2), on_circle([0, 40]))
        pairs = BilingualDictionary((("s0000", "t0000"),))
        identity = LinearMap(np.eye(2))
        whole_ids, _ = oracles.csls_topk_reference(src.rows[:1], tgt.rows, src.rows, 1, 1)
        assert whole_ids[0, 0] == 1
        got = evaluate_map(identity, src, tgt, pairs, csls_k=1, sample=1)
        assert got == oracles.evaluate_map_reference(identity, src, tgt, pairs, csls_k=1, sample=1)
        np.testing.assert_allclose(got[1], np.cos(np.radians(18)), rtol=0, atol=1e-12)


class TestScaleInvariance:
    """Each scorer normalizes its own inputs, so positive row scales change nothing."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_src=st.integers(3, 12),
        n_tgt=st.integers(3, 12),
        d=st.integers(2, 5),
    )
    def test_positive_row_scales_change_nothing(self, seed, n_src, n_tgt, d):
        rng = np.random.default_rng(seed)
        src = make_emb(tok_list("s", n_src), rng.standard_normal((n_src, d)))
        tgt = make_emb(tok_list("t", n_tgt), rng.standard_normal((n_tgt, d)))
        model = make_emb(tgt.vocab.tokens, rng.standard_normal((n_tgt, 3)))
        linear_map = LinearMap(random_orthogonal(rng, d))
        pairs = BilingualDictionary(
            tuple((f"s{i:04d}", f"t{(i * 5) % n_tgt:04d}") for i in range(n_src))
        )

        def scaled(emb):
            factors = np.exp(rng.uniform(-4.0, 4.0, size=(len(emb), 1)))
            return make_emb(emb.vocab.tokens, emb.rows * factors)

        def scores(s, t):
            return (
                csls_knn(apply_map(linear_map, s), t, top=n_tgt, csls_k=2),
                *evaluate_map(linear_map, s, t, pairs, csls_k=2, eval_k=2),
                build_all_assignments(
                    s.vocab.tokens, s, linear_map, t, model, model.vocab, csls_k=2, top_m=3
                ),
            )

        ranked, precision, score, assigned = scores(src, tgt)
        # the other three rank prefixes of these full-depth lists (same r-term
        # sets), so clear gaps here rule out near ties everywhere
        assume(all(np.min(-np.diff([v for _, v in entries])) > 1e-9 for _, entries in ranked))
        s_ranked, s_precision, s_score, s_assigned = scores(scaled(src), scaled(tgt))
        assert [[t for t, _ in entries] for _, entries in s_ranked] == [
            [t for t, _ in entries] for _, entries in ranked
        ]
        assert s_precision == precision
        assert abs(s_score - score) <= 1e-12
        for (_, a), (_, b) in zip(s_assigned, assigned):
            assert [t for t, _ in a] == [t for t, _ in b]
            np.testing.assert_allclose([w for _, w in a], [w for _, w in b], rtol=0, atol=1e-12)


class TestMappedUnitMemory:
    """The mapped-unit path holds at most about two source-sized arrays."""

    @pytest.mark.parametrize("scorer", ["eval_precision_at_k", "build_all_assignments"])
    def test_peak_within_three_inputs(self, scorer):
        rng = np.random.default_rng(30)
        n, d = 20_000, 64
        src = make_emb(tok_list("s", n), rng.standard_normal((n, d)) * 3.0)
        english = make_emb(tok_list("e", 300), rng.standard_normal((300, d)))
        model = make_emb(english.vocab.tokens, rng.standard_normal((300, 8)))
        linear_map = LinearMap(random_orthogonal(rng, d))
        pairs = BilingualDictionary(tuple((f"s{i:04d}", f"e{i:04d}") for i in range(100)))
        tracemalloc.start()
        try:
            if scorer == "eval_precision_at_k":
                evaluate_map(linear_map, src, english, pairs)
            else:
                build_all_assignments(
                    src.vocab.tokens[:100], src, linear_map, english, model, model.vocab
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * src.rows.nbytes


class TestPrecisionAtK:
    def _planted(self, rng, n=60, d=8):
        rows = unit_rows(rng, n, d)
        q = random_orthogonal(rng, d)
        src = make_emb(tok_list("s", n), rows @ q.T)
        tgt = make_emb(tok_list("t", n), rows)
        pairs = BilingualDictionary(
            tuple(zip(tok_list("s", n), tok_list("t", n)))
        )
        return src, tgt, pairs, q

    def test_planted_rotation_scores_one(self):
        rng = np.random.default_rng(16)
        src, tgt, pairs, q = self._planted(rng)
        p, _ = evaluate_map(LinearMap(q), src, tgt, pairs)
        assert p == 1.0

    def test_random_map_scores_low(self):
        """A random orientation retrieves the right token about 1/n of the time."""
        rng = np.random.default_rng(17)
        src, tgt, pairs, _ = self._planted(rng, n=200)
        wrong = LinearMap(random_orthogonal(rng, 8))
        p, _ = evaluate_map(wrong, src, tgt, pairs)
        assert p < 0.2

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(18)
        rows = unit_rows(rng, 14, 5)
        src = make_emb(tok_list("s", 14), rows)
        tgt_rows = unit_rows(rng, 14, 5)
        tgt = make_emb(tok_list("t", 14), tgt_rows)
        pairs = tuple(zip(tok_list("s", 14), tok_list("t", 14)))
        got, _ = evaluate_map(
            LinearMap(np.eye(5)), src, tgt, BilingualDictionary(pairs), csls_k=3, eval_k=2
        )
        want = oracles.precision_at_k_oracle(
            rows, {f"s{i:04d}": i for i in range(14)}, tgt_rows,
            tok_list("t", 14), pairs, k_eval=2, k_csls=3,
        )
        assert got == want

    def test_any_listed_target_counts(self):
        """A multi-target source scores a hit when any target is retrieved."""
        rng = np.random.default_rng(19)
        rows = unit_rows(rng, 10, 6)
        src = make_emb(["w"], rows[:1])
        tgt = make_emb(tok_list("t", 10), rows)
        pairs = BilingualDictionary((("w", "t0009"), ("w", "t0000")))
        p, _ = evaluate_map(
            LinearMap(np.eye(6)), src, tgt, pairs, csls_k=1
        )
        assert p == 1.0

    def test_missing_entries_skipped(self):
        rng = np.random.default_rng(20)
        rows = unit_rows(rng, 5, 4)
        src = make_emb(tok_list("s", 5), rows)
        tgt = make_emb(tok_list("t", 5), rows)
        pairs = BilingualDictionary(
            (("s0000", "t0000"), ("ghost", "t0001"), ("s0002", "absent"))
        )
        p, _ = evaluate_map(
            LinearMap(np.eye(4)), src, tgt, pairs, csls_k=2
        )
        assert p == 1.0  # only s0000 evaluated

    def test_empty_eval_dict(self):
        rng = np.random.default_rng(21)
        rows = unit_rows(rng, 4, 3)
        src = make_emb(tok_list("s", 4), rows)
        tgt = make_emb(tok_list("t", 4), rows)
        with pytest.raises(EmptyEvalDict):
            evaluate_map(
                LinearMap(np.eye(3)), src, tgt,
                BilingualDictionary((("ghost", "t0000"),)), csls_k=2,
            )

    def test_invariant_under_target_space_rotation(self):
        """Rotating the target space and the map together changes nothing."""
        rng = np.random.default_rng(22)
        src, tgt, pairs, q = self._planted(rng, n=30)
        base, _ = evaluate_map(LinearMap(q), src, tgt, pairs, csls_k=5)
        for seed in range(3):
            r = random_orthogonal(np.random.default_rng(300 + seed), 8)
            tgt_r = make_emb(tgt.vocab.tokens, tgt.rows @ r)
            rotated, _ = evaluate_map(LinearMap(q @ r), src, tgt_r, pairs, csls_k=5)
            assert rotated == base


class TestUnsupervisedScore:
    """The second number of ``evaluate_map``; the dictionary does not enter it."""

    @staticmethod
    def _pairs(n):
        return BilingualDictionary(tuple(zip(tok_list("s", n), tok_list("t", n))))

    def test_perfect_alignment_scores_one(self):
        rng = np.random.default_rng(23)
        rows = unit_rows(rng, 40, 6)
        q = random_orthogonal(rng, 6)
        src = make_emb(tok_list("s", 40), rows @ q.T)
        tgt = make_emb(tok_list("t", 40), rows)
        _, s = evaluate_map(LinearMap(q), src, tgt, self._pairs(40), csls_k=5)
        np.testing.assert_allclose(s, 1.0, atol=1e-9)

    def test_orthogonal_spans_score_zero(self):
        """Sources confined to axes the targets never touch: cosine is zero."""
        src_rows = np.zeros((4, 6))
        src_rows[:, :3] = unit_rows(np.random.default_rng(24), 4, 3)
        tgt_rows = np.zeros((4, 6))
        tgt_rows[:, 3:] = unit_rows(np.random.default_rng(25), 4, 3)
        src = make_emb(tok_list("s", 4), src_rows)
        tgt = make_emb(tok_list("t", 4), tgt_rows)
        _, s = evaluate_map(LinearMap(np.eye(6)), src, tgt, self._pairs(4), csls_k=2)
        assert abs(s) <= 1e-12

    def test_sample_limits_queries(self):
        rng = np.random.default_rng(26)
        rows = unit_rows(rng, 30, 5)
        src = make_emb(tok_list("s", 30), rows)
        tgt = make_emb(tok_list("t", 30), unit_rows(rng, 30, 5))
        _, full = evaluate_map(
            LinearMap(np.eye(5)), src, tgt, self._pairs(30), sample=3, csls_k=3
        )
        # oracle over the first three rows only
        sample_rows = rows[:3]
        scores = oracles.csls_all_pairs(sample_rows, tgt.rows, 3)
        want = np.mean(
            [
                float(sample_rows[i] @ tgt.rows[oracles.top_ids(scores[i], 1)[0]])
                for i in range(3)
            ]
        )
        np.testing.assert_allclose(full, want, atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(27)
        rows = unit_rows(rng, 20, 7)
        q = random_orthogonal(rng, 7)
        src = make_emb(tok_list("s", 20), rows @ q.T)
        tgt = make_emb(tok_list("t", 20), unit_rows(rng, 20, 7))
        _, got = evaluate_map(LinearMap(q), src, tgt, self._pairs(20), csls_k=4)
        mapped = rows  # src rows mapped by q
        scores = oracles.csls_all_pairs(mapped, tgt.rows, 4)
        want = np.mean(
            [
                float(mapped[i] @ tgt.rows[oracles.top_ids(scores[i], 1)[0]])
                for i in range(20)
            ]
        )
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestFitIndependent:
    def test_recovers_planted_map_on_shared_tokens(self):
        rng = np.random.default_rng(28)
        q = random_orthogonal(rng, 8)
        shared = tok_list("sh", 30)
        extra_src = tok_list("xs", 5)
        extra_tgt = tok_list("xt", 7)
        shared_rows = unit_rows(rng, 30, 8)
        src = make_emb(
            shared + extra_src,
            np.vstack([shared_rows, unit_rows(rng, 5, 8)]),
        )
        model = make_emb(
            extra_tgt + shared,
            np.vstack([unit_rows(rng, 7, 8), shared_rows @ q]),
        )
        fit = fit_independent_mapping(src, model)
        assert fit.pair_count == 30
        assert np.linalg.norm(fit.map.matrix - q) <= 1e-8
        assert fit.mean_residual <= 1e-9

    def test_empty_intersection(self):
        rng = np.random.default_rng(29)
        a = make_emb(["a"], unit_rows(rng, 1, 4))
        b = make_emb(["b"], unit_rows(rng, 1, 4))
        with pytest.raises(EmptyIntersection):
            fit_independent_mapping(a, b)

    def test_low_rank_warning(self):
        """One shared token in 4 dimensions still fits, but warns."""
        rng = np.random.default_rng(30)
        row = unit_rows(rng, 1, 4)
        src = make_emb(["w"], row)
        model = make_emb(["w"], row)
        with pytest.warns(LowRankWarning):
            fit = fit_independent_mapping(src, model)
        assert fit.pair_count == 1


class TestFitJoint:
    def test_recovers_planted_chain(self):
        rng = np.random.default_rng(31)
        chain = planted_chain(rng, n=80, d_src=16, d_model=24)
        to_english, to_model = fit_joint_mapping(
            chain.src, chain.english, chain.model, chain.dictionary, chain.model.vocab
        )
        assert np.linalg.norm(to_english.map.matrix - chain.q1) <= 1e-8
        assert np.linalg.norm(to_model.map.matrix - chain.q2) <= 1e-8
        assert to_english.pair_count == 80 and to_model.pair_count == 80
        assert to_english.mean_residual <= 1e-9 and to_model.mean_residual <= 1e-9

    def test_end_to_end_precision(self):
        rng = np.random.default_rng(32)
        chain = planted_chain(rng, n=60, d_src=12, d_model=20)
        to_english, to_model = fit_joint_mapping(
            chain.src, chain.english, chain.model, chain.dictionary, chain.model.vocab
        )
        composed = LinearMap(to_english.map.matrix @ to_model.map.matrix)
        p, _ = evaluate_map(
            composed, chain.src, chain.model, chain.dictionary
        )
        assert p == 1.0

    def test_multi_target_source_uses_all_pairs(self):
        """One source, two targets, both model tokens: stage 2 sees 2 pairs."""
        rng = np.random.default_rng(33)
        w = unit_rows(rng, 1, 3)
        t_rows = unit_rows(rng, 2, 3)
        src = make_emb(["w"], w)
        english = make_emb(["t1", "t2"], t_rows)
        model = make_emb(["t1", "t2"], t_rows)
        pairs = BilingualDictionary((("w", "t1"), ("w", "t2")))
        with pytest.warns(LowRankWarning):
            to_english, to_model = fit_joint_mapping(src, english, model, pairs, model.vocab)
        assert to_english.pair_count == 2
        assert to_model.pair_count == 2

    def test_empty_stage1(self):
        rng = np.random.default_rng(34)
        src = make_emb(["w"], unit_rows(rng, 1, 3))
        english = make_emb(["e"], unit_rows(rng, 1, 3))
        model = make_emb(["m"], unit_rows(rng, 1, 3))
        with pytest.raises(EmptyStage1Dict):
            fit_joint_mapping(
                src, english, model, BilingualDictionary((("w", "nowhere"),)), model.vocab
            )

    def test_empty_stage2(self):
        rng = np.random.default_rng(35)
        src = make_emb(["w"], unit_rows(rng, 1, 3))
        english = make_emb(["e"], unit_rows(rng, 1, 3))
        model = make_emb(["m"], unit_rows(rng, 1, 3))
        with pytest.warns(LowRankWarning):
            with pytest.raises(EmptyStage2Anchors):
                fit_joint_mapping(
                    src, english, model, BilingualDictionary((("w", "e"),)), model.vocab
                )

    def test_model_vocab_restriction(self):
        """An explicit model vocabulary can veto stage-2 anchors."""
        rng = np.random.default_rng(36)
        chain = planted_chain(rng, n=10, d_src=4, d_model=6)
        restricted = make_emb(["onlythis"], unit_rows(rng, 1, 6))
        with pytest.raises(EmptyStage2Anchors):
            fit_joint_mapping(
                chain.src, chain.english, chain.model, chain.dictionary,
                model_vocab=restricted.vocab,
            )


class TestMapFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(37)
        for shape in [(4, 4), (3, 6), (6, 3)]:
            m = LinearMap(random_semi_orthogonal(rng, *shape))
            path = tmp_path / f"map_{shape[0]}x{shape[1]}.map"
            save_map(m, path)
            first = path.read_text(encoding="utf-8").splitlines()[0]
            assert first == f"{shape[0]} {shape[1]}"
            back = load_map(path)
            np.testing.assert_allclose(back.matrix, m.matrix, atol=1e-8)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text("3\n1 0 0\n", encoding="utf-8")
        with pytest.raises(MalformedHeader):
            load_map(path)
