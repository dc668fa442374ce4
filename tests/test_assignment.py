import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artikit import assignment
from artikit.assignment import (
    MatchResult,
    QuerySet,
    compute_mask_logits,
    confidence_targets,
    filter_queries,
    hungarian,
    load_masks,
    matching_cost,
    residual_update,
    save_masks,
)
from artikit.errors import ParseError
from tests.conftest import criterion3_matrices
from tests.oracles import brute_force_assignment, hungarian_reference, matching_cost_fsum


def make_queries(n=4, d=3, c=5, seed=0):
    rng = np.random.default_rng(seed)
    return QuerySet(
        positions=rng.normal(size=(n, 3)),
        contents=rng.normal(size=(n, d)),
        confidences=rng.random(n),
        part_logits=rng.normal(size=(n, c)),
    )


class TestMaskLogits:
    def test_zero_content_gives_half_soft(self):
        masks = compute_mask_logits(np.zeros((1, 4)), np.ones((6, 4)))
        np.testing.assert_array_equal(masks.logits, np.zeros((1, 6)))
        np.testing.assert_allclose(masks.soft, np.full((1, 6), 0.5))

    def test_orthonormal_features_pick_one_point(self):
        feats = np.eye(3)
        masks = compute_mask_logits(feats[0][None], feats)
        np.testing.assert_allclose(masks.logits, [[1.0, 0.0, 0.0]])

    def test_logits_scale_linearly(self):
        rng = np.random.default_rng(2)
        contents = rng.normal(size=(2, 5))
        feats = rng.normal(size=(7, 5))
        base = compute_mask_logits(contents, feats).logits
        scaled = compute_mask_logits(3.0 * contents, feats).logits
        np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-12)

    def test_hard_mask_invariant_to_orthogonal_shift(self):
        # features span the first two coordinates; the shift lives in the third
        feats = np.array([[1.0, 0, 0], [0, 1.0, 0], [0.5, 0.5, 0]])
        contents = np.array([[0.3, -0.2, 0.0], [1.0, 2.0, 0.0]])
        shift = np.array([0.0, 0.0, 5.0])
        before = compute_mask_logits(contents, feats)
        after = compute_mask_logits(contents + shift, feats)
        np.testing.assert_array_equal(before.hard, after.hard)
        np.testing.assert_allclose(before.logits, after.logits, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            compute_mask_logits(np.zeros((1, 4)), np.zeros((5, 3)))


class TestMatchingCost:
    def test_identical_hard_masks_near_zero(self):
        gt = np.zeros((1, 10))
        gt[0, :5] = 1.0
        pred = np.clip(gt, 1e-7, 1 - 1e-7)
        cost = matching_cost(pred, gt)
        assert cost[0, 0] <= 1e-5

    def test_half_mask_closed_form(self):
        pred = np.full((1, 4), 0.5)
        gt = np.array([[1.0, 1.0, 0.0, 0.0]])
        cost = matching_cost(pred, gt)
        expected = math.log(2.0) + (1.0 - 2.0 * 1.0 / (2.0 + 2.0 + 1e-6))
        assert cost[0, 0] == pytest.approx(expected, abs=1e-9)
        assert cost[0, 0] == pytest.approx(1.1931, abs=1e-3)

    def test_empty_gt_dice_is_one(self):
        pred = np.full((1, 6), 1e-7)
        gt = np.zeros((1, 6))
        cost = matching_cost(pred, gt, w_bce=0.0, w_dice=1.0)
        assert cost[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_point_permutation_symmetry(self):
        rng = np.random.default_rng(4)
        pred = rng.random((3, 20))
        gt = (rng.random((2, 20)) > 0.5).astype(float)
        perm = rng.permutation(20)
        base = matching_cost(pred, gt)
        permuted = matching_cost(pred[:, perm], gt[:, perm])
        np.testing.assert_allclose(base, permuted, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            matching_cost(np.zeros((1, 4)), np.zeros((1, 5)))

    @pytest.mark.parametrize("kind", ["f64", "f32", "bool"])
    def test_close_to_fsum_oracle(self, kind):
        """Every entry within 1e-12 of an exactly summed oracle, with overlapping
        and empty GT rows, and both weight sets."""
        rng = np.random.default_rng(11)
        gt = rng.random((12, 5000)) < 0.3
        gt[[0, 5, 11]] = False  # empty rows first, inside and last
        pred = rng.random((16, 5000))
        pred[:, :20] = 0.0  # clamped from below and above
        pred[:, 20:40] = 1.0
        pred = {"f64": pred, "f32": pred.astype(np.float32), "bool": pred < 0.4}[kind]
        before = pred.copy()
        for gt_in, weights in ((gt, {}), (gt.astype(np.float64), {"w_bce": 0.7, "w_dice": 1.3})):
            cost = matching_cost(pred, gt_in, **weights)
            want = matching_cost_fsum(pred, gt_in, **weights)
            np.testing.assert_allclose(cost, want, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(pred, before)  # the caller's array is not clipped

    @pytest.mark.parametrize("m", [2000, 2001])
    def test_twin_query_rows_get_identical_cost_rows(self, m):
        """Twins in opposite halves of the query list, GT as disjoint labels
        with 10% of the bits flipped."""
        rng = np.random.default_rng(0)
        gt = rng.integers(0, 10, m) == np.arange(10)[:, None]
        distinct = gt[:5] ^ (rng.random((5, m)) < 0.1)
        cost = matching_cost(np.concatenate([distinct, distinct]), gt)
        assert cost[:5].tobytes() == cost[5:].tobytes()

    def test_each_row_is_computed_on_its_own(self):
        """A row's bytes do not depend on the rows around it."""
        rng = np.random.default_rng(12)
        gt = rng.random((6, 3001)) < 0.4
        gt[2] = False
        pred = rng.random((9, 3001)).astype(np.float32)
        cost = matching_cost(pred, gt, w_bce=0.5, w_dice=2.0)
        for i in range(len(pred)):
            alone = matching_cost(pred[i : i + 1], gt, w_bce=0.5, w_dice=2.0)
            assert alone.tobytes() == cost[i : i + 1].tobytes()

    def test_working_set_is_a_few_rows(self):
        """No (N, M) or (K, M) float64 array: the peak traced allocation of a
        call stays below eight float64 rows of M points."""
        rng = np.random.default_rng(13)
        m = 20000
        gt = rng.integers(0, 24, m) == np.arange(24)[:, None]
        pred = rng.random((40, m), dtype=np.float32)
        tracemalloc.start()
        try:
            matching_cost(pred, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * 8, peak


class TestHungarian:
    def test_two_by_two_example(self):
        result = hungarian(np.array([[1.0, 2.0], [3.0, 0.0]]))
        assert result.pairs == ((0, 0), (1, 1))
        assert result.total_cost == pytest.approx(1.0)

    def test_zero_diagonal_identity(self):
        cost = np.full((4, 4), 50.0)
        np.fill_diagonal(cost, 0.0)
        result = hungarian(cost)
        assert result.pairs == tuple((i, i) for i in range(4))

    def test_rectangular_sizes(self):
        result = hungarian(np.random.default_rng(1).random((3, 2)))
        assert len(result.pairs) == 2
        assert len(result.unmatched_queries) == 1

    def test_empty(self):
        result = hungarian(np.zeros((0, 3)))
        assert result.pairs == () and result.total_cost == 0.0
        result = hungarian(np.zeros((2, 0)))
        assert result.unmatched_queries == (0, 1)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(99)
        for _ in range(150):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, 7))
            cost = rng.random((n, k))
            got = hungarian(cost)
            total, pairs = brute_force_assignment(cost)
            assert abs(got.total_cost - total) <= 1e-12
            assert list(got.pairs) == pairs

    def test_lexicographic_ties_all_equal(self):
        result = hungarian(np.ones((3, 3)))
        assert result.pairs == ((0, 0), (1, 1), (2, 2))

    def test_lexicographic_ties_constructed(self):
        # two optimal assignments; the lex rule prefers (0,0),(1,1)
        cost = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert hungarian(cost).pairs == ((0, 0), (1, 1))
        total, pairs = brute_force_assignment(cost)
        assert list(hungarian(cost).pairs) == pairs

    def test_lexicographic_prefers_matching_early_queries(self):
        # rows 0 and 1 are identical; matching row 0 is lex-smaller
        cost = np.array([[2.0], [2.0], [5.0]])
        result = hungarian(cost)
        assert result.pairs == ((0, 0),)
        assert result.unmatched_queries == (1, 2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian(np.array([[np.inf]]))

    def test_optimal_total_on_larger_matrices(self):
        # beyond brute-force reach, the total must still equal the LAP optimum
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(123)
        for shape in [(30, 8), (8, 30), (25, 25), (40, 3)]:
            cost = rng.random(shape)
            got = hungarian(cost)
            rows, cols = linear_sum_assignment(cost)
            assert got.total_cost == pytest.approx(float(cost[rows, cols].sum()), abs=1e-9)
            assert len(got.pairs) == min(shape)


def _cost(kind, shape, seed=41):
    """Fixed-seed cost matrices: continuous, twin rows, or integers in [0, 2) or [0, 5)."""
    rng = np.random.default_rng(seed)
    n, k = shape
    if kind == "continuous":
        return rng.random(shape)
    if kind == "twin":
        return np.repeat(rng.random(((n + 1) // 2, k)), 2, axis=0)[:n]
    return rng.integers(0, {"int2": 2, "int5": 5}[kind], shape).astype(np.float64)


SHAPES = [(100, 100), (60, 100), (100, 60)]
SHAPE_IDS = ["100x100", "60x100", "100x60"]


class TestHungarianEqualsReference:
    """The pruned ``hungarian`` gives the one-solve-per-candidate result exactly."""

    @staticmethod
    def assert_same(cost):
        got = hungarian(cost)
        assert (got.pairs, got.unmatched_queries, got.total_cost) == hungarian_reference(cost)

    def test_criterion3_corpus(self):
        for _, cost in criterion3_matrices():
            self.assert_same(cost)

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("kind", ["int2", "int5", "twin"])
    def test_tie_heavy(self, kind, shape):
        self.assert_same(_cost(kind, shape))

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_small_ties(self, data):
        n = data.draw(st.integers(1, 10), label="n")
        k = data.draw(st.integers(1, 10), label="k")
        values = data.draw(st.lists(st.integers(-3, 3), min_size=n * k, max_size=n * k))
        # with the 1e300 step, min(N, K) * max|cost| reaches 1e300 (unless
        # every value is 0), beyond which every candidate is solved
        step = data.draw(st.sampled_from([1.0, 0.1, 1e300]), label="step")
        self.assert_same(np.array(values, dtype=np.float64).reshape(n, k) * step)


class TestHungarianSolveCount:
    """Without exact ties, a row costs about two LSA solves, not one per free column."""

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("kind", ["continuous", "twin"])
    def test_at_most_three_solves_per_row(self, monkeypatch, kind, shape):
        solves = []
        solve = assignment.linear_sum_assignment

        def counting(matrix):
            solves.append(matrix.shape)
            return solve(matrix)

        monkeypatch.setattr(assignment, "linear_sum_assignment", counting)
        hungarian(_cost(kind, shape))
        assert len(solves) <= 3 * shape[0]


class TestConfidenceTargets:
    def test_identical_and_disjoint(self):
        a = np.array([[1, 1, 0, 0]], dtype=bool)
        b = np.array([[0, 0, 1, 1]], dtype=bool)
        match = MatchResult(pairs=((0, 0),), unmatched_queries=(), total_cost=0.0)
        assert confidence_targets(a, a, match)[0] == 1.0
        assert confidence_targets(a, b, match)[0] == 0.0

    def test_partial_overlap_third(self):
        pred = np.zeros((1, 8), dtype=bool)
        pred[0, 1:5] = True  # points 1..4
        gt = np.zeros((1, 8), dtype=bool)
        gt[0, 3:7] = True  # points 3..6
        match = MatchResult(pairs=((0, 0),), unmatched_queries=(), total_cost=0.0)
        assert confidence_targets(pred, gt, match)[0] == pytest.approx(1 / 3)

    def test_unmatched_queries_zero(self):
        pred = np.ones((3, 4), dtype=bool)
        gt = np.ones((1, 4), dtype=bool)
        match = MatchResult(pairs=((1, 0),), unmatched_queries=(0, 2), total_cost=0.0)
        targets = confidence_targets(pred, gt, match)
        assert targets[0] == 0.0 and targets[2] == 0.0 and targets[1] == 1.0

    def test_range_and_identity_property(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pred = rng.random((4, 12)) > 0.5
            gt = rng.random((3, 12)) > 0.5
            match = hungarian(matching_cost(
                np.clip(pred.astype(float), 1e-7, 1 - 1e-7), gt.astype(float)))
            targets = confidence_targets(pred, gt, match)
            assert (targets >= 0).all() and (targets <= 1).all()
            for q, g in match.pairs:
                if targets[q] == 1.0:
                    assert np.array_equal(pred[q], gt[g])


class TestQueryOps:
    def test_residual_zero_identity(self):
        q = make_queries()
        out = residual_update(q, np.zeros((4, 3)), np.zeros((4, 3)))
        np.testing.assert_array_equal(out.positions, q.positions)
        np.testing.assert_array_equal(out.contents, q.contents)

    def test_sequential_updates_sum(self):
        q = make_queries(seed=3)
        rng = np.random.default_rng(9)
        d1p, d2p = rng.normal(size=(2, 4, 3))
        d1c, d2c = rng.normal(size=(2, 4, 3))
        stepwise = residual_update(residual_update(q, d1p, d1c), d2p, d2c)
        summed = residual_update(q, d1p + d2p, d1c + d2c)
        np.testing.assert_allclose(stepwise.positions, summed.positions, atol=1e-12)
        np.testing.assert_allclose(stepwise.contents, summed.contents, atol=1e-12)

    def test_negative_positions_cancel(self):
        q = make_queries(seed=4)
        out = residual_update(q, -q.positions, np.zeros_like(q.contents))
        np.testing.assert_array_equal(out.positions, np.zeros((4, 3)))

    def test_filter_strict_below(self):
        q = QuerySet(
            positions=np.zeros((3, 3)),
            contents=np.zeros((3, 2)),
            confidences=np.array([0.9, 0.4, 0.5]),
            part_logits=np.zeros((3, 2)),
        )
        kept = filter_queries(q, 0.5)
        np.testing.assert_array_equal(kept.confidences, [0.9, 0.5])

    def test_filter_zero_threshold_identity(self):
        q = make_queries(seed=5)
        kept = filter_queries(q, 0.0)
        assert len(kept) == len(q)

    def test_filter_can_empty(self):
        q = make_queries(seed=6)
        kept = filter_queries(q, 1.0)
        assert len(kept) <= len(q)
        again = filter_queries(kept, 1.0)
        assert len(again) == len(kept)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=25)
    def test_filter_idempotent(self, threshold):
        q = make_queries(seed=7)
        once = filter_queries(q, threshold)
        twice = filter_queries(once, threshold)
        np.testing.assert_array_equal(once.confidences, twice.confidences)
        np.testing.assert_array_equal(once.positions, twice.positions)

    def test_confidence_range_enforced(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            QuerySet(
                positions=np.zeros((1, 3)),
                contents=np.zeros((1, 2)),
                confidences=np.array([1.5]),
                part_logits=np.zeros((1, 2)),
            )


class TestMaskInterchange:
    def test_hard_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        masks = rng.random((5, 37)) > 0.4
        path = tmp_path / "m.bits"
        save_masks(masks, path)
        got, soft = load_masks(path)
        assert not soft
        np.testing.assert_array_equal(got, masks)

    def test_soft_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        masks = rng.random((4, 9)).astype(np.float32).astype(np.float64)
        path = tmp_path / "m.f32"
        save_masks(masks, path)
        got, soft = load_masks(path)
        assert soft
        np.testing.assert_array_equal(got, masks)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.bits"
        save_masks(np.ones((2, 9), dtype=bool), path)
        (tmp_path / "m.bits.json").write_text('{"rows": 3, "M": 9}')
        with pytest.raises(ParseError, match="neither"):
            load_masks(path)
