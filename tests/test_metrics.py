import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import artikit.geometry
import artikit.metrics
from artikit.assignment import MatchResult
from artikit.geometry import nearest_neighbor_distances
from artikit.kinematics import rotation_about_axis
from artikit.metrics import (
    _cd_fscore,
    axis_error,
    chamfer,
    evaluate,
    fscore,
    pivot_error,
    type_accuracy,
)
from artikit.model import ArticulatedModel, JointType, KinematicTree, TriMesh, ROOT_ID
from tests.conftest import build_cabinet, build_random_model

TRIANGLE = TriMesh([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]], [[0, 1, 2]])


class TestChamfer:
    def test_identical_zero(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(64, 3))
        assert chamfer(pts, pts) == 0.0

    def test_single_point_closed_form(self):
        assert chamfer([[0, 0, 0]], [[0.1, 0, 0]]) == pytest.approx(0.02, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(25, 3))
        assert chamfer(a, b) == pytest.approx(chamfer(b, a), abs=1e-15)

    def test_rigid_rotation_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(30, 3))
        b = rng.normal(size=(30, 3))
        rot = rotation_about_axis(np.array([1.0, 2.0, 2.0]) / 3.0, 0.83)
        assert chamfer(a @ rot.T, b @ rot.T) == pytest.approx(chamfer(a, b), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chamfer(np.zeros((0, 3)), np.zeros((1, 3)))


class TestBothDirectionsAtOnce:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_second_direction_on_a_helper_thread_above_a_budget_of_one(
        self, monkeypatch, threads
    ):
        rng = np.random.default_rng(8)
        a = rng.uniform(-0.5, 0.5, size=(3000, 3))
        b = np.concatenate([a[:1000] + 1e-3, rng.uniform(-0.5, 0.5, size=(1500, 3))])
        monkeypatch.setattr(artikit, "_thread_budget", lambda: 1)
        serial = _cd_fscore(a, b, 0.01)

        callers = {}  # query size -> thread that ran the query
        nn = artikit.metrics.nearest_neighbor_distances

        def recording(src, dst):
            callers[len(src)] = threading.get_ident()
            return nn(src, dst)

        starts = []
        start = threading.Thread.start

        def counting(thread):
            starts.append(thread)
            start(thread)

        monkeypatch.setattr(artikit.metrics, "nearest_neighbor_distances", recording)
        monkeypatch.setattr(threading.Thread, "start", counting)
        monkeypatch.setattr(artikit, "_thread_budget", lambda: threads)
        assert _cd_fscore(a, b, 0.01) == serial
        assert callers[len(a)] == threading.get_ident()
        assert (callers[len(b)] != threading.get_ident()) == (threads > 1)
        if threads == 1:
            assert starts == []  # neither a helper nor SciPy query workers


def _full_query_reference(a, b, tau):
    """(CD, F-score) with every point of both clouds queried."""
    d_ab = nearest_neighbor_distances(a, b)
    d_ba = nearest_neighbor_distances(b, a)
    precision = float(np.mean(d_ab < tau))
    recall = float(np.mean(d_ba < tau))
    f = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return float(np.mean(d_ab**2) + np.mean(d_ba**2)), f


def _no_kdtree(points):
    raise AssertionError("a KD-tree was built")


class TestTwinsAreNotQueried:
    @given(n=st.integers(1, 40), shared=st.sampled_from(["none", "some", "all"]),
           flip_zero_signs=st.booleans(), extra=st.integers(0, 3),
           tau=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_equals_the_full_query(self, n, shared, flip_zero_signs, extra, tau, seed):
        rng = np.random.default_rng(seed)
        # a coarse grid, so zeros, equal rows and tied neighbours are common
        a = rng.integers(-3, 4, size=(n, 3)) * 0.25
        b = rng.integers(-3, 4, size=(n, 3)) * 0.25
        keep = {"none": np.zeros(n, bool), "some": rng.random(n) < 0.5,
                "all": np.ones(n, bool)}[shared]
        b[keep] = a[keep]
        if flip_zero_signs:
            b[b == 0.0] = -0.0
        b = np.concatenate([b, rng.integers(-3, 4, size=(extra, 3)) * 0.25])
        assert _cd_fscore(a, b, tau) == _full_query_reference(a, b, tau)
        assert _cd_fscore(b, a, tau) == _full_query_reference(b, a, tau)

    def test_non_finite_twins_are_still_rejected(self):
        a = np.array([[np.inf, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            chamfer(a, a.copy())

    def test_self_chamfer_builds_no_kdtree(self, monkeypatch):
        pts = np.random.default_rng(9).normal(size=(500, 3))
        monkeypatch.setattr(artikit.geometry, "cKDTree", _no_kdtree)
        assert chamfer(pts, pts) == 0.0
        assert fscore(pts, pts.copy()) == 1.0

    def test_self_evaluate_builds_no_kdtree(self, monkeypatch):
        model = build_cabinet()
        monkeypatch.setattr(artikit.geometry, "cKDTree", _no_kdtree)
        report = evaluate(model, model)
        assert report.cd_mean == 0.0 and report.fscore_mean == 1.0


class TestFscore:
    def test_identical_is_one(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 3))
        assert fscore(pts, pts) == 1.0

    def test_threshold_excludes(self):
        assert fscore([[0, 0, 0]], [[0.06, 0, 0]], tau=0.05) == 0.0
        assert fscore([[0, 0, 0]], [[0.04, 0, 0]], tau=0.05) == 1.0

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-0.5, 0.5, size=(60, 3))
        b = rng.uniform(-0.5, 0.5, size=(60, 3))
        values = [fscore(a, b, tau) for tau in (0.01, 0.05, 0.1, 0.3, 1.0)]
        assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


class TestAxisError:
    def test_orthogonal(self):
        assert axis_error([1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2)

    def test_sign_invariant(self):
        assert axis_error([1, 0, 0], [-1, 0, 0]) == pytest.approx(0.0, abs=1e-9)

    def test_planar_rotation_angle(self):
        a = [math.cos(0.3), math.sin(0.3), 0.0]
        assert axis_error(a, [1, 0, 0]) == pytest.approx(0.3, abs=1e-9)

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            e = axis_error(u, v)
            assert 0.0 <= e <= math.pi / 2 + 1e-12
            assert e == pytest.approx(axis_error(v, u), abs=1e-12)
            assert e == pytest.approx(axis_error(3.7 * u, -0.2 * v), abs=1e-9)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            axis_error([0, 0, 0], [1, 0, 0])


class TestPivotError:
    def test_same_origin_zero(self):
        assert pivot_error([0.3, 0.1, 0], [1, 0, 0], [0.3, 0.1, 0], [0, 1, 0]) == 0.0

    def test_common_perpendicular(self):
        assert pivot_error([0, 0, 1], [1, 0, 0], [0, 0, 0], [0, 1, 0]) == pytest.approx(1.0)

    def test_parallel_fallback_point_to_line(self):
        assert pivot_error([0.2, 0, 5], [0, 0, 1], [0, 0, 0], [0, 0, 1]) == pytest.approx(0.2)

    def test_translation_along_axes_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            ap = rng.normal(size=3)
            ag = rng.normal(size=3)
            op = rng.normal(size=3)
            og = rng.normal(size=3)
            base = pivot_error(op, ap, og, ag)
            slid = pivot_error(op + 1.7 * ap, ap, og - 0.9 * ag, ag)
            assert slid == pytest.approx(base, abs=1e-9)

    def test_parallel_fallback_translation_invariant(self):
        base = pivot_error([0.2, 0.1, 5.0], [0, 0, 1], [0, 0, -2], [0, 0, 1])
        slid = pivot_error([0.2, 0.1, -3.0], [0, 0, 1], [0, 0, 11], [0, 0, 1])
        assert base == pytest.approx(slid, abs=1e-12)
        assert base == pytest.approx(math.hypot(0.2, 0.1), abs=1e-12)


class TestTypeAccuracy:
    def test_all_equal(self):
        match = MatchResult(pairs=((0, 0), (1, 1)), unmatched_queries=(), total_cost=0.0)
        types = [JointType.FIXED, JointType.REVOLUTE]
        assert type_accuracy(match, types, types) == 1.0

    def test_two_of_three(self):
        match = MatchResult(pairs=((0, 0), (1, 1), (2, 2)), unmatched_queries=(), total_cost=0.0)
        pred = [JointType.FIXED, JointType.REVOLUTE, JointType.PRISMATIC]
        gt = [JointType.FIXED, JointType.REVOLUTE, JointType.CONTINUOUS]
        assert type_accuracy(match, pred, gt) == pytest.approx(2 / 3)

    def test_no_matches_undefined(self):
        match = MatchResult(pairs=(), unmatched_queries=(0,), total_cost=0.0)
        assert type_accuracy(match, [JointType.FIXED], []) is None

    @pytest.mark.parametrize("pair", [(0, 5), (-1, 0)], ids=["gt-beyond", "pred-negative"])
    def test_pair_outside_the_type_lists_rejected(self, pair):
        match = MatchResult(pairs=(pair,), unmatched_queries=(), total_cost=0.0)
        types = [JointType.FIXED, JointType.REVOLUTE]
        with pytest.raises(ValueError, match=rf"match pair \({pair[0]}, {pair[1]}\) outside"):
            type_accuracy(match, types, [JointType.REVOLUTE])


class TestEvaluate:
    def test_self_evaluation_identities(self, cabinet):
        report = evaluate(cabinet, cabinet, n_states=6, n_points=100, seed=0)
        assert report.cd_mean < 1e-9
        assert report.fscore_mean == 1.0
        assert report.type_accuracy == 1.0
        assert all(e < 1e-9 for e in report.axis_errors)
        assert all(e < 1e-9 for e in report.pivot_errors)
        assert len(report.per_state) == 6

    def test_self_evaluation_random_models(self):
        rng = np.random.default_rng(17)
        for trial in range(3):
            model = build_random_model(rng, n_parts=2 + trial % 2)
            report = evaluate(model, model, n_states=4, n_points=100, seed=trial)
            assert report.cd_mean < 1e-9
            assert report.fscore_mean == 1.0
            assert report.type_accuracy == 1.0

    def test_axis_perturbation_fixture(self):
        gt = build_cabinet()
        delta = 0.1
        pred = build_cabinet(door_axis=(math.sin(delta), 0.0, math.cos(delta)))
        report = evaluate(pred, gt, n_states=6, n_points=100, seed=0)
        assert report.axis_err_mean == pytest.approx(0.1, abs=1e-6)
        assert report.type_accuracy == 1.0

    def test_pivot_offset_fixture(self):
        gt = build_cabinet()
        pred = build_cabinet(door_pivot=(0.25, -0.2, 0.0))
        report = evaluate(pred, gt, n_states=6, n_points=100, seed=0)
        assert report.pivot_err_mean == pytest.approx(0.05, abs=1e-6)

    def test_means_are_arithmetic_means(self, cabinet):
        pred = build_cabinet(door_axis=(math.sin(0.2), 0.0, math.cos(0.2)))
        report = evaluate(pred, cabinet, n_states=5, n_points=80, seed=3)
        assert report.cd_mean == pytest.approx(
            sum(s["cd"] for s in report.per_state) / 5, abs=1e-12
        )
        assert report.fscore_mean == pytest.approx(
            sum(s["fscore"] for s in report.per_state) / 5, abs=1e-12
        )
        if report.axis_errors:
            assert report.axis_err_mean == pytest.approx(
                sum(report.axis_errors) / len(report.axis_errors), abs=1e-12
            )

    def test_mesh_inputs_sampled_by_area(self, cabinet):
        quad = lambda lo, hi, z: TriMesh(
            [[lo, lo, z], [hi, lo, z], [hi, hi, z], [lo, hi, z]], [[0, 1, 2], [0, 2, 3]]
        )
        meshes = {0: quad(-0.45, -0.05, -0.1), 1: quad(0.05, 0.45, 0.1), ROOT_ID: quad(-0.02, 0.02, 0.0)}
        report = evaluate(
            cabinet, cabinet, pred_meshes=meshes, gt_meshes=meshes,
            n_states=3, n_points=500, seed=5,
        )
        assert report.cd_mean < 1e-9
        assert report.fscore_mean == 1.0

    def test_mesh_sampling_is_pinned(self, cabinet):
        """Fixed-seed mesh sampling draws the same points as it always has."""
        quad = lambda lo, hi, z: TriMesh(
            [[lo, lo, z], [hi, lo, z], [hi, hi, z], [lo, hi, z]], [[0, 1, 2], [0, 2, 3]]
        )
        gt = {0: quad(-0.45, -0.05, -0.1), 1: quad(0.05, 0.45, 0.1), ROOT_ID: quad(-0.02, 0.02, 0.0)}
        pred = {0: quad(-0.4, -0.1, -0.12), 1: quad(0.1, 0.45, 0.08)}
        report = evaluate(cabinet, cabinet, pred_meshes=pred, gt_meshes=gt,
                          n_states=3, n_points=301, seed=9)
        assert report.to_dict() == {
            "cd_mean": 0.002048282450121105, "fscore_mean": 0.9192100538599641,
            "type_accuracy": 1.0, "axis_err_mean": 0.0, "pivot_err_mean": 0.0,
            "per_state": [{"cd": 0.0021133910793789657, "fscore": 0.9192100538599641},
                          {"cd": 0.0020178867200415294, "fscore": 0.9192100538599641},
                          {"cd": 0.0020135695509428194, "fscore": 0.9192100538599641}],
            "per_joint": [{"pred_part": 0, "gt_part": 0, "type_match": True, "iou": 1.0,
                           "axis_err": None, "pivot_err": None},
                          {"pred_part": 1, "gt_part": 1, "type_match": True,
                           "iou": 0.9933774834437086, "axis_err": 0.0, "pivot_err": 0.0}],
        }

    def test_mesh_for_an_id_that_is_not_a_part_rejected(self, cabinet):
        meshes = {0: TRIANGLE, 1: TRIANGLE, 7: TRIANGLE, 9: TRIANGLE, ROOT_ID: TRIANGLE}
        with pytest.raises(ValueError, match=r"mesh ids \[7, 9\] are neither part ids nor "
                                             r"the base id -1"):
            evaluate(cabinet, cabinet, pred_meshes=meshes, gt_meshes=meshes, n_points=1000)

    def test_empty_mesh_map_rejected(self):
        base_only = ArticulatedModel([[0.0, 0.0, 0.0]], (), KinematicTree({}), [0])
        with pytest.raises(ValueError, match="no meshes to sample"):
            evaluate(base_only, base_only, pred_meshes={}, gt_meshes={}, n_points=10)

    @pytest.mark.parametrize("with_meshes", [False, True], ids=["own-points", "meshes"])
    @pytest.mark.parametrize("n_points", [0, -5])
    def test_n_points_below_one_rejected(self, cabinet, n_points, with_meshes):
        meshes = {0: TRIANGLE, 1: TRIANGLE} if with_meshes else None
        with pytest.raises(ValueError, match="n_points must be at least 1"):
            evaluate(cabinet, cabinet, pred_meshes=meshes, gt_meshes=meshes, n_points=n_points)

    def test_one_point_from_meshes(self, cabinet):
        meshes = {0: TRIANGLE, 1: TRIANGLE}
        report = evaluate(cabinet, cabinet, pred_meshes=meshes, gt_meshes=meshes,
                          n_states=2, n_points=1)
        assert report.cd_mean == 0.0 and report.fscore_mean == 1.0

    def test_different_point_clouds_still_match_parts(self):
        gt = build_cabinet()
        # same geometry, but the prediction's cloud is a re-draw: shift one point slightly
        pts = np.array(gt.points)
        pts += 1e-4
        pred = type(gt)(pts, gt.parts, gt.tree, gt.base_indices)
        report = evaluate(pred, gt, n_states=3, n_points=100, seed=0)
        pairs = dict(report.matching.pairs)
        assert pairs == {0: 0, 1: 1}
        assert report.type_accuracy == 1.0

    def test_report_json_keys_and_formatting(self, cabinet):
        report = evaluate(cabinet, cabinet, n_states=2, n_points=50, seed=0)
        payload = json.loads(report.to_json())
        assert list(payload) == [
            "cd_mean", "fscore_mean", "type_accuracy",
            "axis_err_mean", "pivot_err_mean", "per_state", "per_joint",
        ]
        assert len(payload["per_state"]) == 2
        # nine significant digits: a third is rendered as 0.333333333
        from artikit._fmt import fmt_float
        assert fmt_float(1.0 / 3.0) == "0.333333333"
        assert fmt_float(math.pi) == "3.14159265"

    def test_invalid_model_rejected(self, cabinet):
        from artikit.model import ArticulatedModel, KinematicTree
        from artikit.errors import ValidationError

        with pytest.raises(ValidationError):
            broken = ArticulatedModel(
                cabinet.points, cabinet.parts, KinematicTree({0: 1, 1: 0}), cabinet.base_indices
            )
            evaluate(broken, cabinet, n_states=2, n_points=10)

    @pytest.mark.parametrize("tau", [0.0, -0.05, math.nan])
    def test_non_positive_tau_rejected(self, cabinet, tau):
        with pytest.raises(ValueError, match="tau must be positive"):
            evaluate(cabinet, cabinet, n_states=2, tau=tau)

