import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from artikit.errors import ValidationError
from artikit.kinematics import (
    AffinityMatrix,
    ParentDistribution,
    _apply,
    apply_joint,
    articulate,
    build_tree,
    canonical_state,
    joint_transform,
    limits_from_range,
    pairwise_affinity,
    parent_distribution,
    part_transforms,
    pose,
    sample_states,
)
from artikit.model import (
    ROOT_ID,
    ArticulatedModel,
    JointLimits,
    JointSpec,
    JointType,
    KinematicTree,
    PartSpec,
    _norm,
    _product,
    model_from_dict,
    model_to_dict,
    save_model,
)
from tests.conftest import build_random_model


def revolute(axis, pivot, span=math.pi):
    return JointSpec(JointType.REVOLUTE, axis, pivot, JointLimits(0.0, span))


class TestApplyJoint:
    def test_rodrigues_quarter_turn(self):
        j = revolute([0, 0, 1], [0, 0, 0])
        out = apply_joint(j, math.pi / 2, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [0, 1, 0], atol=1e-12)

    def test_prismatic_translation(self):
        j = JointSpec(JointType.PRISMATIC, [0, 0, 1], [0.3, 0.1, 0.0], JointLimits(0.0, 0.5))
        out = apply_joint(j, 0.3, [0.1, 0.2, 0.3])
        np.testing.assert_allclose(out, [0.1, 0.2, 0.6], atol=1e-15)

    def test_fixed_identity(self):
        j = JointSpec(JointType.FIXED, [0, 0, 1], [0, 0, 0])
        pts = np.array([[0.1, 0.2, 0.3], [0, 0, 0]])
        np.testing.assert_array_equal(apply_joint(j, 0.0, pts), pts)

    def test_rotation_about_offset_pivot(self):
        j = revolute([0, 0, 1], [1.0, 0.0, 0.0])
        out = apply_joint(j, math.pi, [2.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [0, 0, 0], atol=1e-12)

    def test_points_on_axis_are_fixed(self):
        j = revolute([0, 0, 1], [0.2, 0.1, 0.0])
        on_axis = np.array([[0.2, 0.1, 0.0], [0.2, 0.1, 0.7]])
        np.testing.assert_allclose(apply_joint(j, 1.0, on_axis), on_axis, atol=1e-12)

    def test_isometry_and_axis_distance(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            pivot = rng.uniform(-0.4, 0.4, size=3)
            angle = rng.uniform(-math.pi, math.pi)
            pts = rng.uniform(-0.5, 0.5, size=(5, 3))
            j = revolute(axis, pivot)
            out = apply_joint(j, angle, pts)
            d_in = np.linalg.norm(pts[:, None] - pts[None], axis=2)
            d_out = np.linalg.norm(out[:, None] - out[None], axis=2)
            np.testing.assert_allclose(d_in, d_out, atol=1e-9)
            rad_in = np.linalg.norm(np.cross(pts - pivot, axis), axis=1)
            rad_out = np.linalg.norm(np.cross(out - pivot, axis), axis=1)
            np.testing.assert_allclose(rad_in, rad_out, atol=1e-9)

    def test_inverse_composition(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.5, 0.5, size=(10, 3))
        j = revolute([0, 1, 0], [0.1, 0.0, 0.2])
        back = apply_joint(j, -0.7, apply_joint(j, 0.7, pts))
        np.testing.assert_allclose(back, pts, atol=1e-9)
        jp = JointSpec(JointType.PRISMATIC, [1, 0, 0], [0, 0, 0], JointLimits(0.0, 1.0))
        back = apply_joint(jp, -0.4, apply_joint(jp, 0.4, pts))
        np.testing.assert_allclose(back, pts, atol=1e-12)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match=r"joint axis not unit length \(norm=2\)"):
            JointSpec(JointType.REVOLUTE, [0, 0, 2], [0, 0, 0], JointLimits(0, 1))

    @pytest.mark.filterwarnings("error")
    def test_a_pivot_that_would_overflow_posing_cannot_be_built(self):
        with pytest.raises(ValueError,
                           match=r"joint pivot must be finite and at most 1e\+30 in magnitude"):
            apply_joint(JointSpec(JointType.REVOLUTE, [0, 0, 1], [1.7e308, -1.7e308, 0],
                                  JointLimits(0.5, 0.5)), 0.5, [[0.1, 0, 0]])

    @pytest.mark.parametrize(
        "axis, message",
        [
            ([0, 0], r"axis must have shape \(3,\), got \(2,\)"),
            ([[0, 0, 1]], r"axis must have shape \(3,\), got \(1, 3\)"),
            ([0, 0, 2], r"joint axis not unit length \(norm=2\)"),
            ([0.6, 0.8, 2e-3], r"joint axis not unit length \(norm=1\.000002\)"),
            # one OpenBLAS kernel's dot product put this norm within UNIT_AXIS_TOL of 1
            ([0.029019990276583692, -0.9993684665169563, 0.020555006613820138],
             r"joint axis not unit length \(norm=1\.000001\)"),
            ([0, float("nan"), 1], "axis must be finite"),
            ([0, 0, float("inf")], "axis must be finite"),
        ],
        ids=["short", "2d", "norm-2", "norm-1.000002", "norm-1.000001", "nan", "inf"],
    )
    def test_rotation_about_axis_rejects_bad_axes(self, axis, message):
        with pytest.raises(ValueError, match=message):
            JointSpec(JointType.REVOLUTE, axis, [0, 0, 0], JointLimits(0, 1))

    def test_rotation_about_axis_is_a_rotation(self):
        # within UNIT_AXIS_TOL of unit length, as joint axes are checked
        axis = np.array([1.0, 2.0, 2.0]) / 3.0 * (1 + 5e-7)
        rot, _ = joint_transform(JointSpec(JointType.CONTINUOUS, axis, [0, 0, 0]), 1.0)
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-5)
        np.testing.assert_allclose(rot @ axis, axis, atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-5)

    def test_out_of_limit_rejected(self):
        j = JointSpec(JointType.REVOLUTE, [0, 0, 1], [0, 0, 0], JointLimits(0.5, 0.5))
        with pytest.raises(ValueError, match="limit"):
            apply_joint(j, 1.5, [[0.1, 0, 0]])
        j = JointSpec(JointType.FIXED, [0, 0, 1], [0, 0, 0])
        with pytest.raises(ValueError, match="fixed"):
            apply_joint(j, 0.2, [[0.1, 0, 0]])

    def test_continuous_unbounded(self):
        j = JointSpec(JointType.CONTINUOUS, [0, 0, 1], [0, 0, 0])
        apply_joint(j, 12.0, [[0.1, 0, 0]])  # no limit check

    def test_canonical_zero_admissible_outside_limits(self):
        # the canonical pose is value 0 even when the motion range excludes 0
        j = JointSpec(JointType.REVOLUTE, [0, 0, 1], [0, 0, 0], JointLimits(0.5, 0.1))
        pts = np.array([[0.1, 0.2, 0.3]])
        np.testing.assert_array_equal(apply_joint(j, 0.0, pts), pts)
        with pytest.raises(ValueError, match="limit"):
            apply_joint(j, 0.2, pts)


class TestSampleStates:
    def test_revolute_linspace_inclusive(self):
        values = sample_states(JointLimits(0.5, 0.5), JointType.REVOLUTE, 6)
        np.testing.assert_allclose(values, [0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-12)

    def test_fixed_all_zero(self):
        np.testing.assert_array_equal(sample_states(JointLimits(), JointType.FIXED, 6), np.zeros(6))

    def test_continuous_half_open(self):
        values = sample_states(JointLimits(), JointType.CONTINUOUS, 6)
        np.testing.assert_allclose(values, [k * math.pi / 3 for k in range(6)], atol=1e-12)

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            sample_states(JointLimits(), JointType.FIXED, 1)


class TestArticulate:
    def test_canonical_state_is_identity(self, cabinet):
        out = articulate(cabinet, canonical_state(cabinet))
        np.testing.assert_array_equal(out, cabinet.points)

    def test_door_rotates_base_fixed(self, cabinet):
        out = articulate(cabinet, {0: 0.0, 1: 1.0})
        door_idx = cabinet.parts[1].point_indices
        static = np.setdiff1d(np.arange(cabinet.num_points), door_idx)
        np.testing.assert_array_equal(out[static], cabinet.points[static])
        assert np.abs(out[door_idx] - cabinet.points[door_idx]).max() > 1e-3

    def test_prismatic_chain_composes(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0]])
        jz = lambda: JointSpec(JointType.PRISMATIC, [0, 0, 1], [0, 0, 0], JointLimits(0.0, 0.5))
        a = PartSpec(0, 0, [0], jz())
        b = PartSpec(1, 0, [1], jz())
        model = ArticulatedModel(pts, (a, b), KinematicTree({0: ROOT_ID, 1: 0}), [2])
        out = articulate(model, {0: 0.1, 1: 0.1})
        np.testing.assert_allclose(out[0], [0.0, 0.0, 0.1], atol=1e-15)
        np.testing.assert_allclose(out[1], [0.1, 0.0, 0.2], atol=1e-15)  # parent + own
        np.testing.assert_allclose(out[2], pts[2], atol=1e-15)

    def test_parent_rotation_carries_child(self):
        pts = np.array([[0.2, 0.0, 0.0], [0.4, 0.0, 0.0]])
        ja = revolute([0, 0, 1], [0, 0, 0])
        jb = revolute([0, 0, 1], [0.4, 0.0, 0.0])
        a = PartSpec(0, 0, [0], ja)
        b = PartSpec(1, 0, [1], jb)
        model = ArticulatedModel(pts, (a, b), KinematicTree({0: ROOT_ID, 1: 0}), [])
        out = articulate(model, {0: math.pi / 2, 1: 0.0})
        np.testing.assert_allclose(out[1], [0.0, 0.4, 0.0], atol=1e-12)

    def test_missing_state_value(self, cabinet):
        with pytest.raises(ValueError, match="missing state value"):
            articulate(cabinet, {0: 0.0})

    @pytest.mark.parametrize("value", ["0.5", True, b"0.5"], ids=["str", "bool", "bytes"])
    def test_a_joint_value_that_is_no_number_is_rejected(self, cabinet, value):
        # the value reaches joint_transform uncast, so articulate keeps its number rule
        with pytest.raises(ValueError, match="joint value"):
            articulate(cabinet, {0: 0.0, 1: value})

    def test_pose_moves_only_owned_points(self, cabinet):
        state = {0: 0.0, 1: 0.7}
        door = cabinet.parts[1].point_indices
        owner = {1: door}
        posed = pose(cabinet.points, owner, part_transforms(cabinet, state))
        rest = np.setdiff1d(np.arange(cabinet.num_points), door)
        np.testing.assert_array_equal(posed[rest], cabinet.points[rest])
        # the body is fixed to ROOT, so the door moves by its own joint alone
        want = apply_joint(cabinet.parts[1].joint, 0.7, cabinet.points[door])
        np.testing.assert_allclose(posed[door], want, rtol=0, atol=1e-15)
        assert np.abs(posed[door] - cabinet.points[door]).max() > 1e-3

    def test_cyclic_model_rejected(self, cabinet):
        with pytest.raises(ValidationError, match="cycle"):
            cyclic = ArticulatedModel(
                cabinet.points, cabinet.parts, KinematicTree({0: 1, 1: 0}), cabinet.base_indices
            )
            articulate(cyclic, canonical_state(cyclic))


class TestTreeOps:
    def test_affinity_one_hot_identity_compat(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        aff = pairwise_affinity(probs, np.eye(2))
        assert aff.scores[0, 1] == pytest.approx(1.0)
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        aff = pairwise_affinity(probs, np.eye(2))
        assert aff.scores[0, 1] == pytest.approx(0.0)

    def test_affinity_bilinear_arithmetic(self):
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        aff = pairwise_affinity(probs, np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert aff.scores[0, 1] == pytest.approx(1.0)

    def test_affinity_requires_stochastic_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            pairwise_affinity(np.array([[0.9, 0.3]]), np.eye(2))

    def test_parent_distribution_uniform_two_candidates(self):
        aff = AffinityMatrix(scores=np.zeros((2, 2)), root_scores=np.zeros(2))
        dist = parent_distribution(aff)
        np.testing.assert_allclose(dist.probs[0], [0.0, 0.5, 0.5], atol=1e-12)

    def test_parent_distribution_softmax_closed_form(self):
        aff = AffinityMatrix(
            scores=np.array([[0.0, math.log(2.0)], [0.0, 0.0]]),
            root_scores=np.array([math.log(1.0), 0.0]),
        )
        dist = parent_distribution(aff)
        np.testing.assert_allclose(dist.probs[0], [0.0, 2 / 3, 1 / 3], atol=1e-12)

    def test_rows_sum_to_one_and_strictly_positive(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            aff = AffinityMatrix(scores=rng.normal(size=(n, n)), root_scores=rng.normal(size=n))
            probs = parent_distribution(aff).probs
            np.testing.assert_allclose(probs.sum(axis=1), np.ones(n), atol=1e-9)
            off_diag = probs[~np.eye(n, n + 1, dtype=bool)]
            assert (off_diag > 0).all()

    def test_build_tree_root_dominant_star(self):
        probs = np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.9]])
        tree = build_tree(ParentDistribution(probs))
        assert tree.parent == {0: ROOT_ID, 1: ROOT_ID}

    def test_build_tree_mutual_preference_repair(self):
        probs = np.array([[0.0, 0.9, 0.1], [0.9, 0.0, 0.1]])
        tree = build_tree(ParentDistribution(probs))
        assert tree.parent == {0: 1, 1: ROOT_ID}

    def test_build_tree_single_part(self):
        tree = build_tree(ParentDistribution(np.array([[0.0, 1.0]])))
        assert tree.parent == {0: ROOT_ID}

    def test_build_tree_always_valid_random(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 21))
            probs = rng.random((n, n + 1))
            probs[np.eye(n, n + 1, dtype=bool)] = 0.0
            probs /= probs.sum(axis=1, keepdims=True)
            tree = build_tree(ParentDistribution(probs))
            assert_tree_valid(tree, n)

    def test_non_square_scores_are_rejected(self):
        with pytest.raises(ValueError, match=r"scores must be square \(N, N\) with N >= 1, "
                                             r"got \(2, 3\)"):
            AffinityMatrix(scores=np.zeros((2, 3)), root_scores=np.zeros(2))

    def test_probs_without_one_more_column_than_rows_are_rejected(self):
        with pytest.raises(ValueError, match=r"probs must be \(N, N\+1\), got \(1, 3\)"):
            ParentDistribution(np.array([[0.0, 0.5, 0.5]]))

    def test_a_part_that_may_parent_itself_is_rejected(self):
        with pytest.raises(ValueError, match="self-parent probabilities must be 0"):
            ParentDistribution(np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]))


def assert_tree_valid(tree, n):
    assert sorted(tree.parent) == list(range(n))
    for pid, parent in tree.parent.items():
        assert parent == ROOT_ID or (0 <= parent < n and parent != pid)
    for start in range(n):
        seen = set()
        cur = start
        while cur != ROOT_ID:
            assert cur not in seen, f"cycle through part {start}"
            seen.add(cur)
            cur = tree.parent[cur]


class TestLimitsRoundTrip:
    def test_documented_example(self):
        lim = limits_from_range(0.0, math.pi / 2)
        assert lim.center == pytest.approx(math.pi / 4)
        assert lim.span == pytest.approx(math.pi / 4)

    def test_degenerate_range(self):
        lim = limits_from_range(0.3, 0.3)
        assert lim.center == 0.3 and lim.span == 0.0

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            limits_from_range(1.0, 0.0)

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(0, 10, allow_nan=False),
    )
    def test_round_trip_identity(self, lo, width):
        hi = lo + width
        limits = limits_from_range(lo, hi)
        back_lo, back_hi = limits.lower, limits.upper
        assert abs(back_lo - lo) <= 1e-12 and abs(back_hi - hi) <= 1e-12


# wild values: each breaks the rule of some joint argument, though not of every
# one (2 is a valid pivot component but no valid axis component)
WILD = [math.nan, math.inf, -math.inf, -1.0, 2.0, 1e300, 1.7e308]


def _wild(data) -> bool:
    """Whether an argument takes wild values: one time in four, so that most
    calls also see valid arguments beside the wild one."""
    return data.draw(st.integers(0, 3)) == 0


def _scalar(data, *usual):
    return data.draw(st.sampled_from(WILD if _wild(data) else usual))


def _vector(data, usual):
    """``usual``, or with one or two of its components replaced by wild values."""
    out = np.array(usual, dtype=float)
    if _wild(data):
        for i in data.draw(st.lists(st.integers(0, out.size - 1), min_size=1, max_size=2)):
            out.flat[i] = data.draw(st.sampled_from(WILD))
    return out


def _limits(data):
    return JointLimits(_scalar(data, 0.0, 0.5), _scalar(data, 0.0, 0.25))


def _joint(data):
    return JointSpec(data.draw(st.sampled_from(JointType)), _vector(data, [0, 0, 1]),
                     _vector(data, [0.1, 0, 0]), _limits(data))


JOINT_CALLS = {
    "JointLimits": _limits,
    "JointSpec": _joint,
    "apply_joint": lambda data: apply_joint(_joint(data), _scalar(data, 0.0, 0.3),
                                            _vector(data, np.full((2, 3), 0.25))),
    "sample_states": lambda data: sample_states(
        _limits(data), data.draw(st.sampled_from(JointType)), _scalar(data, 6)),
    "limits_from_range": lambda data: limits_from_range(_scalar(data, 0.0, 0.5),
                                                        _scalar(data, 0.0, 0.5)),
}


def _numbers(result):
    if isinstance(result, JointLimits):
        return [result.center, result.span, result.lower, result.upper]
    if isinstance(result, JointSpec):
        return [*result.axis, *result.pivot, *_numbers(result.limits)]
    return np.ravel(result)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(name=st.sampled_from(sorted(JOINT_CALLS)), data=st.data())
def test_joint_values_give_finite_results_or_value_error(name, data):
    """NaN, inf, -1, 2, 1e300 or 1.7e308 in any argument of a joint callable
    gives a result of finite numbers or raises ``ValueError``, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = JOINT_CALLS[name](data)
        except ValueError:
            return
    assert np.all(np.isfinite(_numbers(result))), (name, result)


# ---------------------------------------------------------------------------
# the fixed-order products and norms behind posing, tree scores, joint errors,
# losses and the joint-axis check

_ENTRIES = st.floats(-1e3, 1e3, allow_nan=False)
_POINT_SHAPES = st.one_of(st.just((3,)), st.integers(0, 8).map(lambda m: (m, 3)))


def _assert_within_ulps(got, want, scale):
    """``got`` equals ``want`` to within 4 ulps of ``scale`` (plus a few
    subnormal steps, which a fused multiply-add may round differently)."""
    assert got.shape == want.shape
    tol = 4 * np.finfo(np.float64).eps * scale + 4 * np.finfo(np.float64).smallest_subnormal
    assert np.all(np.abs(got - want) <= tol), (got, want)


@settings(derandomize=True, deadline=None)
@given(rot=hnp.arrays(np.float64, (3, 3), elements=_ENTRIES),
       trans=hnp.arrays(np.float64, (3,), elements=_ENTRIES),
       points=hnp.arrays(np.float64, _POINT_SHAPES, elements=_ENTRIES))
def test_fixed_order_helpers_equal_matmul_within_a_few_ulps(rot, trans, points):
    abs_rot = np.abs(rot)
    _assert_within_ulps(_apply((rot, trans), points), points @ rot.T + trans,
                        np.abs(points) @ abs_rot.T + np.abs(trans))
    _assert_within_ulps(_product(rot, trans), rot @ trans, abs_rot @ np.abs(trans))
    _assert_within_ulps(_product(rot, rot), rot @ rot, abs_rot @ abs_rot)
    _assert_within_ulps(np.float64(_norm(trans)), np.linalg.norm(trans), np.linalg.norm(trans))
    row_norms = np.linalg.norm(points, axis=-1)
    _assert_within_ulps(np.asarray(_norm(points)), row_norms, row_norms)


_KERNEL_DIGEST = """
import hashlib, json, sys
import numpy as np
from artikit.kinematics import articulate, pairwise_affinity, part_transforms, state_grid
from artikit.losses import MotionPrediction, motion_loss, triplet_loss
from artikit.metrics import evaluate
from artikit.model import _unit_axis, load_model

pred, gt = load_model(sys.argv[1]), load_model(sys.argv[2])
with open(sys.argv[3]) as fh:
    probs, compat = json.load(fh)
values = [pairwise_affinity(probs, compat).scores]
for model in (pred, gt):
    for state in state_grid(model, 6):
        values.append(articulate(model, state))
        for rot, trans in part_transforms(model, state).values():
            values += [rot, trans]
report = evaluate(pred, gt, n_states=6)
assert len(report.axis_errors) == 6 and len(report.pivot_errors) == 4, report.per_joint
values += [[s["cd"], s["fscore"]] for s in report.per_state]
values += [report.axis_errors, report.pivot_errors]
try:  # its norm is 1.000001: past UNIT_AXIS_TOL, or not, by the last bits of the sum
    _unit_axis([0.029019990276583692, -0.9993684665169563, 0.020555006613820138])
    values.append(1.0)
except ValueError:
    values.append(0.0)
rng = np.random.default_rng(35)
for d in (16, 256):
    for _ in range(20):
        values.append(triplet_loss(*rng.normal(size=(3, d)), tau=0.07))
for joint in [part.joint for part in gt.parts] * 4:
    pred = MotionPrediction(rng.normal(size=4), rng.normal(size=3), rng.normal(size=3),
                            rng.normal(), rng.uniform())
    total, breakdown = motion_loss(pred, joint)
    values += [total, breakdown["dir"]]
digest = hashlib.sha256()
for value in values:
    digest.update(np.asarray(value, dtype=np.float64).tobytes())
print(digest.hexdigest())
"""


def _dynamic_openblas_with_avx2() -> bool:
    """Whether numpy's OpenBLAS picks its kernels at run time and this CPU can
    run the Haswell one (a kernel the CPU lacks can die with SIGILL)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy without the dicts mode
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "") and bool(
        __cpu_features__.get("AVX2"))


def test_products_and_norms_have_the_same_bytes_on_every_kernel(tmp_path):
    if not _dynamic_openblas_with_avx2():
        pytest.skip("needs a DYNAMIC_ARCH OpenBLAS and an AVX2 CPU")
    # built here once: build_random_model normalises its axes through BLAS
    rng = np.random.default_rng(33)
    gt = build_random_model(rng, 6)
    doc = model_to_dict(gt)
    doc["points"] = (gt.points + rng.normal(0, 0.005, gt.points.shape)).tolist()
    for part in doc["parts"]:
        axis = np.array(part["joint"]["axis"]) + rng.normal(0, 0.05, 3)
        part["joint"]["axis"] = (axis / np.linalg.norm(axis)).tolist()
        part["joint"]["pivot"] = (np.array(part["joint"]["pivot"]) + rng.normal(0, 0.02, 3)).tolist()
    save_model(model_from_dict(doc), tmp_path / "pred.json")
    save_model(gt, tmp_path / "gt.json")
    (tmp_path / "tree.json").write_text(json.dumps(
        [rng.dirichlet(np.ones(8), size=6).tolist(), rng.normal(size=(8, 8)).tolist()]))

    paths = [str(tmp_path / name) for name in ("pred.json", "gt.json", "tree.json")]
    digests = {}
    for kernel in (None, "Prescott", "Haswell"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        proc = subprocess.run([sys.executable, "-c", _KERNEL_DIGEST, *paths],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests[kernel] = proc.stdout.strip()
    assert len(set(digests.values())) == 1, digests
