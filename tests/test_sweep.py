"""Wild values in every public callable.

One argument of a callable in ``artikit.__all__`` holds NaN, inf, -inf, -1,
2, 1e300, the string "1" or True, either as a whole or in one entry of an
array, and every other argument is valid.  The call must give a result that
holds finite numbers only, or raise ``ValueError``, ``GeometryError`` or, for
a model that breaks an invariant, ``ValidationError``.  It must not warn:
the test configuration turns every warning into an error.  A second sweep
puts two values of the largest finite magnitude into one call, so that their
sum, difference or product overflows, under the same rule.
"""

import dataclasses
import enum
import functools
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import artikit
from artikit import (
    AffinityMatrix,
    ArticulatedModel,
    GeometryError,
    JointLimits,
    JointSpec,
    JointType,
    KinematicTree,
    LossWeights,
    MatchResult,
    MotionPrediction,
    ParentDistribution,
    PartSpec,
    QuerySet,
    SoftMaskSet,
    SparseVoxelGrid,
    TriMesh,
    TriplaneStack,
    ValidationError,
    apply_joint,
    articulate,
    axis_error,
    build_tree,
    chamfer,
    compute_mask_logits,
    confidence_loss,
    confidence_targets,
    dice_loss,
    evaluate,
    filter_queries,
    focal_loss,
    fscore,
    global_pool_concat,
    hungarian,
    limits_from_range,
    limits_to_range,
    matching_cost,
    motion_loss,
    nearest_neighbor_distances,
    object_category_loss,
    pairwise_affinity,
    parent_distribution,
    pivot_error,
    residual_update,
    sample_states,
    sample_surface_points,
    stage_loss,
    structure_loss,
    triplane_gather,
    triplane_scatter,
    trilinear_interpolate,
    triplet_loss,
    type_accuracy,
)
from tests.conftest import FUZZ, build_cabinet

WILD = [math.nan, math.inf, -math.inf, -1, 2, 1e300, "1", True]
MAX = float(np.finfo(np.float64).max)

CABINET = build_cabinet()
CLOUD = [[0.1, 0.2, 0.3], [-0.2, 0.1, 0.0], [0.3, -0.3, 0.2], [0.0, 0.0, -0.1]]
FEATURES = [[1.0, 0.5], [0.0, -1.0], [2.0, 0.25], [0.5, 0.5]]
CONTENTS = [[1.0, 0.0], [0.5, 0.5]]
TETRA = ([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.25]],
         [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
MASKS = [[0.2, 0.7, 0.9], [0.5, 0.5, 0.1]]
HARD = [[True, False, True], [False, True, False]]
GT_VALUES = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
GT = [[True, True, False]]
PARENT_PROBS = [[0.0, 0.25, 0.75], [0.5, 0.0, 0.5]]
TYPES = [JointType.REVOLUTE, JointType.FIXED]
STAGE_III = {"triplet": 1.0, "mask": 0.5, "score": 0.25, "motion": 2.0}


class Wild:
    """Hands each argument through ``__call__``; the ``target``-th one comes
    back wild: one of ``WILD`` as a whole, or with one entry replaced by it."""

    def __init__(self, data, target: int):
        self.data, self.target, self.calls = data, target, 0

    def __call__(self, usual):
        self.calls += 1
        if self.calls - 1 != self.target:
            return usual
        value = self.data.draw(st.sampled_from(WILD))
        if np.ndim(usual) == 0 or self.data.draw(st.booleans()):
            return value
        out = np.array(usual, dtype=object)
        out.flat[self.data.draw(st.integers(0, out.size - 1))] = value
        return out.tolist()


class Huge:
    """Hands each argument through ``__call__``; each of ``targets``, a call
    index, makes that argument come back holding ``sign * MAX``: as a whole
    when it is a scalar, else at flat entry ``entry``, one entry further on
    for a second value in the same argument (indices wrap round)."""

    def __init__(self, targets, signs, entry: int):
        self.targets, self.signs, self.entry, self.calls = targets, signs, entry, 0

    def __call__(self, usual):
        self.calls += 1
        hits = [sign for target, sign in zip(self.targets, self.signs) if target == self.calls - 1]
        if not hits:
            return usual
        if np.ndim(usual) == 0:
            return hits[-1] * MAX
        out = np.array(usual, dtype=object)
        for step, sign in enumerate(hits):
            out.flat[(self.entry + step) % out.size] = sign * MAX
        return out.tolist()


def _limits(w):
    return JointLimits(w(0.5), w(0.25))


def _joint(w):
    return JointSpec(w("revolute"), w([0.0, 0.0, 1.0]), w([0.1, 0.0, 0.0]), _limits(w))


def _queries(w):
    return QuerySet(w(CLOUD[:2]), w(CONTENTS), w([0.5, 0.9]), w([[0.1, 0.2, 0.3], [0.0] * 3]))


def _motion(w):
    return MotionPrediction(w([0.1, 0.2, 0.0, -0.1]), w([0.0, 0.6, 0.8]), w([0.1, 0.0, 0.0]),
                            w(0.5), w(0.25))


def _weights(w):
    return LossWeights(w(0.2), w(1.0), w(1.0), w(1.0), w(0.5), w(1.0), w(1.0), w(2.0))


def _grid(w):
    return SparseVoxelGrid(w(8), w([[0, 0, 0], [1, 2, 3]]), w([[1.0], [2.0]]))


def _stack(w):
    return TriplaneStack(w(2), w(np.full((3, 2, 2, 1), 0.5).tolist()),
                         w(np.ones((3, 2, 2)).tolist()))


def _model(w):
    c = CABINET
    return ArticulatedModel(w(c.points.tolist()), c.parts, c.tree, w(c.base_indices.tolist()))


# callable of artikit.__all__ -> a call of it whose arguments pass through w
CALLS = {
    "JointLimits": _limits,
    "JointSpec": _joint,
    "JointType": lambda w: JointType(w("prismatic")),
    "PartSpec": lambda w: PartSpec(w(0), w(3), w([0, 1, 2]), _joint(w)),
    "KinematicTree": lambda w: KinematicTree({w(0): w(-1), 1: w(0)}),
    "ArticulatedModel": _model,
    "TriMesh": lambda w: TriMesh(w(TETRA[0]), w(TETRA[1])),
    "SparseVoxelGrid": _grid,
    "TriplaneStack": _stack,
    "global_pool_concat": lambda w: global_pool_concat(w(FEATURES), w(FEATURES)),
    "nearest_neighbor_distances": lambda w: nearest_neighbor_distances(w(CLOUD), w(CLOUD[1:])),
    "sample_surface_points": lambda w: sample_surface_points(TriMesh(*TETRA), w(5), w(0)),
    "triplane_gather": lambda w: triplane_gather(_stack(w), w(CLOUD)),
    "triplane_scatter": lambda w: triplane_scatter(w(CLOUD), w(FEATURES), w(4)),
    "trilinear_interpolate": lambda w: trilinear_interpolate(_grid(w), w(CLOUD)),
    "AffinityMatrix": lambda w: AffinityMatrix(w([[0.0, 1.0], [0.5, 0.0]]), w([1.0, 0.5])),
    "ParentDistribution": lambda w: ParentDistribution(w(PARENT_PROBS)),
    "apply_joint": lambda w: apply_joint(_joint(w), w(0.5), w(CLOUD)),
    "articulate": lambda w: articulate(CABINET, {0: w(0.0), 1: w(0.5)}),
    "build_tree": lambda w: build_tree(ParentDistribution(w(PARENT_PROBS))),
    "limits_from_range": lambda w: limits_from_range(w(0.0), w(0.5)),
    "limits_to_range": lambda w: limits_to_range(_limits(w)),
    "pairwise_affinity": lambda w: pairwise_affinity(w([[0.25, 0.75], [1.0, 0.0]]),
                                                     w([[0.0, 1.0], [2.0, -1.0]]),
                                                     w([0.5, 0.0])),
    "parent_distribution": lambda w: parent_distribution(
        AffinityMatrix(w([[0.0, 1.0], [0.5, 0.0]]), w([1.0, 0.5]))),
    "sample_states": lambda w: sample_states(_limits(w), w("revolute"), w(6)),
    "MatchResult": lambda w: MatchResult(w([[0, 0]]), w([1]), w(0.5)),
    "QuerySet": _queries,
    "SoftMaskSet": lambda w: SoftMaskSet(w(MASKS)),
    "compute_mask_logits": lambda w: compute_mask_logits(w(CONTENTS), w(FEATURES)),
    "confidence_targets": lambda w: confidence_targets(w(HARD), w(GT),
                                                       MatchResult([(0, 0)], [1], 0.5)),
    "filter_queries": lambda w: filter_queries(_queries(w), w(0.5)),
    "hungarian": lambda w: hungarian(w([[0.1, 0.5], [0.3, 0.2], [0.9, 0.0]])),
    "matching_cost": lambda w: matching_cost(w(MASKS), w(GT), w(1.0), w(1.0)),
    "residual_update": lambda w: residual_update(_queries(w), w(np.zeros((2, 3)).tolist()),
                                                 w(np.zeros((2, 2)).tolist())),
    "LossWeights": _weights,
    "MotionPrediction": _motion,
    "confidence_loss": lambda w: confidence_loss(w(0.3), w(0.5), w(2.0)),
    "dice_loss": lambda w: dice_loss(w(MASKS), w(GT_VALUES)),
    "focal_loss": lambda w: focal_loss(w(MASKS), w(GT_VALUES), w(2.0)),
    "motion_loss": lambda w: motion_loss(_motion(w), _joint(w), _weights(w)),
    "object_category_loss": lambda w: object_category_loss(w([0.5, 1.0, -0.5]), w(1)),
    "stage_loss": lambda w: stage_loss(w(3), {k: w(v) for k, v in STAGE_III.items()},
                                       _weights(w), w(0.5)),
    "structure_loss": lambda w: structure_loss(w(PARENT_PROBS), w([2, 0])),
    "triplet_loss": lambda w: triplet_loss(w([1.0, 0.5]), w([0.8, 0.6]), w([-0.2, 1.0]),
                                           w(0.5)),
    "axis_error": lambda w: axis_error(w([0.0, 0.0, 1.0]), w([0.0, 0.6, 0.8])),
    "chamfer": lambda w: chamfer(w(CLOUD), w(CLOUD[1:])),
    "evaluate": lambda w: evaluate(CABINET, build_cabinet(door_limits=(0.25, 0.5)),
                                   n_states=w(3), n_points=w(10), tau=w(0.05), seed=w(0)),
    "fscore": lambda w: fscore(w(CLOUD), w(CLOUD[1:]), w(0.05)),
    "pivot_error": lambda w: pivot_error(w([0.1, 0.0, 0.0]), w([0.0, 0.0, 1.0]),
                                         w([0.0, 0.2, 0.0]), w([0.0, 0.6, 0.8])),
    "type_accuracy": lambda w: type_accuracy(MatchResult(w([[0, 1], [1, 0]]), (), 0.0),
                                             TYPES, TYPES),
}

# callables of artikit.__all__ that take no numeric argument, and why
NOT_SWEPT = {
    "ArtikitError": "an exception type",
    "GeometryError": "an exception type",
    "ParseError": "an exception type",
    "ValidationError": "an exception type",
    "MetricReport": "the record evaluate returns; evaluate is swept",
    "export_urdf": "takes a model, which is swept, and file names",
    "load_model": "reads a file; tests/test_fuzz.py fuzzes files",
    "save_model": "writes a model, which is swept",
    "load_grid": "reads a file; tests/test_fuzz.py fuzzes files",
    "save_grid": "writes a grid, which is swept",
}


def test_every_public_callable_is_swept_or_excused():
    public = {name for name in artikit.__all__ if callable(getattr(artikit, name))}
    assert public == set(CALLS) | set(NOT_SWEPT)
    assert not set(CALLS) & set(NOT_SWEPT)


def _numbers(result) -> list:
    """Every number ``result`` holds, the fields of result types included."""
    if result is None or isinstance(result, (str, enum.Enum)):
        return []
    if dataclasses.is_dataclass(result):
        return [n for f in dataclasses.fields(result) for n in _numbers(getattr(result, f.name))]
    if isinstance(result, Mapping):
        return [n for item in result.items() for part in item for n in _numbers(part)]
    if isinstance(result, (list, tuple)):
        return [n for part in result for n in _numbers(part)]
    return np.ravel(result).astype(np.float64).tolist()


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(FUZZ, max_examples=40)
@given(target=st.integers(0, 7), data=st.data())
def test_a_wild_argument_gives_finite_numbers_or_a_value_error(name, target, data):
    try:
        result = CALLS[name](Wild(data, target))
    except (ValueError, GeometryError, ValidationError):
        return
    _assert_finite(name, result)


def _assert_finite(name, result):
    if isinstance(result, MatchResult):
        # no domain: hungarian's total of near-maximal finite costs may round to inf
        result = dataclasses.replace(result, total_cost=0.0)
    numbers = _numbers(result)
    assert np.all(np.isfinite(numbers)), (name, result)


@functools.cache
def _argument_count(name: str) -> int:
    """How many arguments the call of ``name`` hands through its ``w``."""
    counter = Huge((), (), 0)
    CALLS[name](counter)
    return counter.calls


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(FUZZ, max_examples=40)
@given(targets=st.tuples(st.integers(0, 15), st.integers(0, 15)),
       signs=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
       entry=st.integers(0, 15))
@example(targets=(0, 4), signs=(1, 1), entry=0)
@example(targets=(0, 0), signs=(1, -1), entry=0)
def test_two_huge_values_give_finite_numbers_or_a_value_error(name, targets, signs, entry):
    """Two finite values of the largest magnitude, in two arguments or in one,
    whose sum, difference or product overflows: the rule of the test above."""
    count = _argument_count(name)
    try:
        result = CALLS[name](Huge([t % count for t in targets], signs, entry))
    except (ValueError, GeometryError, ValidationError):
        return
    _assert_finite(name, result)


# two finite values that overflow together, one case per kernel that met them
OVERFLOWS = {
    "compute_mask_logits": lambda: compute_mask_logits([[1e200, 0.0]], [[1e200, 0.0]]),
    "object_category_loss": lambda: object_category_loss([MAX, -MAX], 1),
    "residual_update": lambda: residual_update(
        QuerySet([[MAX, 0.0, 0.0]], [[0.0]], [0.5], [[0.0]]), [[MAX, 0.0, 0.0]], [[0.0]]),
    "motion_loss": lambda: motion_loss(_motion(lambda v: v), _joint(lambda v: v),
                                       LossWeights(type=MAX, dir=MAX)),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_finite_values_that_overflow_together_raise_a_value_error(name):
    with pytest.raises(ValueError, match=" must be finite"):
        OVERFLOWS[name]()


def test_a_saturated_category_loss_is_exactly_zero():
    assert object_category_loss([MAX, -MAX], 0) == 0.0


def test_a_score_gap_past_the_float_range_gives_probability_zero():
    probs = parent_distribution(AffinityMatrix([[0.0, MAX], [0.0, 0.0]], [-MAX, 0.0])).probs
    assert probs.tolist() == [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]
