"""One value rule for every array argument: ``model._as_array`` with a domain.

A value outside an argument's domain raises ``ValueError("<name> must be
<rule>")`` at each public entry point.  NaN fails every domain, values on a
domain's bounds pass, and the range messages live in one module only.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import artikit
from artikit.assignment import QuerySet, SoftMaskSet, filter_queries, hungarian, matching_cost
from artikit.geometry import TriplaneStack, global_pool_concat
from artikit.kinematics import (
    MAX_TREE_SCORE,
    TREE_SCORE,
    AffinityMatrix,
    ParentDistribution,
    apply_joint,
    joint_transform,
    limits_from_range,
    pairwise_affinity,
    rotation_about_axis,
)
from artikit.losses import (
    LossWeights,
    MotionPrediction,
    confidence_loss,
    dice_loss,
    focal_loss,
    object_category_loss,
    stage_loss,
    structure_loss,
    triplet_loss,
)
from artikit.metrics import axis_error, evaluate, fscore, pivot_error
from artikit.model import (
    FINITE,
    JOINT_MAGNITUDE,
    MAX_JOINT_MAGNITUDE,
    NON_NEGATIVE,
    POSITIVE,
    PROB_ROW_TOL,
    PROBABILITY,
    UNIT_INTERVAL,
    JointSpec,
    JointType,
    _as_array,
    _frozen,
)
from tests.conftest import build_cabinet

NAN = math.nan
CLOUD = np.zeros((4, 3))
PROB_RULE = f"finite and non-negative and at most 1 + {PROB_ROW_TOL:g}"


def _queries(confidences=(0.5, 0.5)):
    return QuerySet(np.zeros((2, 3)), np.zeros((2, 4)), confidences, np.zeros((2, 5)))


def _stack(weights):
    return TriplaneStack(2, np.zeros((3, 2, 2, 1)), weights)


def _motion(**nan_field):
    fields = {"type_logits": np.zeros(4), "axis": [0, 0, 1], "pivot": np.zeros(3),
              "center": 0.5, "span": 0.25}
    return MotionPrediction(**{**fields, **nan_field})


def _triplet(**nan_embedding):
    return triplet_loss(**{"h_a": [1.0, 0.0], "h_b": [1.0, 0.0], "h_c": [0.0, 1.0],
                           "tau": 0.5, **nan_embedding})


STAGE_III = {"triplet": 1.0, "mask": 1.0, "score": 1.0, "motion": 1.0}


def _with_nan(shape, at=0):
    arr = np.zeros(shape)
    arr.flat[at] = NAN
    return arr


# entry point -> (call with NaN in one argument, the message it must give)
NAN_ARGUMENTS = {
    "QuerySet-confidences": (lambda: _queries((0.5, NAN)),
                             "confidences must be finite and lie in [0, 1]"),
    "SoftMaskSet-logits": (lambda: SoftMaskSet(_with_nan((2, 3))), "logits must be finite"),
    "TriplaneStack-weights": (lambda: _stack(_with_nan((3, 2, 2), 5)),
                              "weights must be finite and non-negative"),
    "AffinityMatrix-scores": (lambda: AffinityMatrix(_with_nan((2, 2), 1), np.zeros(2)),
                              "scores must be finite"),
    "AffinityMatrix-root_scores": (lambda: AffinityMatrix(np.zeros((2, 2)), [0.0, NAN]),
                                   "root_scores must be finite"),
    "hungarian-cost": (lambda: hungarian(_with_nan((2, 3), 4)), "cost must be finite"),
    "matching_cost-pred_soft": (lambda: matching_cost(_with_nan((2, 3), 4), np.ones((1, 3))),
                                "pred_soft must be finite and lie in [0, 1]"),
    "LossWeights-mask": (lambda: LossWeights(mask=NAN),
                         "loss weight mask must be finite and non-negative"),
    "confidence_loss-u": (lambda: confidence_loss(0.0, NAN),
                          "target u must be finite and lie in [0, 1]"),
    "filter_queries-threshold": (lambda: filter_queries(_queries(), NAN),
                                 "threshold must be finite and lie in [0, 1]"),
    "triplet_loss-tau": (lambda: triplet_loss(np.ones(2), np.ones(2), np.ones(2), tau=NAN),
                         "tau must be positive and finite"),
    "fscore-tau": (lambda: fscore(CLOUD, CLOUD, tau=NAN), "tau must be positive and finite"),
    "evaluate-tau": (lambda: evaluate(build_cabinet(), build_cabinet(), tau=NAN),
                     "tau must be positive and finite"),
    "structure_loss-parent_probs": (lambda: structure_loss([[0.5, NAN]], [0]),
                                    f"parent_probs must be {PROB_RULE}"),
    "ParentDistribution-probs": (lambda: ParentDistribution([[0.0, NAN]]),
                                 f"probs must be {PROB_RULE}"),
    "pairwise_affinity-part_probs": (lambda: pairwise_affinity([[NAN, 1.0]], np.eye(2)),
                                     f"part_probs must be {PROB_RULE}"),
    "limits_from_range-l_min": (lambda: limits_from_range(NAN, 1.0),
                                "l_min must be finite and at most 1e+30 in magnitude"),
    "limits_from_range-l_max": (lambda: limits_from_range(0.0, NAN),
                                "l_max must be finite and at most 1e+30 in magnitude"),
    "joint_transform-continuous": (
        lambda: joint_transform(JointSpec(JointType.CONTINUOUS, [0, 0, 1], [0, 0, 0]), NAN),
        "joint value must be finite"),
    "joint_transform-fixed": (
        lambda: joint_transform(JointSpec(JointType.FIXED, [0, 0, 1], [0, 0, 0]), NAN),
        "joint value must be finite"),
    "joint_transform-axis": (
        lambda: joint_transform(JointSpec(JointType.PRISMATIC, [0, NAN, 1], [0, 0, 0]), 0.0),
        "joint axis not finite"),
    "rotation_about_axis-axis": (lambda: rotation_about_axis([NAN, 0.0, 1.0], 0.5),
                                 "axis must be finite"),
    "apply_joint-points": (
        lambda: apply_joint(JointSpec(JointType.REVOLUTE, [0, 0, 1], [0, 0, 0]), 0.0,
                            _with_nan((2, 3), 4)),
        "points must be finite and at most 1e+30 in magnitude"),
    "MotionPrediction-type_logits": (lambda: _motion(type_logits=_with_nan(4, 1)),
                                     "type_logits must be finite"),
    "MotionPrediction-axis": (lambda: _motion(axis=[0, NAN, 1]), "axis must be finite"),
    "MotionPrediction-pivot": (lambda: _motion(pivot=_with_nan(3, 2)), "pivot must be finite"),
    "MotionPrediction-center": (lambda: _motion(center=NAN), "center must be finite"),
    "MotionPrediction-span": (lambda: _motion(span=NAN), "span must be finite"),
    "object_category_loss-logits": (lambda: object_category_loss([NAN, 0.0, 0.0], 0),
                                    "logits must be finite"),
    "axis_error-a_p": (lambda: axis_error([NAN, 0, 0], [0, 0, 1]), "a_p must be finite"),
    "axis_error-a_g": (lambda: axis_error([0, 0, 1], [0, NAN, 1]), "a_g must be finite"),
    "pivot_error-o_p": (lambda: pivot_error([NAN, 0, 0], [0, 0, 1], [0, 0, 0], [0, 0, 1]),
                        "o_p must be finite"),
    "pivot_error-a_p": (lambda: pivot_error([0, 0, 0], [0, 0, NAN], [0, 0, 0], [0, 0, 1]),
                        "a_p must be finite"),
    "pivot_error-o_g": (lambda: pivot_error([0, 0, 0], [0, 0, 1], [0, NAN, 0], [0, 0, 1]),
                        "o_g must be finite"),
    "pivot_error-a_g": (lambda: pivot_error([0, 0, 0], [0, 0, 1], [0, 0, 0], [NAN, 0, 1]),
                        "a_g must be finite"),
    "focal_loss-gt": (lambda: focal_loss([0.5, 0.5], [1.0, NAN]),
                      "gt must be finite and lie in [0, 1]"),
    "dice_loss-gt": (lambda: dice_loss([0.5, 0.5], [NAN, 0.0]),
                     "gt must be finite and lie in [0, 1]"),
    "triplet_loss-h_a": (lambda: _triplet(h_a=[NAN, 1.0]), "h_a must be finite"),
    "triplet_loss-h_b": (lambda: _triplet(h_b=[1.0, NAN]), "h_b must be finite"),
    "triplet_loss-h_c": (lambda: _triplet(h_c=[NAN, NAN]), "h_c must be finite"),
    "focal_loss-pred": (lambda: focal_loss([NAN, 0.5], [1.0, 0.0]),
                        "pred must be finite and lie in [0, 1]"),
    "dice_loss-pred": (lambda: dice_loss([0.5, NAN], [1.0, 0.0]),
                       "pred must be finite and lie in [0, 1]"),
    "confidence_loss-c_hat": (lambda: confidence_loss(NAN, 0.5), "c_hat must be finite"),
    "confidence_loss-beta": (lambda: confidence_loss(0.0, 0.5, beta=NAN),
                             "beta must be finite and non-negative"),
    "stage_loss-component": (lambda: stage_loss(3, {**STAGE_III, "mask": NAN}),
                             "component mask must be finite"),
    "stage_loss-ramp": (lambda: stage_loss(3, STAGE_III, ramp=NAN),
                        "ramp must be finite and non-negative"),
    "global_pool_concat-h": (lambda: global_pool_concat(_with_nan((2, 3), 4), np.zeros((2, 1))),
                             "h must be finite"),
    "global_pool_concat-f_geo": (lambda: global_pool_concat(np.zeros((2, 3)), _with_nan((2, 1))),
                                 "f_geo must be finite"),
}


@pytest.mark.parametrize("case", sorted(NAN_ARGUMENTS))
def test_nan_is_rejected_naming_the_argument(case):
    call, message = NAN_ARGUMENTS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# entry point -> call with a value just outside the domain of one argument
OUTSIDE = {
    "QuerySet-confidences-above": lambda: _queries((0.5, 1.0 + 1e-12)),
    "matching_cost-pred_soft-two": lambda: matching_cost(np.full((1, 3), 2.0), np.ones((1, 3))),
    "TriplaneStack-weights-negative": lambda: _stack(np.full((3, 2, 2), -1e-300)),
    "LossWeights-infinite": lambda: LossWeights(limit=math.inf),
    "triplet_loss-tau-infinite": lambda: triplet_loss(np.ones(2), np.ones(2), np.ones(2),
                                                      math.inf),
    "fscore-tau-zero": lambda: fscore(CLOUD, CLOUD, tau=0.0),
    "structure_loss-huge": lambda: structure_loss([[1e308, 1e308]], [0]),
    "structure_loss-index": lambda: structure_loss([[1.0, 0.0]], [2]),
    "pairwise_affinity-negative": lambda: pairwise_affinity([[1.5, -0.5]], np.eye(2)),
    "limits_from_range-huge": lambda: limits_from_range(-1e31, 0.0),
    "axis_error-infinite": lambda: axis_error([math.inf, 0, 0], [1, 0, 0]),
    "focal_loss-gt-two": lambda: focal_loss([0.5], [2.0]),
    "dice_loss-gt-negative": lambda: dice_loss([0.5], [-1.0]),
    "focal_loss-pred-two": lambda: focal_loss([2.0], [1.0]),
    "dice_loss-pred-negative": lambda: dice_loss([-1.0], [1.0]),
    "triplet_loss-h_c-infinite": lambda: _triplet(h_c=[math.inf, 1.0]),
    "confidence_loss-c_hat-infinite": lambda: confidence_loss(-math.inf, 0.5),
    "confidence_loss-beta-negative": lambda: confidence_loss(0.0, 0.5, beta=-1.0),
    "stage_loss-component-infinite": lambda: stage_loss(1, {"triplet": math.inf}),
    "stage_loss-ramp-negative": lambda: stage_loss(3, STAGE_III, ramp=-1e-300),
    "global_pool_concat-f_geo-infinite": lambda: global_pool_concat(np.zeros((1, 2)),
                                                                    [[math.inf]]),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE))
def test_a_value_outside_the_domain_is_rejected(case):
    with pytest.raises(ValueError, match=r" must be "):
        OUTSIDE[case]()


@pytest.mark.parametrize(
    "domain, low, high",
    [
        (FINITE, -np.finfo(float).max, np.finfo(float).max),
        (NON_NEGATIVE, 0.0, np.finfo(float).max),
        (UNIT_INTERVAL, 0.0, 1.0),
        (POSITIVE, 5e-324, np.finfo(float).max),
        (PROBABILITY, 0.0, 1.0 + PROB_ROW_TOL),
        (JOINT_MAGNITUDE, -MAX_JOINT_MAGNITUDE, MAX_JOINT_MAGNITUDE),
        (TREE_SCORE, -MAX_TREE_SCORE, MAX_TREE_SCORE),
    ],
    ids=["finite", "non-negative", "unit", "positive", "probability", "joint", "tree-score"],
)
def test_the_bounds_are_in_the_domain_and_their_neighbours_are_not(domain, low, high):
    assert domain[:2] == (low, high)
    for value in (low, high, [low, high]):
        _as_array(value, np.shape(value), "x", domain=domain)
    for value in (math.nextafter(low, -math.inf), math.nextafter(high, math.inf), NAN):
        with pytest.raises(ValueError) as info:
            _as_array(value, (), "x", domain=domain)
        assert str(info.value) == f"x must be {domain[2]}"


def test_public_entry_points_take_the_bounds():
    assert _queries((0.0, 1.0)).confidences.tolist() == [0.0, 1.0]
    assert len(filter_queries(_queries((0.0, 1.0)), 0.0)) == 2
    assert len(filter_queries(_queries((0.0, 1.0)), 1.0)) == 1
    assert confidence_loss(0.0, 0.0) > 0 and confidence_loss(0.0, 1.0) > 0
    assert _stack(np.zeros((3, 2, 2))).weights.max() == 0.0
    assert LossWeights(**{name: 0.0 for name in vars(LossWeights())}).mask == 0.0
    lim = limits_from_range(-MAX_JOINT_MAGNITUDE, MAX_JOINT_MAGNITUDE)
    assert (lim.center, lim.span) == (0.0, MAX_JOINT_MAGNITUDE)
    assert structure_loss([[1.0 + 5e-7, 0.0]], [0]) == pytest.approx(0.0, abs=1e-6)
    assert pairwise_affinity([[0.0, 1.0]], np.eye(2)).scores.tolist() == [[1.0]]
    assert ParentDistribution([[0.0, 1.0]]).probs.tolist() == [[0.0, 1.0]]
    assert fscore(CLOUD, CLOUD, tau=5e-324) == 1.0
    assert matching_cost([[0.0, 1.0]], [[False, True]]).shape == (1, 1)


@pytest.mark.parametrize("call", [
    lambda row: ParentDistribution([row]),
    lambda row: pairwise_affinity([row], np.eye(2)),
    lambda row: structure_loss([row], [1]),
], ids=["ParentDistribution", "pairwise_affinity", "structure_loss"])
def test_every_probability_row_keeps_one_row_sum_rule(call):
    call([0.0, 1.0 + 5e-7])  # within PROB_ROW_TOL of 1
    with pytest.raises(ValueError, match="rows must sum to 1"):
        call([0.0, 1.0 - 2 * PROB_ROW_TOL])


def test_matching_cost_reads_a_nonzero_gt_value_as_membership():
    pred = np.array([[0.2, 0.7, 0.9, 0.4]])
    fractional = matching_cost(pred, [[0.5, 0.0, 1.0, -2.0]])
    assert fractional.tobytes() == matching_cost(pred, [[True, False, True, True]]).tobytes()


def test_an_empty_array_passes_every_domain():
    for domain in (FINITE, UNIT_INTERVAL, POSITIVE):
        assert _as_array(np.zeros((0, 3)), ("M", 3), "x", domain=domain).shape == (0, 3)


def test_the_domain_check_copies_nothing():
    x = np.full((5, 3), 0.5)
    assert _as_array(x, ("M", 3), "x", domain=UNIT_INTERVAL) is x
    frozen = _frozen(x, ("M", 3), "x", domain=UNIT_INTERVAL)
    assert frozen is not x and not frozen.flags.writeable


# phrases of a range rule in an error message
RANGE_PHRASES = ("must be finite", "must lie in", "must be positive", "must be >= 0",
                 "must be nonnegative")
# (module, message text) of the raises that keep such a phrase, and why:
KEPT = {
    # a shape rule on the feature axis, not a value rule
    ("geometry.py", "feature dimension must be positive"),
    # one token of an OBJ file, named by its line
    ("meshio.py", ": face indices must be positive"),
}


def _raise_texts(path: Path):
    """Every string literal inside a ``raise`` statement of the module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            for part in ast.walk(node.exc):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield part.value


def test_the_value_message_has_one_home():
    src = Path(artikit.__file__).parent
    found = {(p.name, text) for p in sorted(src.glob("*.py")) for text in _raise_texts(p)
             if any(phrase in text for phrase in RANGE_PHRASES)}
    assert found == KEPT
    homes = sorted(p.name for p in src.glob("*.py") if "must be {rule}" in p.read_text())
    assert homes == ["model.py"]
