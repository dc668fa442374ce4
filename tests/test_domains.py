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
from artikit.assignment import QuerySet, SoftMaskSet, filter_queries, hungarian
from artikit.geometry import TriplaneStack
from artikit.kinematics import (
    MAX_TREE_SCORE,
    TREE_SCORE,
    AffinityMatrix,
    ParentDistribution,
    limits_from_range,
    pairwise_affinity,
)
from artikit.losses import LossWeights, confidence_loss, structure_loss, triplet_loss
from artikit.metrics import evaluate, fscore
from artikit.model import (
    FINITE,
    JOINT_MAGNITUDE,
    MAX_JOINT_MAGNITUDE,
    NON_NEGATIVE,
    POSITIVE,
    PROB_ROW_TOL,
    PROBABILITY,
    UNIT_INTERVAL,
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
    "TriplaneStack-weights-negative": lambda: _stack(np.full((3, 2, 2), -1e-300)),
    "LossWeights-infinite": lambda: LossWeights(dice=math.inf),
    "triplet_loss-tau-infinite": lambda: triplet_loss(np.ones(2), np.ones(2), np.ones(2),
                                                      math.inf),
    "fscore-tau-zero": lambda: fscore(CLOUD, CLOUD, tau=0.0),
    "structure_loss-huge": lambda: structure_loss([[1e308, 1e308]], [0]),
    "structure_loss-index": lambda: structure_loss([[1.0, 0.0]], [2]),
    "pairwise_affinity-negative": lambda: pairwise_affinity([[1.5, -0.5]], np.eye(2)),
    "limits_from_range-huge": lambda: limits_from_range(-1e31, 0.0),
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
