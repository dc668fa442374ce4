"""Reference scalar kernels for every training objective, with default weights.

These are pure functions of their inputs: no gradients, no schedules.  Mean
reductions are over points for mask-style losses and over matched queries for
motion and structure losses, keeping magnitudes independent of M and N_q.
Probabilities are clamped to [1e-7, 1 - 1e-7] before logs; vector norms below
1e-12 are errors, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (FINITE, JOINT_MAGNITUDE, JOINT_TYPE_ORDER, NON_NEGATIVE, POSITIVE,
                    UNIT_INTERVAL, JointLimits, JointSpec, JointType, _as_array, _frozen,
                    _int_domain, _prob_rows, _value_eq)

PROB_CLAMP = 1e-7
DICE_EPS = 1e-6
NORM_EPS = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Objective weights; defaults are the published training configuration."""

    triplet: float = 0.2
    mask: float = 1.0
    score: float = 1.0
    motion: float = 1.0
    type: float = 1.0
    dir: float = 1.0
    origin: float = 1.0
    limit: float = 1.0

    def __post_init__(self):
        for name, value in self.__dict__.items():
            _as_array(value, (), f"loss weight {name}", domain=NON_NEGATIVE)


DEFAULT_WEIGHTS = LossWeights()


def _clamp_prob(p, out=None) -> np.ndarray:
    """``p`` clamped to [PROB_CLAMP, 1 - PROB_CLAMP] before a log, into ``out`` if given."""
    return np.clip(np.asarray(p, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP, out=out)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < NORM_EPS or nb < NORM_EPS:
        raise ValueError("zero-norm embedding in cosine similarity")
    return float(np.dot(a, b)) / (na * nb)


def triplet_loss(h_a, h_b, h_c, tau: float) -> float:
    """Contrastive triplet loss on exp(cos/tau) similarities.

    (h_a, h_b) are embeddings of the same part, h_c of a different one; all
    three are vectors of one length.
    """
    tau = float(_as_array(tau, (), "tau", domain=POSITIVE))
    a = _as_array(h_a, ("d",), "h_a", domain=JOINT_MAGNITUDE)
    b = _as_array(h_b, a.shape, "h_b", domain=JOINT_MAGNITUDE)
    c = _as_array(h_c, a.shape, "h_c", domain=JOINT_MAGNITUDE)
    x_ab = _cosine(a, b) / tau
    x_ac = _cosine(a, c) / tau
    x_bc = _cosine(b, c) / tau
    # log(s_ab / (s_ab + s_xy)) = x_ab - logaddexp(x_ab, x_xy)
    term_ac = x_ab - np.logaddexp(x_ab, x_ac)
    term_bc = x_ab - np.logaddexp(x_ab, x_bc)
    return float(-0.5 * (term_ac + term_bc))


def focal_loss(pred, gt, gamma: float = 2.0) -> float:
    """Mean focal loss -(1 - p_t)^gamma * log(p_t) over mask points."""
    pred = _clamp_prob(_as_array(pred, np.shape(pred), "pred", domain=UNIT_INTERVAL))
    gt = _as_array(gt, pred.shape, "gt", domain=UNIT_INTERVAL)
    gamma = float(_as_array(gamma, (), "gamma", domain=NON_NEGATIVE))
    p_t = np.where(gt > 0.5, pred, 1.0 - pred)
    return float(np.mean(-((1.0 - p_t) ** gamma) * np.log(p_t)))


def dice_loss(pred, gt) -> float:
    """1 - 2*sum(p*g) / (sum(p) + sum(g) + eps)."""
    pred = _as_array(pred, np.shape(pred), "pred", domain=UNIT_INTERVAL)
    gt = _as_array(gt, pred.shape, "gt", domain=UNIT_INTERVAL)
    inter = float(np.sum(pred * gt))
    return 1.0 - 2.0 * inter / (float(pred.sum()) + float(gt.sum()) + DICE_EPS)


def confidence_loss(c_hat: float, u: float, beta: float = 2.0) -> float:
    """Quality-focal confidence loss |sigma(c) - u|^beta * BCE(sigma(c), u)."""
    c_hat = float(_as_array(c_hat, (), "c_hat", domain=FINITE))
    u = float(_as_array(u, (), "target u", domain=UNIT_INTERVAL))
    beta = float(_as_array(beta, (), "beta", domain=NON_NEGATIVE))
    # exp overflows for c_hat below about -709.8; sigma is clamped long before
    sig = 1.0 / (1.0 + math.exp(min(-c_hat, 700.0)))
    sig = float(_clamp_prob(sig))
    bce = -u * math.log(sig) - (1.0 - u) * math.log(1.0 - sig)
    return abs(sig - u) ** beta * bce


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # a gap past the float range reads -inf
        shifted = logits - logits.max()
        return shifted - math.log(float(np.exp(shifted).sum()))


@dataclass(frozen=True, eq=False)
class MotionPrediction:
    """Raw regression outputs for one query's joint parameters."""

    type_logits: np.ndarray
    axis: np.ndarray
    pivot: np.ndarray
    center: float
    span: float

    __eq__ = _value_eq

    def __post_init__(self):
        shapes = {"type_logits": ("T",), "axis": (3,), "pivot": (3,), "center": (), "span": ()}
        for name, shape in shapes.items():
            value = _frozen(getattr(self, name), shape, name, domain=JOINT_MAGNITUDE)
            object.__setattr__(self, name, value if shape else float(value))


def motion_loss(pred: MotionPrediction, gt: JointSpec, weights: LossWeights = DEFAULT_WEIGHTS):
    """Joint supervision: type CE, unsigned axis cosine, pivot L1, center-span L1.

    Returns (total, breakdown) where breakdown holds the unweighted terms
    keyed "type", "dir", "origin", "limit".
    """
    gt_index = JOINT_TYPE_ORDER.index(gt.jtype)
    if pred.type_logits.size <= gt_index:
        raise ValueError("type_logits must cover every joint type")
    l_type = float(-_log_softmax(pred.type_logits)[gt_index])

    na = float(np.linalg.norm(pred.axis))
    ng = float(np.linalg.norm(gt.axis))
    if na < NORM_EPS:
        raise ValueError("predicted axis has zero norm")
    if ng < NORM_EPS:
        raise ValueError("ground-truth axis has zero norm")
    l_dir = 1.0 - abs(float(np.dot(pred.axis, gt.axis)) / (na * ng))

    l_origin = float(np.abs(pred.pivot - gt.pivot).sum())
    l_limit = abs(pred.center - gt.limits.center) + abs(pred.span - gt.limits.span)

    breakdown = {"type": l_type, "dir": l_dir, "origin": l_origin, "limit": l_limit}
    total = (
        weights.type * l_type
        + weights.dir * l_dir
        + weights.origin * l_origin
        + weights.limit * l_limit
    )
    return float(_as_array(total, (), "motion loss", domain=FINITE)), breakdown


def structure_loss(parent_probs, gt_parents) -> float:
    """Mean negative log-probability of the true parent over matched queries."""
    probs = _prob_rows(parent_probs, ("R", "C"), "parent_probs")
    gt = _as_array(gt_parents, (probs.shape[0],), "gt_parents", np.int64,
                   _int_domain(0, probs.shape[1] - 1))
    if probs.shape[0] == 0:
        raise ValueError("structure loss needs at least one matched query")
    picked = probs[np.arange(probs.shape[0]), gt]
    # a floor, not _clamp_prob: a one-hot row must give exactly 0 (see selftest)
    return float(np.mean(-np.log(np.maximum(picked, PROB_CLAMP))))


def object_category_loss(logits, gt_index: int) -> float:
    """Softmax cross-entropy for the auxiliary object-category head."""
    logits = _as_array(logits, ("C",), "logits", domain=FINITE)
    gt_index = int(_as_array(gt_index, (), "gt_index", np.int64, _int_domain(0, logits.size - 1)))
    loss = -_log_softmax(logits)[gt_index]
    return float(_as_array(loss, (), "object category loss", domain=FINITE))


_STAGE_TERMS = {1: ("triplet",), 2: ("obj",), 3: ("triplet", "mask", "score", "motion"), 4: ("struct",)}


def stage_loss(stage: int, components, weights: LossWeights = DEFAULT_WEIGHTS, ramp: float = 1.0) -> float:
    """Combined objective of one training stage.

    Stages I, II and IV are single unweighted terms; stage III is the weighted
    sum of triplet, mask, score and ramp-scaled motion losses.
    """
    stage = int(_as_array(stage, (), "stage", np.int64, _int_domain(1, 4)))
    missing = [name for name in _STAGE_TERMS[stage] if name not in components]
    if missing:
        raise ValueError(f"stage {stage} missing component {missing[0]!r}")
    terms = {name: float(_as_array(components[name], (), f"component {name}", domain=FINITE))
             for name in _STAGE_TERMS[stage]}
    ramp = float(_as_array(ramp, (), "ramp", domain=NON_NEGATIVE))
    if stage != 3:
        return terms[_STAGE_TERMS[stage][0]]
    total = (
        weights.triplet * terms["triplet"]
        + weights.mask * terms["mask"]
        + weights.score * terms["score"]
        + ramp * weights.motion * terms["motion"]
    )
    return float(_as_array(total, (), "stage loss", domain=FINITE))


# ---------------------------------------------------------------------------
# self-test: the documented closed-form examples, runnable from the CLI


def _bce_mean(pred, gt) -> float:
    pred = _clamp_prob(pred)
    gt = np.asarray(gt, dtype=np.float64)
    return float(np.mean(-(gt * np.log(pred) + (1.0 - gt) * np.log(1.0 - pred))))


def selftest() -> list:
    """Evaluate every documented kernel example; returns rows of
    {name, value, expected, tol, passed}."""
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    neg = np.array([-1.0, 0.0])
    half = np.full(4, 0.5)
    half_gt = np.array([1.0, 1.0, 0.0, 0.0])

    door = JointSpec(
        JointType.REVOLUTE, [0, 0, 1], [0.0, 0.0, 0.0], limits=JointLimits(0.5, 0.25)
    )
    motion_exact, _ = motion_loss(
        MotionPrediction([0.0, 30.0, 0.0, 0.0], [0, 0, 1], [0.0, 0.0, 0.0], 0.5, 0.25), door
    )
    _, flip = motion_loss(
        MotionPrediction([0.0, 30.0, 0.0, 0.0], [0, 0, -1], [0.0, 0.0, 0.0], 0.5, 0.25), door
    )
    _, perp = motion_loss(
        MotionPrediction([0.0, 30.0, 0.0, 0.0], [1, 0, 0], [0.1, -0.2, 0.0], 0.5, 0.25), door
    )

    rows = [
        ("triplet/degenerate", triplet_loss(e1, e1, e1, tau=0.7), math.log(2.0), 1e-6),
        ("triplet/antipodal", triplet_loss(e1, e1, neg, tau=1.0), math.log(1.0 + math.exp(-2.0)), 1e-6),
        ("focal/at-0.5", focal_loss(half, half_gt, gamma=2.0), 0.25 * math.log(2.0), 1e-6),
        (
            "focal/gamma-0-is-bce",
            focal_loss(np.array([0.3, 0.8, 0.6]), np.array([0.0, 1.0, 1.0]), gamma=0.0)
            - _bce_mean(np.array([0.3, 0.8, 0.6]), np.array([0.0, 1.0, 1.0])),
            0.0,
            1e-12,
        ),
        ("dice/half-overlap", dice_loss(half, half_gt), 0.5, 1e-6),
        ("dice/identical", dice_loss(half_gt, half_gt), 0.0, 1e-6),
        ("confidence/at-0.5-u1", confidence_loss(0.0, 1.0, beta=2.0), 0.25 * math.log(2.0), 1e-6),
        ("confidence/sigma-equals-u", confidence_loss(0.0, 0.5, beta=2.0), 0.0, 1e-12),
        ("motion/exact", motion_exact, 0.0, 1e-6),
        ("motion/flipped-axis-dir", flip["dir"], 0.0, 1e-12),
        ("motion/perpendicular-dir", perp["dir"], 1.0, 1e-12),
        ("motion/origin-l1", perp["origin"], 0.3, 1e-12),
        ("structure/one-hot", structure_loss(np.array([e1]), np.array([0])), 0.0, 1e-12),
        ("structure/uniform-4", structure_loss(np.full((1, 4), 0.25), np.array([2])), math.log(4.0), 1e-6),
        (
            "structure/mean-of-two",
            structure_loss(np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([0, 1])),
            0.5 * math.log(2.0),
            1e-6,
        ),
        ("object/uniform-5", object_category_loss(np.zeros(5), 3), math.log(5.0), 1e-6),
        ("object/saturated", object_category_loss(np.array([30.0, 0.0, 0.0]), 0), 0.0, 1e-6),
        (
            "stage-iii/defaults",
            stage_loss(3, {"triplet": 1.0, "mask": 1.0, "score": 1.0, "motion": 1.0}, ramp=1.0),
            3.2,
            1e-9,
        ),
        ("stage-i/identity", stage_loss(1, {"triplet": 0.7}), 0.7, 1e-12),
    ]
    return [
        {
            "name": name,
            "value": float(value),
            "expected": float(expected),
            "tol": tol,
            "passed": abs(float(value) - float(expected)) <= tol,
        }
        for name, value, expected, tol in rows
    ]
