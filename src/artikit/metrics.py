"""Geometry and kinematics evaluation for articulated models.

The protocol samples a fixed number of articulation states per joint from the
model's own limits, poses both models state by state (the k-th predicted state
is compared against the k-th ground-truth state), accumulates Chamfer distance
and F-score, and computes joint metrics over a Hungarian matching of parts
established once on canonical-state hard masks.  Inputs are assumed to be
pre-aligned in the shared canonical frame.

Both mask sets come from one label rule: each canonical point is labelled
with the row (in sorted part-id order) of the part that owns it, or -1 for
the base, and mask row r holds the points labelled r.  The predicted labels
are read over the ground-truth points: index for index when the two
canonical clouds are equal, otherwise each ground-truth point takes the
label of its nearest predicted point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fan_out, _fmt
from .assignment import MatchResult, confidence_targets, hungarian, matching_cost
from .geometry import _sample_from_meshes, nearest_neighbor_distances, nearest_neighbors
from .kinematics import _norm, _product, part_transforms, pose, state_grid
from .model import (JOINT_MAGNITUDE, POSITIVE, ROOT_ID, ArticulatedModel, JointType, _as_array,
                    _int_domain)
from .model import require_valid  # unused: kept for perfbench/spans.py, which wraps it here

_PARALLEL_EPS = 1e-9

#: joint types whose axis direction is meaningful
_AXIS_TYPES = (JointType.REVOLUTE, JointType.PRISMATIC, JointType.CONTINUOUS)
#: joint types whose pivot is meaningful
_PIVOT_TYPES = (JointType.REVOLUTE, JointType.CONTINUOUS)


def _cloud(points, name) -> np.ndarray:
    pts = _as_array(points, ("M", 3), name, domain=JOINT_MAGNITUDE)
    if pts.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    return pts


def _cd_fscore(a: np.ndarray, b: np.ndarray, tau: float):
    """(Chamfer distance, F-score at tau) of two non-empty (M, 3) clouds of
    coordinates within ``JOINT_MAGNITUDE`` or posed from them.

    A twin is a row of one cloud equal to the row at the same index
    of the other (so ``-0.0`` matches ``0.0``); it is its own nearest
    neighbour at distance exactly 0 in both directions and is not queried.
    The other rows are queried against the whole other cloud, so every
    distance is the one a full query gives.  When every row is a twin no
    KD-tree is built.  The two directions run at once (``_fan_out``); SciPy
    releases the interpreter lock for the tree builds and queries.  The
    results are the serial ones.
    """
    d_ab, d_ba = np.zeros(len(a)), np.zeros(len(b))
    ask_a, ask_b = np.ones(len(a), dtype=bool), np.ones(len(b), dtype=bool)
    if a.shape == b.shape:
        ask_a = ask_b = ~(a == b).all(axis=1)
    d_ab[ask_a], d_ba[ask_b] = _fan_out([lambda: nearest_neighbor_distances(a[ask_a], b),
                                         lambda: nearest_neighbor_distances(b[ask_b], a)])
    cd = float(np.mean(d_ab**2) + np.mean(d_ba**2))
    precision = float(np.mean(d_ab < tau))
    recall = float(np.mean(d_ba < tau))
    if precision + recall == 0.0:
        return cd, 0.0
    return cd, 2.0 * precision * recall / (precision + recall)


def chamfer(a, b) -> float:
    """Symmetric sum of mean squared nearest-neighbor distances."""
    return _cd_fscore(_cloud(a, "a"), _cloud(b, "b"), math.inf)[0]


def fscore(a, b, tau: float = 0.05) -> float:
    """Harmonic mean of precision and recall at distance threshold tau."""
    tau = float(_as_array(tau, (), "tau", domain=POSITIVE))
    return _cd_fscore(_cloud(a, "a"), _cloud(b, "b"), tau)[1]


def axis_error(a_p, a_g) -> float:
    """Unsigned angular deviation between axis directions, in [0, pi/2]."""
    ap = _as_array(a_p, (3,), "a_p", domain=JOINT_MAGNITUDE)
    ag = _as_array(a_g, (3,), "a_g", domain=JOINT_MAGNITUDE)
    np_norm = _norm(ap)
    ng_norm = _norm(ag)
    if np_norm < _PARALLEL_EPS or ng_norm < _PARALLEL_EPS:
        raise ValueError("axis_error: zero-length axis")
    dot = float(_product(ap, ag)) / (np_norm * ng_norm)
    dot = min(1.0, max(-1.0, dot))
    return min(math.acos(dot), math.acos(-dot))


def pivot_error(o_p, a_p, o_g, a_g) -> float:
    """Distance between predicted and ground-truth pivot along the common
    perpendicular of the two axis lines.

    For (near-)parallel axes the formula degenerates, so the point-to-line
    distance from the predicted pivot to the ground-truth axis line is used;
    that is the limit of the generic formula under an infinitesimal axis
    perturbation in the common-perpendicular direction.
    """
    op = _as_array(o_p, (3,), "o_p", domain=JOINT_MAGNITUDE)
    og = _as_array(o_g, (3,), "o_g", domain=JOINT_MAGNITUDE)
    ap = _as_array(a_p, (3,), "a_p", domain=JOINT_MAGNITUDE)
    ag = _as_array(a_g, (3,), "a_g", domain=JOINT_MAGNITUDE)
    if _norm(ap) < _PARALLEL_EPS or _norm(ag) < _PARALLEL_EPS:
        raise ValueError("pivot_error: zero-length axis")
    cross = np.cross(ap, ag)
    cross_norm = _norm(cross)
    if cross_norm > _PARALLEL_EPS:
        return abs(float(_product(op - og, cross))) / cross_norm
    unit_g = ag / _norm(ag)
    delta = op - og
    return _norm(delta - float(_product(delta, unit_g)) * unit_g)


def type_accuracy(match: MatchResult, pred_types, gt_types):
    """Fraction of matched pairs with equal joint type; None when nothing matched."""
    pred_types = list(pred_types)
    gt_types = list(gt_types)
    if not match.pairs:
        return None
    for q, g in match.pairs:
        if not (0 <= q < len(pred_types) and 0 <= g < len(gt_types)):
            raise ValueError(f"match pair ({q}, {g}) outside the type lists")
    hits = sum(1 for q, g in match.pairs if pred_types[q] is gt_types[g])
    return hits / len(match.pairs)


@dataclass
class MetricReport:
    """Per-state geometry metrics, their means, and matched-joint kinematics."""

    per_state: list
    cd_mean: float
    fscore_mean: float
    type_accuracy: object
    axis_errors: list
    pivot_errors: list
    axis_err_mean: object
    pivot_err_mean: object
    per_joint: list
    matching: MatchResult

    def to_dict(self) -> dict:
        return {
            "cd_mean": self.cd_mean,
            "fscore_mean": self.fscore_mean,
            "type_accuracy": self.type_accuracy,
            "axis_err_mean": self.axis_err_mean,
            "pivot_err_mean": self.pivot_err_mean,
            "per_state": self.per_state,
            "per_joint": self.per_joint,
        }

    def to_json(self) -> str:
        return _fmt.dumps(self.to_dict())


def _mean_or_none(values):
    if not values:
        return None
    return float(sum(values) / len(values))


def _surface(model: ArticulatedModel, meshes, n_points: int, seed: int):
    """(points, owner) of one model: its own canonical points and part
    ownership, or ``n_points`` sampled from ``meshes``, a map from part id
    (and ``ROOT_ID`` for the base) to mesh that covers every part."""
    if meshes is None:
        return model.points, {part.id: part.point_indices for part in model.parts}
    part_ids = [part.id for part in model.parts]
    missing = [pid for pid in part_ids if pid not in meshes]
    if missing:
        raise ValueError(f"no mesh for part {missing[0]}")
    unknown = sorted(set(meshes) - set(part_ids) - {ROOT_ID})
    if unknown:
        raise ValueError(f"mesh ids {unknown} are neither part ids nor the base id {ROOT_ID}")
    points, owner = _sample_from_meshes(meshes, n_points, seed)
    owner.pop(ROOT_ID, None)
    return points, owner


def _labels(owner, ids, n: int) -> np.ndarray:
    """Row of ``ids`` whose part owns each of ``n`` points; -1 for the base."""
    labels = np.full(n, -1, dtype=np.int64)
    for row, pid in enumerate(ids):
        labels[owner[pid]] = row
    return labels


def evaluate(
    pred: ArticulatedModel,
    gt: ArticulatedModel,
    pred_meshes=None,
    gt_meshes=None,
    n_states: int = 6,
    n_points: int = 100000,
    tau: float = 0.05,
    seed: int = 0,
) -> MetricReport:
    """Run the full state-averaged evaluation protocol.

    Geometry: both models are posed at ``n_states`` states sampled from their
    own joint limits and compared per state with Chamfer distance and F-score,
    then averaged.  Kinematics: parts are Hungarian-matched on canonical hard
    masks; type accuracy and per-pair axis/pivot errors are aggregated over
    the pairs where they are defined; ``tau`` must be positive.  A model
    given ``meshes`` is evaluated on ``n_points`` (at least 1) points sampled
    from them with ``seed``; otherwise on its own points.
    """
    tau = float(_as_array(tau, (), "tau", domain=POSITIVE))
    n_points = int(_as_array(n_points, (), "n_points", np.int64, _int_domain(1)))

    pred_points, pred_owner = _surface(pred, pred_meshes, n_points, seed)
    gt_points, gt_owner = _surface(gt, gt_meshes, n_points, seed)

    per_state = []
    for pred_state, gt_state in zip(state_grid(pred, n_states), state_grid(gt, n_states)):
        pred_cloud = pose(pred_points, pred_owner, part_transforms(pred, pred_state))
        gt_cloud = pose(gt_points, gt_owner, part_transforms(gt, gt_state))
        cd, fs = _cd_fscore(pred_cloud, gt_cloud, tau)
        per_state.append({"cd": cd, "fscore": fs})

    cd_mean = float(sum(s["cd"] for s in per_state) / len(per_state))
    fscore_mean = float(sum(s["fscore"] for s in per_state) / len(per_state))

    pred_ids = sorted(p.id for p in pred.parts)
    gt_ids = sorted(p.id for p in gt.parts)
    pred_labels = _labels(pred_owner, pred_ids, len(pred_points))
    if not np.array_equal(pred_points, gt_points):
        pred_labels = pred_labels[nearest_neighbors(gt_points, pred_points)[1]]
    pred_masks = pred_labels == np.arange(len(pred_ids))[:, None]
    gt_masks = _labels(gt_owner, gt_ids, len(gt_points)) == np.arange(len(gt_ids))[:, None]

    match = hungarian(matching_cost(pred_masks, gt_masks))
    iou = confidence_targets(pred_masks, gt_masks, match)

    pred_types = [pred.part_by_id(pid).joint.jtype for pid in pred_ids]
    gt_types = [gt.part_by_id(gid).joint.jtype for gid in gt_ids]
    acc = type_accuracy(match, pred_types, gt_types)

    axis_errors = []
    pivot_errors = []
    per_joint = []
    for q, g in match.pairs:
        pj = pred.part_by_id(pred_ids[q]).joint
        gj = gt.part_by_id(gt_ids[g]).joint
        entry = {
            "pred_part": pred_ids[q],
            "gt_part": gt_ids[g],
            "type_match": pj.jtype is gj.jtype,
            "iou": float(iou[q]),
            "axis_err": None,
            "pivot_err": None,
        }
        if pj.jtype in _AXIS_TYPES and gj.jtype in _AXIS_TYPES:
            err = axis_error(pj.axis, gj.axis)
            entry["axis_err"] = err
            axis_errors.append(err)
        if pj.jtype in _PIVOT_TYPES and gj.jtype in _PIVOT_TYPES:
            err = pivot_error(pj.pivot, pj.axis, gj.pivot, gj.axis)
            entry["pivot_err"] = err
            pivot_errors.append(err)
        per_joint.append(entry)

    return MetricReport(
        per_state=per_state,
        cd_mean=cd_mean,
        fscore_mean=fscore_mean,
        type_accuracy=acc,
        axis_errors=axis_errors,
        pivot_errors=pivot_errors,
        axis_err_mean=_mean_or_none(axis_errors),
        pivot_err_mean=_mean_or_none(pivot_errors),
        per_joint=per_joint,
        matching=match,
    )
