"""Geometry and kinematics evaluation for articulated models.

The protocol samples a fixed number of articulation states per joint from the
model's own limits, poses both models state by state (the k-th predicted state
is compared against the k-th ground-truth state), accumulates Chamfer distance
and F-score, and computes joint metrics over a Hungarian matching of parts
established once on canonical-state hard masks.  Inputs are assumed to be
pre-aligned in the shared canonical frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fan_out, _fmt
from .assignment import MatchResult, confidence_targets, hungarian, matching_cost
from .errors import GeometryError
from .geometry import nearest_neighbor_distances, nearest_neighbors, sample_surface_points
from .kinematics import part_transforms, pose, sample_states
from .model import FINITE, POSITIVE, ROOT_ID, ArticulatedModel, JointType, _as_array
from .model import require_valid  # unused: kept for perfbench/spans.py, which wraps it here

_PARALLEL_EPS = 1e-9

#: joint types whose axis direction is meaningful
_AXIS_TYPES = (JointType.REVOLUTE, JointType.PRISMATIC, JointType.CONTINUOUS)
#: joint types whose pivot is meaningful
_PIVOT_TYPES = (JointType.REVOLUTE, JointType.CONTINUOUS)


def _cloud(points, name) -> np.ndarray:
    pts = _as_array(points, ("M", 3), name)
    if pts.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    return pts


def _cd_fscore(a: np.ndarray, b: np.ndarray, tau: float):
    """(Chamfer distance, F-score at tau) of two non-empty (M, 3) clouds.

    A twin is a finite row of one cloud equal to the row at the same index
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
        # a non-finite row stays queried, so the KD-tree still rejects it
        ask_a = ask_b = ~((a == b).all(axis=1) & np.isfinite(a).all(axis=1))
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
    ap = _as_array(a_p, (3,), "a_p", domain=FINITE)
    ag = _as_array(a_g, (3,), "a_g", domain=FINITE)
    np_norm = float(np.linalg.norm(ap))
    ng_norm = float(np.linalg.norm(ag))
    if np_norm < _PARALLEL_EPS or ng_norm < _PARALLEL_EPS:
        raise ValueError("axis_error: zero-length axis")
    dot = float(np.dot(ap, ag)) / (np_norm * ng_norm)
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
    op = _as_array(o_p, (3,), "o_p", domain=FINITE)
    og = _as_array(o_g, (3,), "o_g", domain=FINITE)
    ap = _as_array(a_p, (3,), "a_p", domain=FINITE)
    ag = _as_array(a_g, (3,), "a_g", domain=FINITE)
    if float(np.linalg.norm(ap)) < _PARALLEL_EPS or float(np.linalg.norm(ag)) < _PARALLEL_EPS:
        raise ValueError("pivot_error: zero-length axis")
    cross = np.cross(ap, ag)
    cross_norm = float(np.linalg.norm(cross))
    if cross_norm > _PARALLEL_EPS:
        return abs(float(np.dot(op - og, cross))) / cross_norm
    unit_g = ag / float(np.linalg.norm(ag))
    delta = op - og
    return float(np.linalg.norm(delta - float(np.dot(delta, unit_g)) * unit_g))


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

    def to_json(self, indent: int | None = 2) -> str:
        return _fmt.dumps(self.to_dict(), indent=indent)


def _mean_or_none(values):
    if not values:
        return None
    return float(sum(values) / len(values))


class _ShapeSource:
    """Canonical point cloud of one model plus per-part point ownership."""

    def __init__(self, model: ArticulatedModel, meshes, n_points: int, seed: int):
        self.model = model
        if meshes is None:
            self.points = np.asarray(model.points, dtype=np.float64)
            self.owner = {part.id: part.point_indices for part in model.parts}
        else:
            self.points, self.owner = _sample_from_meshes(model, meshes, n_points, seed)
        if self.points.shape[0] == 0:
            raise GeometryError("model has no surface points to evaluate")

    def posed(self, state) -> np.ndarray:
        return pose(self.points, self.owner, part_transforms(self.model, state))

    def part_masks(self, part_ids) -> np.ndarray:
        masks = np.zeros((len(part_ids), self.points.shape[0]), dtype=bool)
        for row, pid in enumerate(part_ids):
            masks[row, self.owner[pid]] = True
        return masks


def _sample_from_meshes(model, meshes, n_points, seed):
    """Sample n_points across per-part meshes proportionally to surface area.

    ``meshes`` maps part ids (plus ROOT_ID for the base, optional) to TriMesh.
    Counts use largest-remainder rounding; each mesh is sampled with a seed
    offset by its position in sorted-id order, so results are deterministic.
    """
    ids = sorted(meshes)
    missing = [p.id for p in model.parts if p.id not in meshes]
    if missing:
        raise ValueError(f"no mesh for part {missing[0]}")
    areas = np.array([float(meshes[i].face_areas().sum()) for i in ids])
    if areas.sum() <= 0:
        raise GeometryError("degenerate meshes: total surface area is zero")
    share = areas / areas.sum() * int(n_points)
    counts = np.floor(share).astype(int)
    remainder = int(n_points) - int(counts.sum())
    for pos in np.argsort(-(share - counts), kind="stable")[:remainder]:
        counts[pos] += 1

    chunks = []
    owner = {}
    offset = 0
    for pos, mid in enumerate(ids):
        if counts[pos] == 0:
            idx = np.zeros(0, dtype=np.int64)
        else:
            chunk = sample_surface_points(meshes[mid], int(counts[pos]), seed=int(seed) + pos)
            chunks.append(chunk)
            idx = np.arange(offset, offset + chunk.shape[0], dtype=np.int64)
            offset += chunk.shape[0]
        if mid != ROOT_ID:
            owner[mid] = idx
    for part in model.parts:
        owner.setdefault(part.id, np.zeros(0, dtype=np.int64))
    points = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 3))
    return points, owner


def _transfer_masks(pred_src: _ShapeSource, gt_src: _ShapeSource, pred_ids):
    """Predicted part masks over the GT canonical points.

    When both models share an identical canonical cloud the masks transfer
    index-for-index; otherwise each GT point adopts the part label of its
    nearest predicted canonical point.
    """
    if np.array_equal(pred_src.points, gt_src.points):
        return pred_src.part_masks(pred_ids)
    labels = np.full(pred_src.points.shape[0], -1, dtype=np.int64)
    for row, pid in enumerate(pred_ids):
        labels[pred_src.owner[pid]] = row
    _, nearest = nearest_neighbors(gt_src.points, pred_src.points)
    gt_labels = labels[nearest]
    masks = np.zeros((len(pred_ids), gt_src.points.shape[0]), dtype=bool)
    for row in range(len(pred_ids)):
        masks[row] = gt_labels == row
    return masks


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
    the pairs where they are defined; ``tau`` must be positive.
    """
    tau = float(_as_array(tau, (), "tau", domain=POSITIVE))

    pred_src = _ShapeSource(pred, pred_meshes, n_points, seed)
    gt_src = _ShapeSource(gt, gt_meshes, n_points, seed)

    pred_values = {
        p.id: sample_states(p.joint.limits, p.joint.jtype, n_states) for p in pred.parts
    }
    gt_values = {
        p.id: sample_states(p.joint.limits, p.joint.jtype, n_states) for p in gt.parts
    }

    per_state = []
    for k in range(int(n_states)):
        pred_cloud = pred_src.posed({pid: v[k] for pid, v in pred_values.items()})
        gt_cloud = gt_src.posed({pid: v[k] for pid, v in gt_values.items()})
        cd, fs = _cd_fscore(pred_cloud, gt_cloud, tau)
        per_state.append({"cd": cd, "fscore": fs})

    cd_mean = float(sum(s["cd"] for s in per_state) / len(per_state))
    fscore_mean = float(sum(s["fscore"] for s in per_state) / len(per_state))

    pred_ids = sorted(p.id for p in pred.parts)
    gt_ids = sorted(p.id for p in gt.parts)
    pred_masks = _transfer_masks(pred_src, gt_src, pred_ids)
    gt_masks = gt_src.part_masks(gt_ids)

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
