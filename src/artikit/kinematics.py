"""Forward kinematics, articulation-state sampling and kinematic-tree construction.

Joint values are absolute displacements from the canonical pose (value 0),
radians for revolute/continuous joints and normalized lengths for prismatic
joints.  Transforms compose in the shared canonical frame: a part's own joint
transform is applied first, then its parent's, and so on up to the root, so a
parent's motion carries all of its descendants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FINITE,
    JOINT_MAGNITUDE,
    ROOT_ID,
    ArticulatedModel,
    JointLimits,
    JointSpec,
    JointType,
    KinematicTree,
    _as_array,
    _int_domain,
    _magnitude,
    _prob_rows,
    _product,
    _tree_walk,
    _value_eq,
    require_valid,  # unused: kept for perfbench/spans.py, which wraps it here
)

LIMIT_TOL = 1e-9

#: largest magnitude of a compatibility or root score that ``artikit tree``
#: accepts.  Affinities are probability-weighted means of compatibility
#: entries, so no value the softmax computes exceeds about twice the bound,
#: far below float overflow.
MAX_TREE_SCORE = 1e300
TREE_SCORE = _magnitude(MAX_TREE_SCORE)

TWO_PI = 2.0 * math.pi


def _apply(transform, points) -> np.ndarray:
    """The rigid transform ``(R, t)`` applied to one point ``(3,)`` or each row
    of ``(M, 3)``: ``out[..., i] = x*R[i,0] + y*R[i,1] + z*R[i,2] + t[i]``."""
    rot, trans = transform
    return _product(points, rot.T) + trans


def _rodrigues(axis: np.ndarray, angle: float) -> np.ndarray:
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * _product(k, k)


def _check_limit(joint: JointSpec, value: float) -> None:
    if joint.jtype is JointType.CONTINUOUS:
        return
    if joint.jtype is JointType.FIXED:
        if abs(value) > LIMIT_TOL:
            raise ValueError(f"fixed joint only admits value 0, got {value!r}")
        return
    if abs(value) <= LIMIT_TOL:
        # value 0 is the canonical pose and is always admissible, even for
        # joints whose motion range does not include 0
        return
    lo, hi = joint.limits.lower, joint.limits.upper
    if not (lo - LIMIT_TOL <= value <= hi + LIMIT_TOL):
        raise ValueError(
            f"joint value {value!r} outside limits [{lo!r}, {hi!r}]"
        )


def joint_transform(joint: JointSpec, value: float):
    """Rigid transform (R, t) of a joint at the given value; x -> R x + t."""
    value = float(_as_array(value, (), "joint value", domain=FINITE))
    _check_limit(joint, value)
    if joint.jtype is JointType.FIXED:
        return np.eye(3), np.zeros(3)
    if joint.jtype is JointType.PRISMATIC:
        return np.eye(3), value * joint.axis
    rot = _rodrigues(joint.axis, value)
    return rot, joint.pivot - _product(rot, joint.pivot)


def apply_joint(joint: JointSpec, value: float, points) -> np.ndarray:
    """Transform one point ``(3,)`` or a cloud ``(M, 3)`` by one joint: identity,
    translation, or rotation about the axis line through the pivot."""
    shape = (3,) if np.ndim(points) == 1 else ("M", 3)
    pts = _as_array(points, shape, "points", domain=JOINT_MAGNITUDE)
    return _apply(joint_transform(joint, value), pts)


def _state_count(n) -> int:
    return int(_as_array(n, (), "state count", np.int64, _int_domain(2)))


def sample_states(limits: JointLimits, jtype: JointType, n: int = 6) -> np.ndarray:
    """n joint values spanning the motion range.

    Fixed -> zeros; revolute/prismatic -> inclusive linspace over
    [center - span, center + span]; continuous -> uniform half-open [0, 2*pi).
    """
    n, jtype = _state_count(n), JointType(jtype)
    if jtype is JointType.FIXED:
        return np.zeros(n)
    if jtype is JointType.CONTINUOUS:
        return np.arange(n) * (TWO_PI / n)
    return np.linspace(limits.lower, limits.upper, n)


def state_grid(model: ArticulatedModel, n) -> list:
    """The ``n`` protocol states of ``model``: state k maps each part id to the
    k-th ``sample_states`` value of its joint.  Fewer than 2 states raise
    ``ValueError`` for every model, one without parts too."""
    n = _state_count(n)
    values = {p.id: sample_states(p.joint.limits, p.joint.jtype, n) for p in model.parts}
    return [{pid: float(v[k]) for pid, v in values.items()} for k in range(n)]


def part_transforms(model: ArticulatedModel, state) -> dict:
    """Composed rigid transform per part id at the given state.

    ``state`` maps part id -> joint value and must cover every part.
    """
    parts = {p.id: p for p in model.parts}
    missing = [pid for pid in parts if pid not in state]
    if missing:
        raise ValueError(f"missing state value for part {missing[0]}")

    own = {pid: joint_transform(part.joint, state[pid]) for pid, part in parts.items()}
    composed = {ROOT_ID: (np.eye(3), np.zeros(3))}
    for pid in _tree_walk(model.tree.parent)[0]:  # parents first
        parent = composed[model.tree.parent[pid]]
        r, t = own[pid]
        composed[pid] = (_product(parent[0], r), _apply(parent, t))
    del composed[ROOT_ID]
    return composed


def pose(points, owner, transforms) -> np.ndarray:
    """Move the points each part owns by that part's transform; the rest stay.

    ``owner`` maps part id -> point indices and ``transforms`` maps part id ->
    ``(R, t)`` as from ``part_transforms``.
    """
    out = points.copy()
    for pid, idx in owner.items():
        out[idx] = _apply(transforms[pid], points[idx])
    return out


def articulate(model: ArticulatedModel, state) -> np.ndarray:
    """Pose the model's canonical points at the given state; base points stay."""
    owner = {part.id: part.point_indices for part in model.parts}
    return pose(model.points, owner, part_transforms(model, state))


def canonical_state(model: ArticulatedModel) -> dict:
    return {part.id: 0.0 for part in model.parts}


# ---------------------------------------------------------------------------
# tree construction from part-category probabilities


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """scores[i, j] = attachment score of part j as parent of part i."""

    scores: np.ndarray
    root_scores: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        scores = _as_array(self.scores, ("N", "N"), "scores", domain=FINITE)
        if scores.shape[0] != scores.shape[1] or scores.shape[0] < 1:
            raise ValueError(f"scores must be square (N, N) with N >= 1, got {scores.shape}")
        root = _as_array(self.root_scores, (scores.shape[0],), "root_scores", domain=FINITE)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "root_scores", root)

    @property
    def n(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True, eq=False)
class ParentDistribution:
    """Row-stochastic (N, N+1) matrix; column j < N is parent j, column N is ROOT."""

    probs: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        probs = _prob_rows(self.probs, ("N", "N+1"), "probs")
        if probs.shape[1] != probs.shape[0] + 1:
            raise ValueError(f"probs must be (N, N+1), got {probs.shape}")
        if np.any(np.diagonal(probs) != 0.0):
            raise ValueError("self-parent probabilities must be 0")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return self.probs.shape[0]


def pairwise_affinity(part_probs, compat, root_scores=None) -> AffinityMatrix:
    """Bilinear attachment scores s_i^T C s_j from per-part category distributions.

    ``root_scores`` defaults to zeros (a neutral root prior); callers with a
    trained root embedding can pass their own.
    """
    probs = _prob_rows(part_probs, ("N", "N_c"), "part_probs")
    comp = _as_array(compat, (probs.shape[1],) * 2, "compat", domain=TREE_SCORE)
    scores = _product(_product(probs, comp), probs.T)
    if root_scores is None:
        root_scores = np.zeros(probs.shape[0])
    return AffinityMatrix(scores=scores, root_scores=root_scores)


def parent_distribution(aff: AffinityMatrix) -> ParentDistribution:
    """Per-part softmax over candidate parents (all other parts plus ROOT)."""
    n = aff.n
    cand = np.concatenate([aff.scores, aff.root_scores[:, None]], axis=1)
    mask = np.eye(n, n + 1, dtype=bool)
    cand = np.where(mask, -np.inf, cand)
    with np.errstate(over="ignore"):  # a gap past the float range reads -inf: probability 0
        cand -= cand.max(axis=1, keepdims=True)
    expd = np.exp(cand)
    probs = expd / expd.sum(axis=1, keepdims=True)
    probs[mask] = 0.0
    return ParentDistribution(probs=probs)


def build_tree(dist: ParentDistribution) -> KinematicTree:
    """Argmax parent assignment with greedy cycle repair.

    Every part takes its most probable parent; if the result is cyclic, parts
    are reprocessed in descending order of their top parent probability
    (ties: lower part id first), committing each edge only if it keeps the
    graph acyclic and otherwise falling back to the next-most-probable
    candidate.  ROOT is always admissible, so the repair terminates and the
    result always validates.
    """
    probs = dist.probs
    n = dist.n
    root_col = n

    def to_parent(col: int) -> int:
        return ROOT_ID if col == root_col else col

    direct = {i: to_parent(int(np.argmax(probs[i]))) for i in range(n)}
    if not _tree_walk(direct)[1]:
        return KinematicTree(direct)

    order = sorted(range(n), key=lambda i: (-float(probs[i].max()), i))
    committed: dict = {}
    for i in order:
        # candidate columns by descending probability; ROOT sorts after parts
        # on equal probability so the tie rule stays deterministic
        cand = sorted(
            (c for c in range(n + 1) if c != i),
            key=lambda c: (-float(probs[i, c]), c),
        )
        for col in cand:
            parent = to_parent(col)
            if not _tree_walk({**committed, i: parent})[1]:
                committed[i] = parent
                break
    return KinematicTree(committed)


# ---------------------------------------------------------------------------
# center-span limit parameterization


def limits_from_range(l_min: float, l_max: float) -> JointLimits:
    """Convert motion bounds to the center-span parameterization."""
    l_min = float(_as_array(l_min, (), "l_min", domain=JOINT_MAGNITUDE))
    l_max = float(_as_array(l_max, (), "l_max", domain=JOINT_MAGNITUDE))
    return JointLimits(center=0.5 * (l_min + l_max), span=0.5 * (l_max - l_min))
