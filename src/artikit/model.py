"""Domain types for articulated objects, validation, JSON serialization and URDF export.

All geometry lives in canonical object coordinates: the object fits inside the
axis-aligned cube [-0.5, 0.5]^3 and every joint frame coincides with the object
frame in the canonical (rest) state.  Part ids are integers; the reserved
parent id ``ROOT_ID`` (-1) marks attachment to the static base.
"""

from __future__ import annotations

import enum
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, fields

import numpy as np

from ._fmt import fmt_float, read_json
from .errors import GeometryError, ParseError, ValidationError

ROOT_ID = -1

UNIT_AXIS_TOL = 1e-6

#: the canonical cube is [-CUBE_HALF, CUBE_HALF]^3; points may overshoot it by
#: _CUBE_TOL (rounding) and no more
CUBE_HALF = 0.5
_CUBE_TOL = 1e-9

#: largest magnitude of a joint pivot component, limit center or span, a point
#: ``apply_joint`` poses and a mesh vertex; posed points and face areas stay finite
MAX_JOINT_MAGNITUDE = 1e30
#: how far a row of probabilities may sum from 1
PROB_ROW_TOL = 1e-6

_FLOAT_MAX = np.finfo(np.float64).max


def _magnitude(bound: float) -> tuple:
    """The domain of values at most ``bound`` in magnitude."""
    return (-bound, bound, f"finite and at most {bound:g} in magnitude")


#: value domains for ``_as_array``, each ``(low, high, rule)``; NaN fails both
#: bounds, and no probability row valid within PROB_ROW_TOL leaves PROBABILITY
FINITE = (-_FLOAT_MAX, _FLOAT_MAX, "finite")
NON_NEGATIVE = (0.0, _FLOAT_MAX, "finite and non-negative")
UNIT_INTERVAL = (0.0, 1.0, "finite and lie in [0, 1]")
POSITIVE = (math.ulp(0.0), _FLOAT_MAX, "positive and finite")
PROBABILITY = (0.0, 1 + PROB_ROW_TOL, f"finite and non-negative and at most 1 + {PROB_ROW_TOL:g}")
JOINT_MAGNITUDE = _magnitude(MAX_JOINT_MAGNITUDE)


def _as_array(value, shape, name, dtype=np.float64, domain=None) -> np.ndarray:
    """``value`` as a ``dtype`` array of the given shape and domain, the one
    shape and value rule for array arguments.

    Each entry of ``shape`` is an int, which fixes that axis's length, or a
    name such as ``"M"``, which allows any length: ``("M", 3)`` is a point
    cloud and ``()`` a scalar.  With a ``domain`` ``(low, high, rule)``, every
    value must satisfy ``low <= v <= high``, or ``ValueError("<name> must be
    <rule>")`` is raised.  An array that already has the dtype is returned as
    it is, never copied.
    """
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim != len(shape) or any(
        not isinstance(want, str) and got != want for got, want in zip(arr.shape, shape)
    ):
        text = ", ".join(str(want) for want in shape) + ("," if len(shape) == 1 else "")
        raise ValueError(f"{name} must have shape ({text}), got {arr.shape}")
    if domain is not None and arr.size:
        low, high, rule = domain
        # NaN fails both comparisons
        if not (arr.min() >= low and arr.max() <= high):
            raise ValueError(f"{name} must be {rule}")
    return arr


def _prob_rows(value, shape, name) -> np.ndarray:
    """``_as_array`` of probability rows, each summing to 1 within ``PROB_ROW_TOL``."""
    probs = _as_array(value, shape, name, domain=PROBABILITY)
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > PROB_ROW_TOL):
        raise ValueError(f"{name} rows must sum to 1")
    return probs


def _unit_axis(axis) -> np.ndarray:
    """``axis`` as a finite float64 ``(3,)`` array whose norm is within
    ``UNIT_AXIS_TOL`` of 1, the one axis rule of every moving joint."""
    axis = _as_array(axis, (3,), "axis", domain=FINITE)
    with np.errstate(over="ignore"):  # a norm beyond the float range reads inf
        norm = float(np.linalg.norm(axis))
    if abs(norm - 1.0) > UNIT_AXIS_TOL:
        raise ValueError(f"joint axis not unit length (norm={norm:.6g})")
    return axis


def _frozen(value, shape, name, dtype=np.float64, domain=None) -> np.ndarray:
    """A read-only private copy of ``_as_array(value, shape, name, dtype, domain)``."""
    arr = _as_array(value, shape, name, dtype, domain).copy()
    arr.setflags(write=False)
    return arr


def _field_eq(mine, theirs) -> bool:
    if isinstance(mine, np.ndarray):
        return np.array_equal(mine, theirs)
    if isinstance(mine, tuple):
        # tuple == takes an element as equal to itself without asking its __eq__
        return len(mine) == len(theirs) and all(map(_field_eq, mine, theirs))
    return mine == theirs


def _value_eq(self, other):
    """The one value equality of array-holding types, used as their ``__eq__``.

    Two values are equal when they have the same type and every field is
    equal: arrays by ``np.array_equal`` (so an array holding NaN equals
    nothing), tuples element by element and everything else by ``==``.  Any
    other type gives ``NotImplemented``.
    """
    if type(other) is not type(self):
        return NotImplemented
    return all(_field_eq(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


class JointType(enum.Enum):
    FIXED = "fixed"
    REVOLUTE = "revolute"
    PRISMATIC = "prismatic"
    CONTINUOUS = "continuous"


#: Category order used wherever joint types are encoded as class indices.
JOINT_TYPE_ORDER = (
    JointType.FIXED,
    JointType.REVOLUTE,
    JointType.PRISMATIC,
    JointType.CONTINUOUS,
)


@dataclass(frozen=True)
class JointLimits:
    """Symmetric motion range [center - span, center + span].

    Units are radians for revolute/continuous joints and normalized object
    lengths for prismatic joints.  Fixed joints carry center = span = 0.  A
    negative span, or a center or span not finite or above
    ``MAX_JOINT_MAGNITUDE`` in magnitude, raises ``ValueError``.
    """

    center: float = 0.0
    span: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "span", float(self.span))
        if not (math.isfinite(self.center) and math.isfinite(self.span)):
            raise ValueError("joint limits not finite")
        if self.span < 0.0:
            raise ValueError(f"joint limits violate span >= 0 (span={self.span!r})")
        if max(abs(self.center), self.span) > MAX_JOINT_MAGNITUDE:
            raise ValueError(f"joint limits above {MAX_JOINT_MAGNITUDE:g} in magnitude")

    @property
    def lower(self) -> float:
        return self.center - self.span

    @property
    def upper(self) -> float:
        return self.center + self.span


@dataclass(frozen=True, eq=False)
class JointSpec:
    """One joint: type, unit axis direction, pivot point and motion limits.

    The pivot is kept for prismatic joints for schema symmetry even though
    translation ignores it.  An axis or pivot not finite, a pivot above
    ``MAX_JOINT_MAGNITUDE`` in magnitude, nonzero limits on a fixed joint and a
    non-unit axis (``_unit_axis``) on a moving one raise ``ValueError``.
    """

    jtype: JointType
    axis: np.ndarray
    pivot: np.ndarray
    limits: JointLimits = field(default_factory=JointLimits)

    __eq__ = _value_eq

    def __post_init__(self):
        object.__setattr__(self, "axis", _frozen(self.axis, (3,), "axis"))
        object.__setattr__(self, "pivot", _frozen(self.pivot, (3,), "pivot"))
        if not np.all(np.isfinite(self.axis)):
            raise ValueError("joint axis not finite")
        if not np.all(np.isfinite(self.pivot)):
            raise ValueError("joint pivot not finite")
        if np.abs(self.pivot).max() > MAX_JOINT_MAGNITUDE:
            raise ValueError(f"joint pivot above {MAX_JOINT_MAGNITUDE:g} in magnitude")
        if self.jtype is not JointType.FIXED:
            _unit_axis(self.axis)
        elif self.limits != JointLimits():
            raise ValueError("fixed joint must have center = span = 0")


@dataclass(frozen=True, eq=False)
class PartSpec:
    """A rigid part: category label, owned point indices and its joint."""

    id: int
    label: int
    point_indices: np.ndarray
    joint: JointSpec

    __eq__ = _value_eq

    def __post_init__(self):
        object.__setattr__(self, "id", int(self.id))
        object.__setattr__(self, "label", int(self.label))
        object.__setattr__(
            self, "point_indices", _frozen(self.point_indices, ("N",), "point_indices", np.int64)
        )


@dataclass(frozen=True)
class KinematicTree:
    """Parent map part-id -> parent part-id, with ROOT_ID for root attachment."""

    parent: dict

    def __post_init__(self):
        object.__setattr__(
            self, "parent", {int(k): int(v) for k, v in self.parent.items()}
        )


@dataclass(frozen=True, eq=False)
class ArticulatedModel:
    """Canonical points, their partition into parts/base, and the kinematic tree.

    A model is valid by construction: one that breaks an invariant raises
    ``ValidationError`` (see ``require_valid``).
    """

    points: np.ndarray
    parts: tuple
    tree: KinematicTree
    base_indices: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(self.points, ("M", 3), "points"))
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(
            self, "base_indices", _frozen(self.base_indices, ("N",), "base_indices", np.int64)
        )
        require_valid(self)

    def part_by_id(self, part_id: int) -> PartSpec:
        for part in self.parts:
            if part.id == part_id:
                return part
        raise KeyError(f"no part with id {part_id}")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Triangle mesh: (V, 3) float vertices and (F, 3) integer faces.

    A mesh is valid by construction: a vertex outside ``JOINT_MAGNITUDE`` or a
    face index outside the vertices raises ``ValueError``, and a mesh with no
    face of nonzero area raises ``GeometryError``.
    """

    vertices: np.ndarray
    faces: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        vertices = _frozen(self.vertices, ("V", 3), "vertices", domain=JOINT_MAGNITUDE)
        faces = _frozen(self.faces, ("F", 3), "faces", np.int64)
        n = len(vertices)
        _as_array(faces, ("F", 3), "face vertex indices", np.int64,
                  domain=(0, n - 1, f"non-negative and below the vertex count {n}"))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)
        if not np.any(self.face_areas() > 0.0):
            raise GeometryError("mesh has no face with nonzero area")

    def face_areas(self) -> np.ndarray:
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


# ---------------------------------------------------------------------------
# validation


def _tree_cycles(parent: dict) -> list:
    """Return cycles in a parent map as sorted id lists."""
    cycles = []
    color = {}  # 0 visiting, 1 done
    for start in parent:
        if start in color:
            continue
        chain = []
        cur = start
        while True:
            if cur == ROOT_ID or cur not in parent:
                break
            state = color.get(cur)
            if state == 1:
                break
            if state == 0:
                # found a cycle: the tail of chain from cur onwards
                idx = chain.index(cur)
                cycles.append(sorted(chain[idx:]))
                break
            color[cur] = 0
            chain.append(cur)
            cur = parent[cur]
        for node in chain:
            color[node] = 1
    return cycles


def require_valid(model: ArticulatedModel) -> None:
    """Raise ``ValidationError`` unless the model keeps every type invariant.

    The error's ``violations`` holds one human-readable message per broken
    invariant, in a fixed order.  ``ArticulatedModel`` calls this once, when
    it is built.
    """
    out = []
    m = model.num_points

    if m == 0:
        out.append("points: empty")
    elif not np.all(np.isfinite(model.points)):
        bad = int(np.flatnonzero(~np.isfinite(model.points).all(axis=1))[0])
        out.append(f"points[{bad}]: component not finite")
    else:
        outside = np.flatnonzero((np.abs(model.points) > CUBE_HALF + _CUBE_TOL).any(axis=1))
        if outside.size:
            out.append(f"points[{int(outside[0])}]: outside the canonical cube [-0.5, 0.5]^3")

    part_ids = [p.id for p in model.parts]
    if len(set(part_ids)) != len(part_ids):
        out.append("parts: duplicate part id")

    # how many parts own each point; None once an index is out of range
    owner = np.zeros(m, dtype=np.int64)
    for part in model.parts:
        tag = f"part {part.id}"
        idx = part.point_indices
        if idx.size == 0:
            out.append(f"{tag}: point_indices empty")
            continue
        if idx.min() < 0 or idx.max() >= m:
            out.append(f"{tag}: point_indices out of range")
            owner = None
        uniq, counts = np.unique(idx, return_counts=True)
        if counts.max() > 1:
            out.append(f"{tag}: point_indices contains duplicates")
        if owner is not None:
            # a part owns a point once, however often it lists it
            owner[uniq] += 1

    # tree structure
    id_set = set(part_ids)
    parent = model.tree.parent
    for pid in sorted(id_set):
        if pid not in parent:
            out.append(f"tree: missing part {pid}")
    for pid in sorted(parent):
        if pid not in id_set:
            out.append(f"tree: unknown part id {pid}")
        pa = parent[pid]
        if pa != ROOT_ID and pa not in id_set:
            out.append(f"tree: parent {pa} of part {pid} is not a part")
        if pa == pid:
            out.append(f"tree: part {pid} is its own parent")
    for cycle in _tree_cycles(parent):
        out.append("tree: cycle {%s}" % ", ".join(str(c) for c in cycle))

    # coverage: parts + base partition all point indices
    bidx = model.base_indices
    if bidx.size:
        if bidx.min() < 0 or bidx.max() >= m:
            out.append("base_indices: index out of range")
            owner = None
        uniq, counts = np.unique(bidx, return_counts=True)
        if counts.max() > 1:
            out.append("base_indices contains duplicates")
        if owner is not None:
            owner[uniq] += 1
    if owner is not None:
        over = np.flatnonzero(owner > 1)
        under = np.flatnonzero(owner == 0)
        if over.size:
            out.append(f"points: index {int(over[0])} assigned more than once")
        if under.size:
            out.append(f"points: index {int(under[0])} not covered by any part or base")

    if out:
        raise ValidationError("model validation failed: " + "; ".join(out), out)


# ---------------------------------------------------------------------------
# JSON serialization

_MODEL_KEYS = {"points", "base_indices", "parts", "tree"}
_PART_KEYS = {"id", "label", "point_indices", "joint"}
_JOINT_KEYS = {"type", "axis", "pivot", "center", "span"}


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ParseError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _require(mapping, key, where):
    if key not in mapping:
        raise ParseError(f"{where}: missing field {key!r}")
    return mapping[key]


def model_to_dict(model: ArticulatedModel) -> dict:
    return {
        "points": model.points.tolist(),
        "base_indices": model.base_indices.tolist(),
        "parts": [
            {
                "id": part.id,
                "label": part.label,
                "point_indices": part.point_indices.tolist(),
                "joint": {
                    "type": part.joint.jtype.value,
                    "axis": [float(c) for c in part.joint.axis],
                    "pivot": [float(c) for c in part.joint.pivot],
                    "center": part.joint.limits.center,
                    "span": part.joint.limits.span,
                },
            }
            for part in model.parts
        ],
        "tree": {str(pid): model.tree.parent[pid] for pid in sorted(model.tree.parent)},
    }


def model_from_dict(data: dict) -> ArticulatedModel:
    """Build a model from the articulation JSON schema; reject unknown keys.

    Raises ParseError for structural problems and bad values, a bad joint among
    them, and ValidationError when the parsed model violates an invariant.
    """
    if not isinstance(data, dict):
        raise ParseError("document: expected a JSON object at top level")
    _reject_unknown(data, _MODEL_KEYS, "document")

    points = _require(data, "points", "document")
    base_indices = _require(data, "base_indices", "document")
    raw_parts = _require(data, "parts", "document")
    raw_tree = _require(data, "tree", "document")

    try:
        points = _as_array(points, ("M", 3), "points")
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"points: {exc}") from exc

    if not isinstance(raw_parts, list):
        raise ParseError("parts: expected an array")
    parts = []
    for k, raw in enumerate(raw_parts):
        where = f"parts[{k}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        _reject_unknown(raw, _PART_KEYS, where)
        raw_joint = _require(raw, "joint", where)
        if not isinstance(raw_joint, dict):
            raise ParseError(f"{where}.joint: expected an object")
        _reject_unknown(raw_joint, _JOINT_KEYS, f"{where}.joint")
        jtype_name = _require(raw_joint, "type", f"{where}.joint")
        try:
            jtype = JointType(jtype_name)
        except ValueError as exc:
            raise ParseError(f"{where}.joint: unknown type {jtype_name!r}") from exc
        try:
            joint = JointSpec(
                jtype=jtype,
                axis=_require(raw_joint, "axis", f"{where}.joint"),
                pivot=_require(raw_joint, "pivot", f"{where}.joint"),
                limits=JointLimits(
                    center=_require(raw_joint, "center", f"{where}.joint"),
                    span=_require(raw_joint, "span", f"{where}.joint"),
                ),
            )
            part = PartSpec(
                id=_require(raw, "id", where),
                label=_require(raw, "label", where),
                point_indices=_require(raw, "point_indices", where),
                joint=joint,
            )
        except (ValueError, TypeError, OverflowError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
        parts.append(part)

    if not isinstance(raw_tree, dict):
        raise ParseError("tree: expected an object")
    tree = {}
    for key, value in raw_tree.items():
        try:
            tree[int(key)] = int(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ParseError(f"tree: bad entry {key!r}: {value!r}") from exc

    try:
        return ArticulatedModel(
            points=points,
            parts=tuple(parts),
            tree=KinematicTree(tree),
            base_indices=base_indices,
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"document: {exc}") from exc


def load_model(path) -> ArticulatedModel:
    """Load and validate an articulation JSON file."""
    return model_from_dict(read_json(path))


def save_model(model: ArticulatedModel, path) -> None:
    """Write the articulation JSON document; load(save(m)) == m field-for-field.

    The layout is ``json``'s two-space indent, except that each point takes
    one line, ``[x, y, z]`` with the floats ``json`` writes.
    """
    doc = model_to_dict(model)
    # float reprs hold no "]", so "], [" only ever separates two points
    points = json.dumps(doc.pop("points"))[1:-1].replace("], [", "],\n    [")
    rest = json.dumps(doc, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "points": [\n    ' + points + "\n  ],\n" + rest[2:] + "\n")


# ---------------------------------------------------------------------------
# URDF export

def _xyz(vec) -> str:
    return " ".join(fmt_float(c) for c in vec)


def export_urdf(model: ArticulatedModel, mesh_paths=None, name="artikit_object") -> str:
    """Render the model as a URDF document string.

    One link per part plus a base link; one joint per tree edge.  Joint
    origins and axes are expressed in the parent frame, which coincides with
    the object frame in the canonical state.  ``mesh_paths`` optionally maps
    part ids (and ROOT_ID for the base) to mesh filenames used for visual and
    collision geometry.
    """
    mesh_paths = dict(mesh_paths) if mesh_paths else {}

    def link_name(pid):
        return "base" if pid == ROOT_ID else f"part_{pid}"

    robot = ET.Element("robot", {"name": name})

    def add_link(pid):
        link = ET.SubElement(robot, "link", {"name": link_name(pid)})
        path = mesh_paths.get(pid)
        if path is not None:
            for kind in ("visual", "collision"):
                node = ET.SubElement(link, kind)
                geom = ET.SubElement(node, "geometry")
                ET.SubElement(geom, "mesh", {"filename": str(path)})

    add_link(ROOT_ID)
    ordered = sorted(model.parts, key=lambda p: p.id)
    for part in ordered:
        add_link(part.id)

    for part in ordered:
        j = part.joint
        joint = ET.SubElement(
            robot,
            "joint",
            {"name": f"joint_{part.id}", "type": j.jtype.value},
        )
        ET.SubElement(joint, "origin", {"xyz": _xyz(j.pivot), "rpy": "0 0 0"})
        ET.SubElement(joint, "parent", {"link": link_name(model.tree.parent[part.id])})
        ET.SubElement(joint, "child", {"link": link_name(part.id)})
        if j.jtype is not JointType.FIXED:
            ET.SubElement(joint, "axis", {"xyz": _xyz(j.axis)})
        if j.jtype in (JointType.REVOLUTE, JointType.PRISMATIC):
            ET.SubElement(
                joint,
                "limit",
                {
                    "lower": fmt_float(j.limits.lower),
                    "upper": fmt_float(j.limits.upper),
                    "effort": "100",
                    "velocity": "1",
                },
            )

    ET.indent(robot, space="  ")
    return '<?xml version="1.0"?>\n' + ET.tostring(robot, encoding="unicode") + "\n"
