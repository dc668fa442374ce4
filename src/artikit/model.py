"""Domain types for articulated objects, validation, JSON serialization and URDF export.

All geometry lives in canonical object coordinates: the object fits inside the
axis-aligned cube [-0.5, 0.5]^3 and every joint frame coincides with the object
frame in the canonical (rest) state.  Part ids are integers other than
``ROOT_ID`` (-1), the reserved id of the static base; a part whose parent is
``ROOT_ID`` is attached to the base.
"""

from __future__ import annotations

import enum
import json
import math
import re
import types
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, fields

import numpy as np

from ._fmt import fields as json_fields
from ._fmt import fmt_float, parse_errors, read_json
from .errors import GeometryError, ParseError, ValidationError

ROOT_ID = -1

UNIT_AXIS_TOL = 1e-6
URDF_ROBOT_NAME = "artikit_object"  # the name of every exported URDF <robot>

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
_INT_MAX = int(np.iinfo(np.int64).max)


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
JOINT_SPAN = (0.0, MAX_JOINT_MAGNITUDE, f"finite and lie in [0, {MAX_JOINT_MAGNITUDE:g}]")


def _int_domain(low, high=_INT_MAX) -> tuple:
    """The domain of integers in [low, high], by default of those at least ``low``."""
    return (low, high, f"at least {low}" if high == _INT_MAX else f"in [{low}, {high}]")


def _as_array(value, shape, name, dtype=np.float64, domain=None) -> np.ndarray:
    """``value`` as a ``dtype`` array of the given shape and domain, the one
    shape and value rule for array arguments.

    Each entry of ``shape`` is an int, which fixes that axis's length, or a
    name such as ``"M"``, which allows any length: ``("M", 3)`` is a point
    cloud and ``()`` a scalar.  Only numbers pass: a string, bytes, a complex
    value or an object (``None``) raises ``ValueError("<name> must be numbers")``,
    and so does a bool unless ``dtype`` is ``bool`` or ``None`` (keep its own).
    An integer ``dtype`` takes no fraction, NaN, inf, bool or value outside its
    range, and no float of magnitude 2**53 or more, which may stand for
    several integers (numpy makes a float of ``[2**53 + 1, 0.0]``): each
    raises ``ValueError("<name> must be integers")``.  With a
    ``domain`` ``(low, high, rule)``, every value must satisfy ``low <= v <=
    high``, or ``ValueError("<name> must be <rule>")`` is raised.  An array that
    already has the dtype is returned as it is, never copied.
    """
    arr = np.asarray(value)
    kind = "b" if dtype is None else np.dtype(dtype).kind
    if arr.dtype.kind not in ("biuf" if kind == "b" else "iuf"):
        raise ValueError(f"{name} must be {'integers' if kind == 'i' else 'numbers'}")
    if kind == "i":  # cast only what is exact: numpy holds [2**63] as uint64
        info = np.iinfo(dtype)
        if arr.dtype.kind == "f":  # NaN fails every comparison; -info.min is past info.max
            exact = np.all((arr == np.trunc(arr)) & (np.abs(arr) < 2.0**53)
                           & (arr >= info.min) & (arr < -float(info.min)))
        else:
            exact = not (arr.dtype.kind == "u" and arr.size and int(arr.max()) > info.max)
        if not exact:
            raise ValueError(f"{name} must be integers")
    arr = arr if dtype is None else arr.astype(dtype, copy=False)
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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product of ``a`` ``(..., K)`` and ``b`` ``(K,)`` or ``(K, N)``
    with no BLAS: the K terms are added one at a time in index order, so the
    float64 bytes are the same on every CPU and OpenBLAS kernel.  NumPy
    ufuncs never fuse a multiply and an add.  For a vector ``b`` the running
    sum is one ``np.add.accumulate`` pass in C; for a matrix each ufunc call
    is one long pass over the leading axes of ``a``, not one short pass per row."""
    if b.ndim == 1:
        return np.add.accumulate(a * b, axis=-1)[..., -1]
    cols = np.moveaxis(a, -1, 0)[:, None]  # (K, 1, ...)
    rows = b.reshape(b.shape + (1,) * (a.ndim - 1))  # (K, N, 1, ...)
    out = cols[0] * rows[0]
    for k in range(1, len(b)):
        out += cols[k] * rows[k]
    return np.moveaxis(out, 0, -1)


def _norm(v: np.ndarray):
    """Euclidean length along the last axis of ``v`` ``(..., K)``: the root of
    the squares summed in index order, as ``_product`` sums them."""
    return np.sqrt(np.add.accumulate(v * v, axis=-1)[..., -1])


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
        norm = float(_norm(axis))
    if abs(norm - 1.0) > UNIT_AXIS_TOL:
        raise ValueError(f"joint axis not unit length (norm={norm:.9g})")
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
    center outside ``JOINT_MAGNITUDE`` or a span outside ``JOINT_SPAN``
    raises ``ValueError`` (``_as_array``).
    """

    center: float = 0.0
    span: float = 0.0

    def __post_init__(self):
        for name, domain in (("center", JOINT_MAGNITUDE), ("span", JOINT_SPAN)):
            value = _as_array(getattr(self, name), (), f"joint {name}", domain=domain)
            object.__setattr__(self, name, float(value))

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
    translation ignores it.  A ``jtype`` that is no ``JointType``, an axis
    outside ``FINITE``, a pivot outside ``JOINT_MAGNITUDE``, nonzero limits on a
    fixed joint and a non-unit axis on a moving one raise ``ValueError``.
    """

    jtype: JointType
    axis: np.ndarray
    pivot: np.ndarray
    limits: JointLimits = field(default_factory=JointLimits)

    __eq__ = _value_eq

    def __post_init__(self):
        object.__setattr__(self, "jtype", JointType(self.jtype))
        object.__setattr__(self, "axis", _frozen(self.axis, (3,), "joint axis", domain=FINITE))
        object.__setattr__(self, "pivot",
                           _frozen(self.pivot, (3,), "joint pivot", domain=JOINT_MAGNITUDE))
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
        for name, shape in (("id", ()), ("label", ()), ("point_indices", ("N",))):
            value = _frozen(getattr(self, name), shape, name, np.int64)
            object.__setattr__(self, name, value if shape else int(value))


@dataclass(frozen=True)
class KinematicTree:
    """Read-only parent map part-id -> parent part-id, with ROOT_ID for root attachment."""

    parent: dict

    def __post_init__(self):
        # one value at a time: numpy reads [-1, True] as two integers
        parent = {int(_as_array(pid, (), "part ids", np.int64)):
                  int(_as_array(pa, (), "parents", np.int64)) for pid, pa in self.parent.items()}
        object.__setattr__(self, "parent", types.MappingProxyType(parent))

    def __reduce__(self):  # a mapping proxy can be neither copied nor pickled
        return KinematicTree, (dict(self.parent),)


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
        n = len(vertices)
        faces = _frozen(self.faces, ("F", 3), "faces", np.int64,
                        (0, n - 1, f"non-negative and below the vertex count {n}"))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)
        if not np.any(self.face_areas() > 0.0):
            raise GeometryError("mesh has no face with nonzero area")

    def face_areas(self) -> np.ndarray:
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        return 0.5 * _norm(np.cross(b - a, c - a))


# ---------------------------------------------------------------------------
# validation


def _tree_walk(parent: dict) -> tuple:
    """``(order, cycles)`` of a parent map, from one walk up from each id.

    ``cycles`` holds each cycle as a sorted id list, in the order the walk
    meets them.  When there is none, ``order`` lists every id after its
    parent.
    """
    order, cycles, placed = [], [], set()
    for start in parent:
        chain = {}  # the ids walked up from start, in walk order
        cur = start
        while cur != ROOT_ID and cur in parent and cur not in placed:
            if cur in chain:
                ids = list(chain)
                cycles.append(sorted(ids[ids.index(cur):]))
                break
            chain[cur] = None
            cur = parent[cur]
        order.extend(reversed(chain))
        placed.update(chain)
    return order, cycles


def _outside_cube(points: np.ndarray):
    """The first row of ``points`` outside the canonical cube (NaN is), or None."""
    inside = (np.abs(points) <= CUBE_HALF + _CUBE_TOL).all(axis=1)
    return None if inside.all() else int(np.argmin(inside))


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
    elif (outside := _outside_cube(model.points)) is not None:
        out.append(f"points[{outside}]: outside the canonical cube [-0.5, 0.5]^3")

    part_ids = [p.id for p in model.parts]
    if len(set(part_ids)) != len(part_ids):
        out.append("parts: duplicate part id")
    if ROOT_ID in part_ids:
        out.append(f"parts: part id {ROOT_ID} is reserved for the base")

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
    for cycle in _tree_walk(parent)[1]:
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

_MODEL_KEYS = ("points", "base_indices", "parts", "tree")
_PART_KEYS = ("id", "label", "point_indices", "joint")
_JOINT_KEYS = ("type", "axis", "pivot", "center", "span")


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

    A tree key, which JSON holds as text, must be ASCII ``-?[0-9]+``.  Raises
    ParseError for structural problems and bad values, a bad joint among them,
    and ValidationError when the parsed model violates an invariant.
    """
    if not isinstance(data, dict):
        raise ParseError("document: expected a JSON object at top level")
    points, base_indices, raw_parts, raw_tree = json_fields(data, _MODEL_KEYS, "document")
    with parse_errors("points"):
        points = _as_array(points, ("M", 3), "points")

    if not isinstance(raw_parts, list):
        raise ParseError("parts: expected an array")
    parts = []
    for k, raw in enumerate(raw_parts):
        where = f"parts[{k}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        part_id, label, point_indices, raw_joint = json_fields(raw, _PART_KEYS, where)
        if not isinstance(raw_joint, dict):
            raise ParseError(f"{where}.joint: expected an object")
        jtype, axis, pivot, center, span = json_fields(raw_joint, _JOINT_KEYS, f"{where}.joint")
        with parse_errors(where):
            joint = JointSpec(jtype, axis, pivot, JointLimits(center, span))
            parts.append(PartSpec(part_id, label, point_indices, joint))

    if not isinstance(raw_tree, dict):
        raise ParseError("tree: expected an object")
    with parse_errors("tree"):
        bad = [key for key in raw_tree if not re.fullmatch("-?[0-9]+", key)]
        if bad:
            raise ValueError(f"part ids must be integers, got {bad[0]!r}")
        tree = KinematicTree({int(key): parent for key, parent in raw_tree.items()})
        if len(tree.parent) != len(raw_tree):  # keys such as "1" and "01" name one part
            raise ValueError("part ids must be distinct")
    with parse_errors("document"):
        return ArticulatedModel(points, tuple(parts), tree, base_indices)


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


def export_urdf(model: ArticulatedModel, mesh_paths=None) -> str:
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

    robot = ET.Element("robot", {"name": URDF_ROBOT_NAME})

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
