"""One value equality for every array-holding type: ``model._value_eq``.

Two values are equal when they have the same type and every field is equal,
arrays exactly (so an array holding NaN equals nothing) and the rest by
``==``.  Comparing with any other type gives ``False``, and nothing raises.
"""

import ast
import copy
import math
from pathlib import Path

import numpy as np
import pytest

import artikit
from artikit.assignment import QuerySet, SoftMaskSet
from artikit.geometry import SparseVoxelGrid, TriplaneStack
from artikit.kinematics import AffinityMatrix, ParentDistribution
from artikit.losses import MotionPrediction
from artikit.model import (
    ArticulatedModel,
    JointLimits,
    JointSpec,
    JointType,
    KinematicTree,
    PartSpec,
    TriMesh,
    _value_eq,
)

NAN = math.nan
JOINT = JointSpec(JointType.REVOLUTE, [0, 0, 1], [0.1, 0, 0], JointLimits(0.5, 0.25))
PART_0, PART_1 = PartSpec(0, 1, [0], JOINT), PartSpec(1, 1, [1], JOINT)
MODEL_POINTS = np.arange(15.0).reshape(5, 3) / 30

# type -> (the fields of one value, field -> values that differ from it)
VALUES = {
    # a joint holding NaN cannot be built
    JointSpec: (
        dict(jtype=JointType.REVOLUTE, axis=[0, 0, 1], pivot=[0.1, 0, 0],
             limits=JointLimits(0.5, 0.25)),
        dict(jtype=[JointType.CONTINUOUS], axis=[[0, 1, 0], [0, 0, -1]],
             pivot=[[0.1, 0, 1e-300], [-0.1, 0, 0]], limits=[JointLimits(0.5, 0.3)]),
    ),
    PartSpec: (
        dict(id=0, label=1, point_indices=[0, 1], joint=JOINT),
        dict(id=[1], label=[2], point_indices=[[0], [0, 2], [1, 0]],
             joint=[JointSpec(JointType.PRISMATIC, [0, 0, 1], [0.1, 0, 0],
                              JointLimits(0.5, 0.25))]),
    ),
    # every changed model is valid: a model that is not cannot be built
    ArticulatedModel: (
        dict(points=MODEL_POINTS, parts=(PART_0, PART_1), tree=KinematicTree({0: -1, 1: -1}),
             base_indices=[2, 3, 4]),
        dict(points=[MODEL_POINTS * 0.5, -MODEL_POINTS],
             parts=[(PartSpec(0, 2, [0], JOINT), PART_1), (PART_1, PART_0),
                    (PartSpec(0, 1, [1], JOINT), PartSpec(1, 1, [0], JOINT))],
             tree=[KinematicTree({0: -1, 1: 0}), KinematicTree({0: 1, 1: -1})],
             base_indices=[[4, 3, 2], [2, 4, 3]]),
    ),
    TriMesh: (
        dict(vertices=np.eye(3), faces=[[0, 1, 2]]),
        # a mesh holding NaN cannot be built
        dict(vertices=[np.eye(3)[::-1], np.diag([1.0, 1.0, 2.0])],
             faces=[[[0, 2, 1]], [[0, 1, 2], [0, 1, 2]]]),
    ),
    TriplaneStack: (
        dict(resolution=2, planes=np.zeros((3, 2, 2, 1)), weights=np.ones((3, 2, 2))),
        # the resolution fixes the shapes of planes and weights: it cannot change alone
        dict(resolution=[], planes=[np.zeros((3, 2, 2, 2)), np.full((3, 2, 2, 1), NAN)],
             weights=[np.zeros((3, 2, 2))]),
    ),
    SparseVoxelGrid: (
        dict(resolution=8, ijk=[[1, 2, 3], [4, 5, 6]], features=[[1.0], [2.0]]),
        dict(resolution=[9], ijk=[[[1, 2, 3], [4, 5, 7]]],
             features=[[[1.0], [3.0]], [[1.0, 0.0], [2.0, 0.0]]]),
    ),
    AffinityMatrix: (
        dict(scores=np.eye(2), root_scores=[0.0, 0.0]),
        dict(scores=[np.diag([1.0, 2.0])], root_scores=[[0.0, -0.5]]),
    ),
    ParentDistribution: (
        dict(probs=[[0.0, 0.5, 0.5], [0.25, 0.0, 0.75]]),
        dict(probs=[[[0.0, 0.0, 1.0], [0.25, 0.0, 0.75]], [[0.0, 1.0]]]),
    ),
    QuerySet: (
        dict(positions=np.zeros((2, 3)), contents=np.zeros((2, 4)), confidences=[0.5, 0.5],
             part_logits=np.zeros((2, 5))),
        dict(positions=[np.full((2, 3), NAN)], contents=[np.ones((2, 4)), np.zeros((2, 3))],
             confidences=[[0.5, 1.0]], part_logits=[np.full((2, 5), NAN)]),
    ),
    SoftMaskSet: (
        dict(logits=np.zeros((2, 3))),
        dict(logits=[np.ones((2, 3)), np.zeros((3, 2))]),
    ),
    MotionPrediction: (
        dict(type_logits=np.zeros(4), axis=[0, 0, 1], pivot=np.zeros(3), center=0.5, span=0.25),
        dict(type_logits=[np.zeros(3)], axis=[[0, 0, -1]], pivot=[[0, 0, -0.125]],
             center=[0.75], span=[0.0]),
    ),
}

CHANGES = [(cls, name, k) for cls, (_, changes) in VALUES.items()
           for name, values in changes.items() for k in range(len(values))]


def _build(cls, **changes):
    """A value of ``cls`` with ``changes``, built from fresh copies of its fields."""
    return cls(**copy.deepcopy({**VALUES[cls][0], **changes}))


def _same(a, b):
    """``a == b``, checked to be a bool and to agree with ``a != b``."""
    equal = a == b
    assert isinstance(equal, bool) and (a != b) is not equal
    return equal


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_a_value_equals_its_rebuilt_copy_and_no_other_type(cls):
    value = _build(cls)
    assert _same(value, _build(cls)) and _same(value, value)
    assert not _same(value, object()) and not _same(object(), value)
    for other in VALUES:
        if other is not cls:
            assert not _same(value, _build(other))
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)


@pytest.mark.parametrize("cls, name, k", CHANGES,
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_a_value_differs_when_one_field_changes(cls, name, k):
    changed = _build(cls, **{name: VALUES[cls][1][name][k]})
    assert not _same(changed, _build(cls)) and not _same(_build(cls), changed)


# (type, a field whose last changed value holds NaN)
NAN_FIELDS = [(TriplaneStack, "planes"), (QuerySet, "part_logits")]


@pytest.mark.parametrize("cls, name", NAN_FIELDS,
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_a_value_holding_nan_equals_nothing(cls, name):
    value = _build(cls, **{name: VALUES[cls][1][name][-1]})
    assert not _same(value, value)
    # a shallow copy shares every field object with the original
    assert not _same(value, copy.copy(value))
    assert not _same(value, _build(cls, **{name: VALUES[cls][1][name][-1]}))


def test_every_field_is_changed_somewhere():
    for cls, (fields, changes) in VALUES.items():
        assert set(changes) == set(fields) == set(cls.__dataclass_fields__), cls


def _eq_bodies(path: Path):
    """Every ``__eq__`` a class under the module defines that is not the helper."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "__eq__":
                yield node.name
            elif isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__eq__" for t in item.targets
            ) and not (isinstance(item.value, ast.Name) and item.value.id == "_value_eq"):
                yield node.name


def test_equality_has_one_home():
    src = Path(artikit.__file__).parent
    own = sorted((p.name, cls) for p in src.glob("*.py") for cls in _eq_bodies(p))
    assert own == []
    assert [cls for cls in VALUES if cls.__eq__ is not _value_eq] == []
    homes = sorted(p.name for p in src.glob("*.py") if "def _value_eq(" in p.read_text())
    assert homes == ["model.py"]
