import ast
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artikit
from artikit.errors import GeometryError, ParseError, ValidationError
from artikit.kinematics import apply_joint, sample_states
from artikit.model import (
    ROOT_ID,
    ArticulatedModel,
    JointLimits,
    JointSpec,
    JointType,
    KinematicTree,
    PartSpec,
    URDF_ROBOT_NAME,
    TriMesh,
    _tree_walk,
    export_urdf,
    load_model,
    model_from_dict,
    model_to_dict,
    require_valid,
    save_model,
)
from tests.conftest import FUZZ, build_cabinet, build_random_model
from tests.oracles import check_urdf


def _rebuilt(model, **changes):
    """``model`` built again with ``changes`` to its fields."""
    fields = dict(points=model.points, parts=model.parts, tree=model.tree,
                  base_indices=model.base_indices)
    return ArticulatedModel(**{**fields, **changes})


def _violations(model, **changes):
    """The violations that ``_rebuilt(model, **changes)`` raises; [] when it builds."""
    try:
        _rebuilt(model, **changes)
    except ValidationError as exc:
        return exc.violations
    return []


def test_valid_cabinet_has_no_violations(cabinet):
    assert _violations(cabinet) == []


def _called_name(call: ast.Call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def test_models_are_validated_in_one_place():
    """Only ``ArticulatedModel.__post_init__`` calls ``require_valid``."""
    src = Path(artikit.__file__).parent
    callers = sorted(p.name for p in src.glob("*.py") for node in ast.walk(ast.parse(p.read_text()))
                     if isinstance(node, ast.Call) and _called_name(node) == "require_valid")
    assert callers == ["model.py"]
    assert "require_valid(self)" in inspect.getsource(ArticulatedModel.__post_init__)


def test_the_joint_rule_has_one_home():
    """Only the ``JointLimits`` and ``JointSpec`` constructors check a joint."""
    src = Path(artikit.__file__).parent
    texts = {p.name: p.read_text() for p in src.glob("*.py")}
    assert [name for name, text in texts.items() if "def _unit_axis(" in text] == ["model.py"]
    assert sum(text.count("joint axis not unit length") for text in texts.values()) == 1
    assert "joint" not in inspect.getsource(require_valid)


class TestValidation:
    @pytest.mark.parametrize("coord, violation", [
        (0.5 + 1e-9, None),
        (-0.5 - 1e-9, None),
        (0.5 + 1e-8, "points[7]: outside the canonical cube [-0.5, 0.5]^3"),
        (-3.0, "points[7]: outside the canonical cube [-0.5, 0.5]^3"),
        (np.inf, "points[7]: component not finite"),
    ], ids=["tolerance-above", "tolerance-below", "beyond-tolerance", "far-outside", "inf"])
    def test_points_lie_in_the_canonical_cube(self, cabinet, coord, violation):
        points = cabinet.points.copy()
        points[7, 1] = coord
        assert _violations(cabinet, points=points) == ([violation] if violation else [])

    def test_cycle_detection(self, cabinet):
        violations = _violations(cabinet, tree=KinematicTree({0: 1, 1: 0}))
        assert any("cycle {0, 1}" in v for v in violations)

    def test_zero_axis_revolute(self, cabinet):
        door = cabinet.parts[1].joint
        with pytest.raises(ValueError, match=r"joint axis not unit length \(norm=0\)"):
            JointSpec(JointType.REVOLUTE, [0, 0, 0], door.pivot, door.limits)

    def test_negative_span(self):
        with pytest.raises(ValueError, match=r"joint span must be finite and lie in \[0, 1e\+30\]"):
            JointLimits(0.5, -0.1)

    def test_fixed_with_nonzero_limits(self, cabinet):
        body = cabinet.parts[0].joint
        with pytest.raises(ValueError, match="fixed joint must have center = span = 0"):
            JointSpec(JointType.FIXED, body.axis, body.pivot, JointLimits(0.1, 0.0))

    @pytest.mark.parametrize("build, message", [
        (lambda: JointLimits(math.nan, 1), r"joint center must be finite and at most 1e\+30"),
        (lambda: JointLimits(-1e31, 0), r"joint center must be finite and at most 1e\+30"),
        (lambda: JointSpec(JointType.REVOLUTE, [0, math.nan, 1], [0, 0, 0]),
         "joint axis must be finite"),
        (lambda: JointSpec(JointType.PRISMATIC, [0, 0, 1], [0, 1.7e308, 0]),
         r"joint pivot must be finite and at most 1e\+30 in magnitude"),
        (lambda: JointSpec("hinge", [0, 0, 1], [0, 0, 0]), "'hinge' is not a valid JointType"),
    ], ids=["limits-nan", "limits-1e31", "axis-nan", "pivot-1.7e308", "type-hinge"])
    def test_a_joint_breaking_a_rule_cannot_be_built(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_a_joint_type_is_read_by_its_value(self):
        slide = JointSpec("prismatic", [0, 0, 1], [0, 0, 0], JointLimits(0.5, 0.5))
        assert slide.jtype is JointType.PRISMATIC
        assert apply_joint(slide, 0.5, [0.1, 0, 0]).tolist() == [0.1, 0.0, 0.5]
        assert JointSpec("fixed", [0, 0, 0], [0, 0, 0]).jtype is JointType.FIXED
        spin = sample_states(JointLimits(), "continuous", 4)
        assert spin.tolist() == sample_states(JointLimits(), JointType.CONTINUOUS, 4).tolist()

    def test_an_unknown_joint_type_in_a_file_names_its_part(self, cabinet):
        doc = model_to_dict(cabinet)
        doc["parts"][1]["joint"]["type"] = "hinge"
        with pytest.raises(ParseError, match=r"^parts\[1\]: 'hinge' is not a valid JointType$"):
            model_from_dict(doc)

    def test_a_built_tree_is_read_only(self, cabinet):
        with pytest.raises(TypeError):
            cabinet.tree.parent[1] = 2
        assert cabinet.tree == KinematicTree({0: ROOT_ID, 1: 0})

    def test_nonfinite_point(self, cabinet):
        pts = np.array(cabinet.points)
        pts[3, 1] = np.nan
        assert any("not finite" in v for v in _violations(cabinet, points=pts))

    def test_a_model_without_points_is_a_violation(self):
        with pytest.raises(ValidationError) as info:
            ArticulatedModel(points=np.zeros((0, 3)), parts=(), tree=KinematicTree({}),
                             base_indices=[5, 5, -3])
        assert info.value.violations == [
            "points: empty",
            "base_indices: index out of range",
            "base_indices contains duplicates",
        ]
        with pytest.raises(ValidationError, match="points: empty"):
            ArticulatedModel(np.zeros((0, 3)), (), KinematicTree({}), [])

    def test_empty_point_indices(self, cabinet):
        body, door = cabinet.parts
        bad = PartSpec(door.id, door.label, np.zeros(0, dtype=np.int64), door.joint)
        violations = _violations(cabinet, parts=(body, bad))
        assert any("point_indices empty" in v for v in violations)
        assert any("not covered" in v for v in violations)

    def test_duplicate_point_indices(self, cabinet):
        body, door = cabinet.parts
        idx = np.array(door.point_indices)
        idx[0] = idx[1]
        bad = PartSpec(door.id, door.label, idx, door.joint)
        violations = _violations(cabinet, parts=(body, bad))
        assert any("duplicates" in v for v in violations)

    def test_out_of_range_indices(self, cabinet):
        body, door = cabinet.parts
        idx = np.array(door.point_indices)
        idx[0] = cabinet.num_points + 7
        bad = PartSpec(door.id, door.label, idx, door.joint)
        violations = _violations(cabinet, parts=(body, bad))
        assert any("out of range" in v for v in violations)

    def test_out_of_range_and_duplicate_indices_both_reported(self, cabinet):
        body, door = cabinet.parts
        idx = np.concatenate([door.point_indices, [2**40, 2**40]])
        bad = PartSpec(door.id, door.label, idx, door.joint)
        # with an index out of range there is no coverage to report
        assert _violations(cabinet, parts=(body, bad)) == [
            "part 1: point_indices out of range",
            "part 1: point_indices contains duplicates",
        ]

    def test_a_point_listed_twice_by_one_part_is_owned_once(self, cabinet):
        body, door = cabinet.parts
        idx = np.concatenate([door.point_indices, door.point_indices[:1]])
        bad = PartSpec(door.id, door.label, idx, door.joint)
        assert _violations(cabinet, parts=(body, bad)) == [
            "part 1: point_indices contains duplicates",
        ]

    def test_duplicate_base_indices(self, cabinet):
        """A repeated base index is reported as for parts; it still owns its point once."""
        bidx = np.concatenate([cabinet.base_indices[:1], cabinet.base_indices])
        assert _violations(cabinet, base_indices=bidx) == ["base_indices contains duplicates"]

    def test_overlapping_parts(self, cabinet):
        body, door = cabinet.parts
        idx = np.array(door.point_indices)
        idx[0] = 0  # already owned by the body
        bad = PartSpec(door.id, door.label, idx, door.joint)
        violations = _violations(cabinet, parts=(body, bad))
        assert any("assigned more than once" in v for v in violations)

    def test_tree_unknown_and_missing_parts(self, cabinet):
        violations = _violations(cabinet, tree=KinematicTree({0: ROOT_ID, 7: 0}))
        assert any("missing part 1" in v for v in violations)
        assert any("unknown part id 7" in v for v in violations)

    def test_tree_keys_naming_one_part_twice_are_rejected(self, cabinet):
        tree = {"0": -1, "1": 0, "01": -1}
        with pytest.raises(ValueError, match="^part ids must be integers$"):
            KinematicTree(tree)  # text is no part id; model_from_dict reads the keys
        doc = model_to_dict(cabinet)
        doc["tree"] = tree
        with pytest.raises(ParseError, match="^tree: part ids must be distinct$"):
            model_from_dict(doc)

    @pytest.mark.parametrize("key", ["a", "1.5", " 1", "+1", "1_0", "\u0661", ""])
    def test_a_tree_key_that_is_no_ascii_integer_is_rejected(self, cabinet, key):
        doc = model_to_dict(cabinet)
        doc["tree"] = {"0": -1, key: 0}
        with pytest.raises(ParseError) as info:
            model_from_dict(doc)
        assert str(info.value) == f"tree: part ids must be integers, got {key!r}"

    def test_tree_keys_are_read_as_integers(self, cabinet):
        doc = model_to_dict(cabinet)
        doc["tree"] = {"00": -1, "1": 0}
        assert model_from_dict(doc).tree.parent == {0: -1, 1: 0}

    def test_self_parent(self, cabinet):
        violations = _violations(cabinet, tree=KinematicTree({0: ROOT_ID, 1: 1}))
        assert any("own parent" in v for v in violations)

    def test_mutating_one_field_at_a_time_always_caught(self, cabinet):
        """Each single-field corruption must fail construction: a joint's when
        the joint is built, a model's with a violation."""
        door = cabinet.parts[1].joint
        with pytest.raises(ValueError, match="joint axis not unit length"):
            JointSpec(JointType.PRISMATIC, [0.5, 0, 0], door.pivot, door.limits)
        with pytest.raises(ValueError, match=r"joint pivot must be finite and at most 1e\+30"):
            JointSpec(door.jtype, door.axis, [np.inf, 0, 0], door.limits)
        mutations = [
            dict(tree=KinematicTree({0: ROOT_ID, 1: 99})),
            dict(base_indices=np.array([0])),
        ]
        for changes in mutations:
            with pytest.raises(ValidationError) as info:
                _rebuilt(cabinet, **changes)
            assert info.value.violations, "corrupted model raised no violation"


def _cycles_by_brute_force(parent: dict) -> list:
    """Each cycle of ``parent`` as a sorted id list, in the order in which the
    ids of ``parent`` first reach it: follow each id's parents until one
    repeats or leaves the map."""
    cycles = []
    for pid in parent:
        path = [pid]
        while parent[path[-1]] in parent and parent[path[-1]] not in path:
            path.append(parent[path[-1]])
        if parent[path[-1]] in path:
            cycle = sorted(path[path.index(parent[path[-1]]):])
            if cycle not in cycles:
                cycles.append(cycle)
    return cycles


@st.composite
def _parent_maps(draw):
    """A map from up to ten part ids to parents: any id, the base or one
    outside the map, or else a forest listed in a shuffled order."""
    ids = draw(st.lists(st.integers(0, 9), unique=True, max_size=10))
    if draw(st.booleans()):
        return {pid: draw(st.integers(ROOT_ID, 11)) for pid in ids}
    parents = {pid: draw(st.sampled_from([ROOT_ID, *ids[:k]])) for k, pid in enumerate(ids)}
    return {pid: parents[pid] for pid in draw(st.permutations(ids))}


@settings(FUZZ, max_examples=300)
@given(parent=_parent_maps())
def test_tree_walk_finds_the_cycles_and_orders_parents_first(parent):
    order, cycles = _tree_walk(parent)
    assert cycles == _cycles_by_brute_force(parent)
    if not cycles:
        assert sorted(order) == sorted(parent)
        position = {pid: k for k, pid in enumerate(order)}
        assert all(position[pa] < position[pid] for pid, pa in parent.items() if pa in parent)


class TestJsonRoundTrip:
    def test_save_load_identity(self, cabinet, tmp_path):
        path = tmp_path / "cab.json"
        save_model(cabinet, path)
        assert load_model(path) == cabinet

    def test_save_load_identity_at_100k_points(self, tmp_path):
        model = build_random_model(np.random.default_rng(5), 8, points_per_part=12_499, n_base=8)
        assert model.num_points == 100_000
        path = tmp_path / "big.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_one_point_per_line(self, cabinet, tmp_path):
        path = tmp_path / "cab.json"
        save_model(cabinet, path)
        text = path.read_text()
        doc = json.loads(text)
        assert doc == model_to_dict(cabinet)
        assert list(doc) == ["points", "base_indices", "parts", "tree"]
        lines = text.splitlines()
        first = lines.index('  "points": [') + 1
        rows = lines[first : first + cabinet.num_points]
        assert [json.loads(row.strip().rstrip(",")) for row in rows] == cabinet.points.tolist()
        assert lines[first + cabinet.num_points] == "  ],"

    def test_dict_round_trip(self, cabinet):
        assert model_from_dict(model_to_dict(cabinet)) == cabinet

    def test_missing_field_named(self, cabinet, tmp_path):
        doc = model_to_dict(cabinet)
        del doc["parts"][0]["joint"]["span"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="span"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"points": [[0, 0, 0]], "base_indices"')
        with pytest.raises(ParseError):
            load_model(path)

    def test_unknown_key_rejected(self, cabinet, tmp_path):
        doc = model_to_dict(cabinet)
        doc["extra"] = 1
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="extra"):
            load_model(path)

    def test_unknown_joint_key_rejected(self, cabinet, tmp_path):
        doc = model_to_dict(cabinet)
        doc["parts"][0]["joint"]["friction"] = 0.5
        path = tmp_path / "extra2.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="friction"):
            load_model(path)

    def test_negative_span_rejected_on_load(self, cabinet, tmp_path):
        doc = model_to_dict(cabinet)
        doc["parts"][1]["joint"]["span"] = -0.1
        path = tmp_path / "span.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="span"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_model(tmp_path / "nope.json")

    def test_not_utf8_file(self, cabinet, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(json.dumps(model_to_dict(cabinet)).encode("utf-16"))
        with pytest.raises(ParseError, match="invalid JSON"):
            load_model(path)


class TestUrdfExport:
    def test_counts(self, cabinet):
        doc = export_urdf(cabinet)
        assert doc.count(f'<robot name="{URDF_ROBOT_NAME}">') == 1
        assert doc.count("<joint ") == len(cabinet.parts)
        assert doc.count("<link ") == len(cabinet.parts) + 1

    def test_fixed_joint_has_no_limit(self, cabinet):
        doc = export_urdf(cabinet)
        fixed = doc.split('type="fixed"')[1].split("</joint>")[0]
        assert "<limit" not in fixed

    def test_revolute_limits_are_center_span(self):
        model = build_cabinet(door_limits=(0.5, 0.5))
        doc = export_urdf(model)
        assert 'lower="0"' in doc and 'upper="1"' in doc

    def test_origin_is_pivot_and_axis_matches(self, cabinet):
        doc = export_urdf(cabinet)
        assert 'xyz="0.2 -0.2 0"' in doc
        assert '<axis xyz="0 0 1"' in doc

    def test_grammar_validator_accepts(self, cabinet):
        assert check_urdf(export_urdf(cabinet)) == []

    def test_grammar_validator_rejects_broken(self, cabinet):
        doc = export_urdf(cabinet).replace('<limit lower="0" upper="1" effort="100" velocity="1" />', "")
        assert check_urdf(doc)

    def test_continuous_joint_type(self):
        model = build_cabinet()
        body, door = model.parts
        cont = PartSpec(
            door.id, door.label, door.point_indices,
            JointSpec(JointType.CONTINUOUS, door.joint.axis, door.joint.pivot, JointLimits()),
        )
        doc = export_urdf(ArticulatedModel(model.points, (body, cont), model.tree, model.base_indices))
        assert 'type="continuous"' in doc
        assert check_urdf(doc) == []

    def test_mesh_paths_emitted(self, cabinet):
        doc = export_urdf(cabinet, mesh_paths={0: "body.obj", 1: "door.obj", ROOT_ID: "base.obj"})
        assert doc.count('filename="door.obj"') == 2  # visual + collision
        assert check_urdf(doc) == []

    def test_invalid_model_raises(self, cabinet):
        with pytest.raises(ValidationError):
            export_urdf(ArticulatedModel(
                cabinet.points, cabinet.parts, KinematicTree({0: 1, 1: 0}), cabinet.base_indices
            ))


class TestTypes:
    def test_limits_lower_upper(self):
        lim = JointLimits(center=0.5, span=0.25)
        assert lim.lower == 0.25 and lim.upper == 0.75

    def test_model_immutability(self, cabinet):
        with pytest.raises(ValueError):
            cabinet.points[0, 0] = 9.0
        with pytest.raises(ValueError):
            cabinet.parts[1].joint.axis[0] = 1.0

    def test_equality_is_field_for_field(self, cabinet):
        other = build_cabinet()
        assert other == cabinet
        shifted = ArticulatedModel(
            np.array(cabinet.points) + 1e-12, cabinet.parts, cabinet.tree, cabinet.base_indices
        )
        assert shifted != cabinet

    def test_trimesh_validation(self):
        triangle = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        # (vertices, faces) -> the error building the mesh raises
        broken = [
            (([[0, 0, 0], [1, 0, math.nan], [0, 1, 0]], [[0, 1, 2]]), ValueError,
             "vertices must be finite"),
            # its area would overflow to inf
            (([[0, 0, 0], [1e200, 0, 0], [0, 1e200, 0]], [[0, 1, 2]]), ValueError,
             r"vertices must be finite and at most 1e\+30 in magnitude"),
            ((triangle, [[0, 1, 3]]), ValueError,
             "faces must be non-negative and below the vertex count 3"),
            ((triangle, [[0, 1, -1]]), ValueError,
             "faces must be non-negative and below the vertex count 3"),
            ((triangle, np.zeros((0, 3))), GeometryError, "no face with nonzero area"),
            (([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2], [0, 0, 1]]), GeometryError,
             "no face with nonzero area"),
        ]
        for (vertices, faces), error, message in broken:
            with pytest.raises(error, match=message):
                TriMesh(vertices, faces)
        ok = TriMesh(triangle, [[0, 1, 2], [0, 0, 1]])
        assert ok.face_areas().tolist() == [0.5, 0.0]
