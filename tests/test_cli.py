import importlib
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import artikit.model
from artikit.assignment import save_masks
from artikit.cli import build_parser, main
from artikit.geometry import (
    GRID_MAGIC,
    MAX_GRID_FEATURE_DIM,
    MAX_TRIPLANE_RESOLUTION,
    SparseVoxelGrid,
    load_features,
    save_grid,
)
from artikit.meshio import load_point_cloud_ply, save_point_cloud_ply
from artikit.model import (MAX_JOINT_MAGNITUDE, ArticulatedModel, KinematicTree, model_to_dict,
                           save_model)
from perfbench import spans
from tests.conftest import build_cabinet, build_random_model


@pytest.fixture
def cabinet_file(tmp_path):
    path = tmp_path / "cabinet.json"
    save_model(build_cabinet(), path)
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestArticulate:
    def test_writes_states_and_manifest(self, cabinet_file, tmp_path, capsys):
        out = tmp_path / "states"
        assert run(["articulate", cabinet_file, "--out", out, "--states", 6]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["manifest.json"] + [f"state_{k:02}.ply" for k in range(6)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        door_values = [s["values"]["1"] for s in manifest["states"]]
        np.testing.assert_allclose(door_values, [0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-9)

    def test_all_fixed_model_gives_identical_clouds(self, tmp_path):
        model = build_cabinet()
        from artikit.model import ArticulatedModel, JointSpec, JointType, PartSpec

        body, door = model.parts
        frozen = PartSpec(
            door.id, door.label, door.point_indices,
            JointSpec(JointType.FIXED, [0, 0, 1], [0, 0, 0]),
        )
        fixed_model = ArticulatedModel(model.points, (body, frozen), model.tree, model.base_indices)
        path = tmp_path / "fixed.json"
        save_model(fixed_model, path)
        out = tmp_path / "out"
        assert run(["articulate", path, "--out", out]) == 0
        blobs = {(out / f"state_{k:02}.ply").read_bytes() for k in range(6)}
        assert len(blobs) == 1

    def test_invalid_model_exits_2(self, tmp_path):
        doc = model_to_dict(build_cabinet())
        doc["tree"] = {"0": 1, "1": 0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "nope"
        assert run(["articulate", path, "--out", out]) == 2
        assert not out.exists() or not list(out.iterdir())

    def test_states_are_posed_clouds(self, cabinet_file, tmp_path):
        out = tmp_path / "s"
        run(["articulate", cabinet_file, "--out", out, "--states", 2])
        model = build_cabinet()
        first = load_point_cloud_ply(out / "state_00.ply")
        np.testing.assert_allclose(first, model.points, atol=1e-6)
        last = load_point_cloud_ply(out / "state_01.ply")
        door_idx = model.parts[1].point_indices
        assert np.abs(last[door_idx] - model.points[door_idx].astype(np.float32)).max() > 1e-3


class TestEvaluate:
    def test_self_evaluation(self, cabinet_file, capsys):
        assert run(["evaluate", cabinet_file, cabinet_file, "--points", 200]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cd_mean"] == 0.0
        assert payload["fscore_mean"] == 1.0
        assert payload["type_accuracy"] == 1.0

    def test_axis_fixture(self, cabinet_file, tmp_path, capsys):
        pred = build_cabinet(door_axis=(math.sin(0.1), 0.0, math.cos(0.1)))
        pred_path = tmp_path / "pred.json"
        save_model(pred, pred_path)
        assert run(["evaluate", pred_path, cabinet_file, "--points", 200]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["axis_err_mean"] == pytest.approx(0.1, abs=1e-6)

    def test_missing_file_exits_2(self, cabinet_file, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run(["evaluate", cabinet_file, missing]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_missing_file_named_twice_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run(["evaluate", missing, missing]) == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "articulate"])
    def test_model_point_outside_the_cube_exits_2(self, cabinet_file, tmp_path, capsys,
                                                  command):
        doc = model_to_dict(build_cabinet())
        doc["points"][3] = [3.0, 0.0, 0.0]
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(doc))
        argv = ([command, path, cabinet_file] if command == "evaluate"
                else [command, path, "--out", tmp_path / "out"])
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "violation: points[3]: outside the canonical cube [-0.5, 0.5]^3" in captured.err

    def test_non_list_parts_exits_2(self, cabinet_file, tmp_path, capsys):
        doc = model_to_dict(build_cabinet())
        doc["parts"] = 5
        path = tmp_path / "parts5.json"
        path.write_text(json.dumps(doc))
        assert run(["evaluate", path, cabinet_file]) == 2
        assert "parts" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["0", "-0.05", "inf", "nan"])
    def test_non_positive_tau_exits_2(self, cabinet_file, capsys, tau):
        assert run(["evaluate", cabinet_file, cabinet_file, "--tau", tau]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tau must be positive" in captured.err

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_points_below_one_exit_2(self, cabinet_file, capsys, points):
        assert run(["evaluate", cabinet_file, cabinet_file, "--points", points]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_points must be finite and at least 1" in captured.err


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["evaluate", "articulate"])
    @pytest.mark.parametrize("joint, violation", [
        ({"pivot": [1e154, 0.0, 0.0]}, "joint pivot above 1e+30 in magnitude"),
        ({"pivot": [0.0, -1e200, 0.0]}, "joint pivot above 1e+30 in magnitude"),
        ({"type": "prismatic", "center": 0.0, "span": 1e154},
         "joint limits above 1e+30 in magnitude"),
        ({"type": "prismatic", "center": 0.0, "span": 1e150},
         "joint limits above 1e+30 in magnitude"),
        ({"center": -1e31, "span": 0.5}, "joint limits above 1e+30 in magnitude"),
        ({"axis": [math.nan, 0.0, 1.0]}, "joint axis not finite"),
        ({"span": -0.1}, "joint limits violate span >= 0 (span=-0.1)"),
        ({"center": math.nan}, "joint limits not finite"),
    ], ids=["pivot-1e154", "pivot-1e200", "span-1e154", "span-1e150", "center-1e31",
            "axis-nan", "span-negative", "center-nan"])
    def test_huge_joint_values_exit_2_without_a_warning(self, cabinet_file, tmp_path, capsys,
                                                        command, joint, violation):
        doc = model_to_dict(build_cabinet())
        doc["parts"][1]["joint"].update(joint)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        argv = ([command, path, cabinet_file] if command == "evaluate"
                else [command, path, "--out", tmp_path / "out"])
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: parts[1]: {violation}" in captured.err
        assert "Warning" not in captured.err and "Traceback" not in captured.err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["evaluate", "articulate"])
    @pytest.mark.parametrize("joint", [
        {"pivot": [MAX_JOINT_MAGNITUDE, -MAX_JOINT_MAGNITUDE, MAX_JOINT_MAGNITUDE]},
        {"type": "prismatic", "center": -MAX_JOINT_MAGNITUDE, "span": MAX_JOINT_MAGNITUDE},
    ], ids=["pivot", "prismatic-limits"])
    def test_joint_values_at_the_magnitude_bound_are_accepted(self, cabinet_file, tmp_path,
                                                             capsys, command, joint):
        doc = model_to_dict(build_cabinet())
        doc["parts"][1]["joint"].update(joint)
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(doc))
        argv = ([command, path, cabinet_file] if command == "evaluate"
                else [command, path, "--out", tmp_path / "out"])
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert "Warning" not in captured.err and "Traceback" not in captured.err
        if command == "articulate":
            clouds = [load_point_cloud_ply(p) for p in sorted((tmp_path / "out").glob("*.ply"))]
            assert len(clouds) == 6 and all(np.isfinite(c).all() for c in clouds)


@pytest.mark.parametrize("argv, validations", [
    (["evaluate", "pred.json", "gt.json", "--points", 200], 2),
    (["evaluate", "gt.json", "gt.json", "--points", 200], 1),
    (["articulate", "gt.json", "--out", "states", "--states", 6], 1),
], ids=["evaluate-pair", "evaluate-self", "articulate"])
def test_each_model_file_is_validated_once(tmp_path, monkeypatch, argv, validations):
    save_model(build_cabinet(door_axis=(math.sin(0.1), 0.0, math.cos(0.1))), tmp_path / "pred.json")
    save_model(build_cabinet(), tmp_path / "gt.json")
    monkeypatch.chdir(tmp_path)
    calls = []
    real = artikit.model.require_valid

    def counting(model):
        calls.append(model)
        real(model)

    # count the calls through every module that holds the name, as perfbench does
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "artikit" and getattr(module, "require_valid", None) is real:
            monkeypatch.setattr(module, "require_valid", counting)
    assert run(argv) == 0
    assert len(calls) == validations


@pytest.mark.parametrize("command", ["evaluate", "articulate"])
@pytest.mark.parametrize("states", [0, 1, -3])
def test_fewer_than_two_states_exit_2_for_a_model_without_parts(tmp_path, capsys, command,
                                                                 states):
    path = tmp_path / "base.json"
    points = np.random.default_rng(3).uniform(-0.4, 0.4, size=(8, 3))
    save_model(ArticulatedModel(points, (), KinematicTree({}), np.arange(8)), path)
    out = tmp_path / "out"
    argv = ([command, path, path] if command == "evaluate" else [command, path, "--out", out])
    assert run(argv + [f"--states={states}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"need at least 2 states, got {states}" in captured.err
    assert not out.exists()


class TestTree:
    def test_root_dominant_star(self, tmp_path, capsys):
        (tmp_path / "logits.json").write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        (tmp_path / "compat.json").write_text(json.dumps([[0.0, 0.0], [0.0, 0.0]]))
        (tmp_path / "root.json").write_text(json.dumps([10.0, 10.0]))
        assert run([
            "tree", tmp_path / "logits.json", tmp_path / "compat.json",
            "--root-scores", tmp_path / "root.json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parents"] == {"0": -1, "1": -1}

    def test_mutual_preference_repaired(self, tmp_path, capsys):
        (tmp_path / "logits.json").write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        (tmp_path / "compat.json").write_text(json.dumps([[0.0, 5.0], [5.0, 0.0]]))
        assert run(["tree", tmp_path / "logits.json", tmp_path / "compat.json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parents"] == {"0": 1, "1": -1}
        rows = np.array(payload["distribution"])
        np.testing.assert_allclose(rows.sum(axis=1), [1.0, 1.0], atol=1e-9)

    def test_single_part(self, tmp_path, capsys):
        (tmp_path / "logits.json").write_text(json.dumps([[1.0]]))
        (tmp_path / "compat.json").write_text(json.dumps([[1.0]]))
        assert run(["tree", tmp_path / "logits.json", tmp_path / "compat.json"]) == 0
        assert json.loads(capsys.readouterr().out)["parents"] == {"0": -1}

    def test_malformed_matrix_exits_2(self, tmp_path):
        (tmp_path / "logits.json").write_text(json.dumps([[0.7, 0.7]]))  # not stochastic
        (tmp_path / "compat.json").write_text(json.dumps([[0.0, 0.0], [0.0, 0.0]]))
        assert run(["tree", tmp_path / "logits.json", tmp_path / "compat.json"]) == 2

    @pytest.mark.parametrize("row", [[-0.5, 1.5], [math.nan, 1.0], [math.inf, 0.0],
                                     [1.0, -math.inf]])
    def test_negative_or_non_finite_probabilities_exit_2(self, tmp_path, capsys, row):
        (tmp_path / "logits.json").write_text(json.dumps([[1.0, 0.0], row]))
        (tmp_path / "compat.json").write_text(json.dumps([[0.0, 5.0], [5.0, 0.0]]))
        assert run(["tree", tmp_path / "logits.json", tmp_path / "compat.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "part probabilities must be finite and non-negative" in captured.err

    @pytest.mark.filterwarnings("error")
    def test_huge_probabilities_exit_2_before_they_are_summed(self, tmp_path, capsys):
        (tmp_path / "logits.json").write_text(json.dumps([[1e308, 1e308], [0.0, 1.0]]))
        (tmp_path / "compat.json").write_text(json.dumps([[0.0, 5.0], [5.0, 0.0]]))
        assert run(["tree", tmp_path / "logits.json", tmp_path / "compat.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("part probabilities must be finite and non-negative and at most 1 + 1e-06"
                in captured.err)
        assert "Warning" not in captured.err and "Traceback" not in captured.err

    def test_probabilities_within_the_row_tolerance_are_accepted(self, tmp_path, capsys):
        (tmp_path / "logits.json").write_text(json.dumps([[1.0 + 5e-7, 0.0], [0.0, 1.0]]))
        (tmp_path / "compat.json").write_text(json.dumps([[0.0, 5.0], [5.0, 0.0]]))
        assert run(["tree", tmp_path / "logits.json", tmp_path / "compat.json"]) == 0
        assert json.loads(capsys.readouterr().out)["parents"] == {"0": 1, "1": -1}

    @pytest.mark.parametrize("compat, root", [
        ([[0.0, math.inf], [5.0, 0.0]], None),
        ([[0.0, math.nan], [5.0, 0.0]], None),
        ([[0.0, -1e301], [5.0, 0.0]], None),
        ([[0.0, 5.0], [5.0, 0.0]], [0.0, -math.inf]),
        ([[0.0, 5.0], [5.0, 0.0]], [1e308, 0.0]),
    ], ids=["compat-inf", "compat-nan", "compat-huge", "root-inf", "root-huge"])
    def test_non_finite_or_huge_scores_exit_2_without_a_warning(self, tmp_path, capsys,
                                                                compat, root):
        (tmp_path / "logits.json").write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        (tmp_path / "compat.json").write_text(json.dumps(compat))
        argv = ["tree", tmp_path / "logits.json", tmp_path / "compat.json"]
        if root is not None:
            (tmp_path / "root.json").write_text(json.dumps(root))
            argv += ["--root-scores", tmp_path / "root.json"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite and at most 1e+300 in magnitude" in captured.err
        assert "Warning" not in captured.err

    def test_scores_at_the_magnitude_bound_are_accepted(self, tmp_path, capsys):
        (tmp_path / "logits.json").write_text(json.dumps([[0.5, 0.5], [0.25, 0.75]]))
        (tmp_path / "compat.json").write_text(json.dumps([[1e300, -1e300], [-1e300, 1e300]]))
        (tmp_path / "root.json").write_text(json.dumps([1e300, -1e300]))
        assert run(["tree", tmp_path / "logits.json", tmp_path / "compat.json",
                    "--root-scores", tmp_path / "root.json"]) == 0
        assert json.loads(capsys.readouterr().out)["parents"] == {"0": -1, "1": 0}


class TestMatch:
    def test_identical_masks(self, tmp_path, capsys):
        masks = np.zeros((2, 12), dtype=bool)
        masks[0, :6] = True
        masks[1, 6:] = True
        save_masks(masks, tmp_path / "pred.bits")
        save_masks(masks, tmp_path / "gt.bits")
        assert run(["match", tmp_path / "pred.bits", tmp_path / "gt.bits"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == [[0, 0], [1, 1]]
        assert payload["confidence_targets"] == [1.0, 1.0]
        assert payload["confident"] == [0, 1]

    def test_rectangular_with_unmatched(self, tmp_path, capsys):
        pred = np.zeros((3, 12), dtype=bool)
        pred[0, :6] = True
        pred[1, 6:] = True
        pred[2, 3:9] = True
        gt = pred[:2]
        save_masks(pred, tmp_path / "pred.bits")
        save_masks(gt, tmp_path / "gt.bits")
        assert run(["match", tmp_path / "pred.bits", tmp_path / "gt.bits"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["pairs"]) == 2
        assert payload["unmatched_queries"] == [2]
        assert payload["confidence_targets"][2] == 0.0

    def test_half_overlap_target(self, tmp_path, capsys):
        pred = np.zeros((1, 8), dtype=bool)
        pred[0, 1:5] = True
        gt = np.zeros((1, 8), dtype=bool)
        gt[0, 3:7] = True
        save_masks(pred, tmp_path / "pred.bits")
        save_masks(gt, tmp_path / "gt.bits")
        assert run(["match", tmp_path / "pred.bits", tmp_path / "gt.bits"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["confidence_targets"][0] == pytest.approx(1 / 3, abs=1e-9)

    def test_soft_masks_on_the_unit_interval_bounds(self, tmp_path, capsys):
        pred = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]], dtype=np.float32)
        save_masks(pred, tmp_path / "pred.f32")
        save_masks(pred > 0.5, tmp_path / "gt.bits")
        assert run(["match", tmp_path / "pred.f32", tmp_path / "gt.bits"]) == 0
        assert json.loads(capsys.readouterr().out)["pairs"] == [[0, 0], [1, 1]]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -3.0, 7.0,
                                       float(np.nextafter(np.float32(1), np.float32(2)))])
    def test_soft_mask_value_outside_unit_interval_exits_2(self, tmp_path, capsys, value):
        pred = np.full((2, 8), 0.25, dtype=np.float32)
        pred[1, 5] = value
        save_masks(pred, tmp_path / "pred.f32")
        save_masks(np.ones((2, 8), dtype=bool), tmp_path / "gt.bits")
        assert run(["match", tmp_path / "pred.f32", tmp_path / "gt.bits"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite and lie in [0, 1]" in captured.err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "2", "-1"])
    def test_threshold_outside_the_unit_interval_exits_2(self, tmp_path, capsys, threshold):
        save_masks(np.ones((1, 8), dtype=bool), tmp_path / "pred.bits")
        save_masks(np.ones((1, 8), dtype=bool), tmp_path / "gt.bits")
        argv = ["match", tmp_path / "pred.bits", tmp_path / "gt.bits", f"--threshold={threshold}"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold must be finite and lie in [0, 1]" in captured.err

    @pytest.mark.parametrize("threshold, confident", [("0", [0, 1]), ("1", [0])])
    def test_threshold_on_the_unit_interval_bounds(self, tmp_path, capsys, threshold, confident):
        pred = np.zeros((2, 8), dtype=bool)
        pred[0, :4] = True
        pred[1, 2:6] = True
        save_masks(pred, tmp_path / "pred.bits")
        save_masks(pred[:1], tmp_path / "gt.bits")
        argv = ["match", tmp_path / "pred.bits", tmp_path / "gt.bits", f"--threshold={threshold}"]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["confident"] == confident

    def test_m_mismatch_exits_2(self, tmp_path):
        save_masks(np.ones((1, 8), dtype=bool), tmp_path / "pred.bits")
        save_masks(np.ones((1, 9), dtype=bool), tmp_path / "gt.bits")
        assert run(["match", tmp_path / "pred.bits", tmp_path / "gt.bits"]) == 2


class TestFeatures:
    def grid_file(self, tmp_path):
        path = tmp_path / "grid.bin"
        save_grid(SparseVoxelGrid(8, [[2, 5, 1]], [[1.0, 2.0]]), path)
        return path

    def node(self, i):
        return (i + 0.5) / 8 - 0.5

    def test_node_fixture(self, tmp_path, capsys):
        grid = self.grid_file(tmp_path)
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[self.node(2), self.node(5), self.node(1)]]))
        out = tmp_path / "feats"
        assert run(["features", grid, pts, "--out", out, "--triplane-resolution", 8]) == 0
        f_geo = load_features(out / "f_geo.f32")
        f_tri = load_features(out / "f_tri.f32")
        np.testing.assert_allclose(f_geo, [[1.0, 2.0]], atol=1e-6)
        np.testing.assert_allclose(f_tri, [[1, 2, 1, 2, 1, 2]], atol=1e-6)

    def test_cell_center_mean_of_eight_corners(self, tmp_path):
        import itertools

        cells = {}
        for d, (dx, dy, dz) in enumerate(itertools.product((0, 1), repeat=3)):
            cells[(3 + dx, 3 + dy, 3 + dz)] = [float(d)]
        grid = tmp_path / "g8.bin"
        save_grid(SparseVoxelGrid(8, list(cells), list(cells.values())), grid)
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[self.node(3.5)] * 3]))
        out = tmp_path / "feats"
        assert run(["features", grid, pts, "--out", out]) == 0
        f_geo = load_features(out / "f_geo.f32")
        assert f_geo[0, 0] == pytest.approx(3.5, abs=1e-6)  # mean of 0..7

    def test_empty_grid_zero_features(self, tmp_path):
        grid = tmp_path / "empty.bin"
        save_grid(SparseVoxelGrid(8, np.zeros((0, 3)), np.zeros((0, 4))), grid)
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[0.1, 0.1, 0.1]]))
        out = tmp_path / "feats"
        assert run(["features", grid, pts, "--out", out]) == 0
        np.testing.assert_array_equal(load_features(out / "f_geo.f32"), np.zeros((1, 4)))

    def test_out_of_cube_exits_3(self, tmp_path):
        grid = self.grid_file(tmp_path)
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[0.7, 0.0, 0.0]]))
        assert run(["features", grid, pts, "--out", tmp_path / "f"]) == 3

    def test_nan_point_exits_3(self, tmp_path, capsys):
        grid = self.grid_file(tmp_path)
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[0.0, 0.0, 0.0], [math.nan, 0.0, 0.0]]))
        assert run(["features", grid, pts, "--out", tmp_path / "f"]) == 3
        assert "point 1 outside the canonical cube" in capsys.readouterr().err

    def test_bad_grid_exits_2(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[0.0, 0.0, 0.0]]))
        assert run(["features", bad, pts, "--out", tmp_path / "f"]) == 2

    def test_non_finite_grid_feature_exits_2(self, tmp_path, capsys):
        grid = self.grid_file(tmp_path)
        blob = grid.read_bytes()
        # the one cell's features follow the magic, the header and its (i, j, k)
        grid.write_bytes(blob[:38] + struct.pack("<2f", math.inf, math.nan) + blob[46:])
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[0.0, 0.0, 0.0]]))
        assert run(["features", grid, pts, "--out", tmp_path / "f"]) == 2
        assert "cell (2, 5, 1) has a non-finite feature" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_grid_dim_above_cap_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "huge.bin"
        grid.write_bytes(GRID_MAGIC + struct.pack("<IIQ", 8, 2**29 - 2, 0))
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[0.0, 0.0, 0.0]]))
        assert run(["features", grid, pts, "--out", tmp_path / "f"]) == 2
        assert f"exceeds {MAX_GRID_FEATURE_DIM}" in capsys.readouterr().err

    @pytest.mark.parametrize("resolution", [0, MAX_TRIPLANE_RESOLUTION + 1, 100_000_000])
    def test_triplane_resolution_out_of_range_exits_2(self, tmp_path, capsys, resolution):
        grid = self.grid_file(tmp_path)
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[0.0, 0.0, 0.0]]))
        argv = ["features", grid, pts, "--out", tmp_path / "f",
                "--triplane-resolution", resolution]
        assert run(argv) == 2
        assert f"resolution must be in [1, {MAX_TRIPLANE_RESOLUTION}], got {resolution}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "f").exists()


def _model_text(edit):
    doc = model_to_dict(build_cabinet())
    edit(doc)
    return json.dumps(doc)


def _deep(depth=100_000):
    return "[" * depth + "]" * depth


# case -> (file name, file text, role of the file).  Each text nests deeper
# than the JSON decoder's recursion limit, holds an integer longer than the
# interpreter converts, or decodes to a number (inf, 10**23, 10**400) that
# cannot become the integer or float it stands for.
_BAD_JSON = {
    "model-id": ("m.json", _model_text(lambda d: d["parts"][0].update(id=math.inf)), "model"),
    "model-point-index": (
        "m.json", _model_text(lambda d: d["parts"][0]["point_indices"].append(10**23)), "model"),
    "model-tree": ("m.json", _model_text(lambda d: d["tree"].update({"0": math.inf})), "model"),
    "model-base-index": (
        "m.json", _model_text(lambda d: d.update(base_indices=[math.inf])), "model"),
    "model-nested": ("m.json", _deep(), "model"),
    "sidecar-rows": ("pred.bits.json", '{"rows": 1e999, "M": 8}', "sidecar"),
    "sidecar-nested": ("pred.bits.json", _deep(), "sidecar"),
    "points-401-digits": ("pts.json", f"[[{10**400}, 0, 0]]", "points"),
    "points-5000-digits": ("pts.json", f"[[{'1' * 5000}, 0, 0]]", "points"),
    "points-nested": ("pts.json", _deep(), "points"),
}


@pytest.mark.parametrize("case", sorted(_BAD_JSON))
def test_unconvertible_json_exits_2(tmp_path, capsys, case):
    name, text, role = _BAD_JSON[case]
    bad = tmp_path / name
    if role == "model":
        save_model(build_cabinet(), tmp_path / "gt.json")
        argv = ["evaluate", bad, tmp_path / "gt.json"]
    elif role == "sidecar":
        save_masks(np.ones((1, 8), dtype=bool), tmp_path / "pred.bits")
        save_masks(np.ones((1, 8), dtype=bool), tmp_path / "gt.bits")
        argv = ["match", tmp_path / "pred.bits", tmp_path / "gt.bits"]
    else:
        save_grid(SparseVoxelGrid(8, [[2, 5, 1]], [[1.0]]), tmp_path / "grid.bin")
        argv = ["features", tmp_path / "grid.bin", bad, "--out", tmp_path / "f"]
    bad.write_text(text)
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


class TestLossesSelftest:
    def test_exit_zero_and_table(self, capsys):
        assert run(["losses", "selftest"]) == 0
        out = capsys.readouterr().out
        assert "0.693147" in out  # triplet degenerate prints log 2
        assert "1.38629" in out  # structure uniform prints ln 4
        assert "FAIL" not in out


class TestDefaults:
    def test_flag_defaults_match_protocol_constants(self):
        parser = build_parser()
        ev = parser.parse_args(["evaluate", "a", "b"])
        assert ev.states == 6
        assert ev.points == 100000
        assert ev.tau == 0.05
        assert ev.seed == 0
        ar = parser.parse_args(["articulate", "m", "--out", "d"])
        assert ar.states == 6 and ar.seed == 0
        ma = parser.parse_args(["match", "p", "g"])
        assert ma.threshold == 0.5
        fe = parser.parse_args(["features", "g", "p", "--out", "d"])
        assert fe.triplane_resolution == 128


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ARTIKIT_THREADS")


def test_evaluate_stdout_does_not_depend_on_artikit_threads(tmp_path):
    """Serial (1), the usable CPUs (unset) and an ignored value give the same bytes."""
    rng = np.random.default_rng(5)
    save_model(build_random_model(rng, 4, points_per_part=600), tmp_path / "pred.json")
    save_model(build_random_model(rng, 3, points_per_part=800), tmp_path / "gt.json")
    base_env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    outputs = {}
    for value in (None, "1", "two", "-1"):
        env = dict(base_env) if value is None else {**base_env, "ARTIKIT_THREADS": value}
        proc = subprocess.run(
            [sys.executable, "-m", "artikit", "evaluate",
             str(tmp_path / "pred.json"), str(tmp_path / "gt.json")],
            capture_output=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b""), (value, proc.stderr)
        outputs[value] = proc.stdout
    assert len(set(outputs.values())) == 1
    assert json.loads(outputs[None])["per_state"]


def test_match_stdout_does_not_depend_on_artikit_threads(tmp_path):
    """Twin query rows in opposite halves tie exactly, so serial (1), the
    usable CPUs (unset) and ignored values print the same pairs."""
    rng = np.random.default_rng(0)
    m = 50_000
    gt = rng.integers(0, 50, m) == np.arange(50)[:, None]
    distinct = gt[:25] ^ (rng.random((25, m)) < 0.1)
    save_masks(np.concatenate([distinct, distinct]), tmp_path / "pred.bits")
    save_masks(gt, tmp_path / "gt.bits")
    base_env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    outputs = {}
    for value in (None, "1", "two", "-1"):
        env = dict(base_env) if value is None else {**base_env, "ARTIKIT_THREADS": value}
        proc = subprocess.run(
            [sys.executable, "-m", "artikit", "match",
             str(tmp_path / "pred.bits"), str(tmp_path / "gt.bits")],
            capture_output=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b""), (value, proc.stderr)
        outputs[value] = proc.stdout
    assert len(set(outputs.values())) == 1
    assert len(json.loads(outputs[None])["pairs"]) == 50


def test_features_files_do_not_depend_on_artikit_threads(tmp_path):
    """The grid kernels split their points across the thread budget; serial (1),
    the usable CPUs (unset) and ignored values write the same bytes."""
    rng = np.random.default_rng(6)
    keys = np.unique(np.floor(rng.random(500) * 16**3).astype(np.int64))
    ijk = np.stack([keys // 256, keys // 16 % 16, keys % 16], axis=1)
    save_grid(SparseVoxelGrid(16, ijk, rng.random((len(keys), 3)).astype(np.float32)),
              tmp_path / "grid.bin")
    (tmp_path / "pts.json").write_text(json.dumps((rng.random((2001, 3)) - 0.5).tolist()))
    base_env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    outputs = {}
    for value in (None, "1", "two", "-1"):
        env = dict(base_env) if value is None else {**base_env, "ARTIKIT_THREADS": value}
        out = tmp_path / f"out-{value}"
        proc = subprocess.run(
            [sys.executable, "-m", "artikit", "features", str(tmp_path / "grid.bin"),
             str(tmp_path / "pts.json"), "--out", str(out), "--triplane-resolution", "32"],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (value, proc.stderr)
        outputs[value] = tuple((out / name).read_bytes() for name in ("f_geo.f32", "f_tri.f32"))
    assert len(set(outputs.values())) == 1
    assert len(outputs[None][1]) == 2001 * 9 * 4


def test_every_traced_call_site_is_reached(tmp_path, monkeypatch):
    """Each site perfbench wraps is still called by the workloads it times."""
    calls = {(module, attr): 0 for module, attr, _name in spans.WRAPPED}

    def counting(site, fn):
        def counted(*args, **kwargs):
            calls[site] += 1
            return fn(*args, **kwargs)
        return counted

    for module, attr in calls:
        target = importlib.import_module(module)
        monkeypatch.setattr(target, attr, counting((module, attr), getattr(target, attr)))

    # evaluate on two different clouds, so predicted labels go through the NN transfer
    save_model(build_random_model(np.random.default_rng(2), 3), tmp_path / "pred.json")
    save_model(build_cabinet(), tmp_path / "gt.json")
    assert run(["evaluate", tmp_path / "pred.json", tmp_path / "gt.json", "--states", 2]) == 0

    pred = np.array([[0.9, 0.8, 0.1, 0.0], [0.0, 0.2, 0.7, 1.0]], dtype=np.float32)
    save_masks(pred, tmp_path / "pred.f32")
    save_masks(pred > 0.5, tmp_path / "gt.bits")
    assert run(["match", tmp_path / "pred.f32", tmp_path / "gt.bits"]) == 0

    save_grid(SparseVoxelGrid(8, [[2, 5, 1]], [[1.0, 2.0]]), tmp_path / "grid.bin")
    points = np.array([[0.0, 0.1, -0.2], [0.3, -0.3, 0.25]])
    (tmp_path / "pts.json").write_text(json.dumps(points.tolist()))
    save_point_cloud_ply(points, tmp_path / "pts.ply")
    for name in ("pts.json", "pts.ply"):
        argv = ["features", tmp_path / "grid.bin", tmp_path / name, "--out", tmp_path / "f",
                "--triplane-resolution", 8]
        assert run(argv) == 0

    # models are validated in model.py; these two names are kept only for perfbench
    shims = {("artikit.metrics", "require_valid"), ("artikit.kinematics", "require_valid")}
    assert {site for site, count in calls.items() if count == 0} <= shims
