"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from artikit.assignment import hungarian
from artikit.geometry import (
    SparseVoxelGrid,
    load_grid,
    nearest_neighbor_distances,
    save_grid,
    triplane_gather,
    triplane_scatter,
    trilinear_interpolate,
)
from artikit.kinematics import (
    AffinityMatrix,
    apply_joint,
    articulate,
    build_tree,
    canonical_state,
    parent_distribution,
    sample_states,
)
from artikit.losses import (
    confidence_loss,
    dice_loss,
    focal_loss,
    structure_loss,
    triplet_loss,
)
from artikit.metrics import evaluate
from artikit.model import (
    ROOT_ID,
    JointLimits,
    JointSpec,
    JointType,
    export_urdf,
    load_model,
    save_model,
)
from tests.conftest import build_cabinet, build_random_model, criterion3_matrices
from tests.oracles import bce_mean, brute_force_assignment, check_urdf, nn_brute_force, trilinear_oracle


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, detail or criterion


def test_c01_metric_identities_on_random_models():
    rng = np.random.default_rng(101)
    failures = []
    start = time.perf_counter()
    for trial in range(10):
        n_parts = 2 + trial % 2
        model = build_random_model(rng, n_parts, points_per_part=(10000 - 400) // n_parts, n_base=400)
        rep = evaluate(model, model, n_states=6, seed=trial)
        if not rep.cd_mean < 1e-9:
            failures.append(f"trial {trial}: cd_mean {rep.cd_mean}")
        if rep.fscore_mean != 1.0:
            failures.append(f"trial {trial}: fscore {rep.fscore_mean}")
        if rep.type_accuracy != 1.0:
            failures.append(f"trial {trial}: type_accuracy {rep.type_accuracy}")
        if not (rep.axis_errors and all(e < 1e-9 for e in rep.axis_errors)):
            failures.append(f"trial {trial}: axis errors {rep.axis_errors}")
        if not (rep.pivot_errors and all(e < 1e-9 for e in rep.pivot_errors)):
            failures.append(f"trial {trial}: pivot errors {rep.pivot_errors}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(
        "criterion 1: evaluate(m, m) identities on 10 random models at 10^4 points "
        f"({elapsed:.1f}s)",
        not failures,
        "; ".join(failures),
    )


def test_c02_constructed_perturbation_fixtures():
    gt = build_cabinet()
    delta = 0.1
    pred_axis = build_cabinet(door_axis=(math.sin(delta), 0.0, math.cos(delta)))
    rep_axis = evaluate(pred_axis, gt, n_states=6, seed=0)
    pred_pivot = build_cabinet(door_pivot=(0.25, -0.2, 0.0))
    rep_pivot = evaluate(pred_pivot, gt, n_states=6, seed=0)
    ok_axis = abs(rep_axis.axis_err_mean - 0.1) <= 1e-6 and rep_axis.type_accuracy == 1.0
    ok_pivot = abs(rep_pivot.pivot_err_mean - 0.05) <= 1e-6
    report(
        "criterion 2: perturbation fixtures (axis 0.1 rad, pivot 0.05 offset)",
        ok_axis and ok_pivot,
        f"axis_err_mean={rep_axis.axis_err_mean}, pivot_err_mean={rep_pivot.pivot_err_mean}",
    )


def test_c03_hungarian_equals_brute_force():
    mismatches = []
    count = 0
    for label, cost in criterion3_matrices():
        got = hungarian(cost)
        total, pairs = brute_force_assignment(cost)
        count += 1
        if abs(got.total_cost - total) > 1e-12 or list(got.pairs) != pairs:
            mismatches.append(f"{label}: {got.pairs} vs {pairs}")
    report(
        f"criterion 3: hungarian == exhaustive search on {count} matrices (lex ties)",
        count >= 1000 and not mismatches,
        "; ".join(mismatches[:3]),
    )


def test_c04_forward_kinematics_invariants():
    rng = np.random.default_rng(404)
    worst_pair = worst_axis = worst_inv = 0.0
    for _ in range(10000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        pivot = rng.uniform(-0.5, 0.5, size=3)
        angle = float(rng.uniform(-math.pi, math.pi))
        joint = JointSpec(JointType.REVOLUTE, axis, pivot, JointLimits(0.0, math.pi))
        pts = rng.uniform(-0.5, 0.5, size=(3, 3))
        out = apply_joint(joint, angle, pts)

        d_in = np.linalg.norm(pts[0] - pts[1]), np.linalg.norm(pts[1] - pts[2])
        d_out = np.linalg.norm(out[0] - out[1]), np.linalg.norm(out[1] - out[2])
        worst_pair = max(worst_pair, abs(d_in[0] - d_out[0]), abs(d_in[1] - d_out[1]))

        rad_in = np.linalg.norm(np.cross(pts - pivot, axis), axis=1)
        rad_out = np.linalg.norm(np.cross(out - pivot, axis), axis=1)
        worst_axis = max(worst_axis, float(np.abs(rad_in - rad_out).max()))

        back = apply_joint(joint, -angle, out)
        worst_inv = max(worst_inv, float(np.abs(back - pts).max()))

    # prismatic inverse and canonical-state identity on full models
    pj = JointSpec(JointType.PRISMATIC, [0, 1, 0], [0, 0, 0], JointLimits(0.0, 0.5))
    pts = rng.uniform(-0.5, 0.5, size=(20, 3))
    prismatic_inv = float(np.abs(apply_joint(pj, -0.3, apply_joint(pj, 0.3, pts)) - pts).max())

    canonical_ok = True
    for trial in range(5):
        model = build_random_model(rng, 3)
        posed = articulate(model, canonical_state(model))
        canonical_ok &= bool(np.array_equal(posed, model.points))

    ok = worst_pair < 1e-9 and worst_axis < 1e-9 and worst_inv < 1e-9 and prismatic_inv < 1e-9 and canonical_ok
    report(
        "criterion 4: 10^4 revolute isometries, inverse composition, canonical identity",
        ok,
        f"pair={worst_pair:.2e} axis={worst_axis:.2e} inv={worst_inv:.2e} "
        f"prism={prismatic_inv:.2e} canonical={canonical_ok}",
    )


def _assert_valid_tree(tree, n):
    if sorted(tree.parent) != list(range(n)):
        return False
    for pid, parent in tree.parent.items():
        if parent != ROOT_ID and not (0 <= parent < n and parent != pid):
            return False
    for start in range(n):
        seen = set()
        cur = start
        while cur != ROOT_ID:
            if cur in seen:
                return False
            seen.add(cur)
            cur = tree.parent[cur]
    return True


def test_c05_tree_construction_always_valid():
    rng = np.random.default_rng(505)
    bad = 0
    worst_row_sum = 0.0
    for _ in range(10000):
        n = int(rng.integers(1, 21))
        aff = AffinityMatrix(
            scores=rng.normal(scale=2.0, size=(n, n)),
            root_scores=rng.normal(scale=2.0, size=n),
        )
        dist = parent_distribution(aff)
        worst_row_sum = max(worst_row_sum, float(np.abs(dist.probs.sum(axis=1) - 1.0).max()))
        if not _assert_valid_tree(build_tree(dist), n):
            bad += 1
    report(
        "criterion 5: 10^4 random parent distributions yield valid trees, rows sum to 1",
        bad == 0 and worst_row_sum <= 1e-9,
        f"bad trees={bad}, worst row sum deviation={worst_row_sum:.2e}",
    )


def test_c06_geometry_op_oracles():
    rng = np.random.default_rng(606)
    cells = {
        (int(i), int(j), int(k)): rng.normal(size=4)
        for i, j, k in rng.integers(0, 32, size=(2000, 3))
    }
    grid = SparseVoxelGrid(32, list(cells), list(cells.values()))
    oracle_cells = {key: np.asarray(v, dtype=np.float32).astype(np.float64)
                    for key, v in cells.items()}
    queries = rng.uniform(-0.5, 0.5, size=(10000, 3))
    got = trilinear_interpolate(grid, queries)
    worst_tri = max(
        float(np.abs(got[i] - trilinear_oracle(oracle_cells, 32, queries[i])).max())
        for i in range(queries.shape[0])
    )

    # scatter(gather on the node lattice, collision-free rows only
    idx = np.unique(rng.choice(32, size=(40, 3)), axis=0)
    keep = []
    for proj in ((0, 1), (1, 2), (2, 0)):
        _, first = np.unique(idx[:, proj], axis=0, return_index=True)
        keep.append(set(first.tolist()))
    idx = idx[sorted(set.intersection(*keep))]
    node_pts = (idx + 0.5) / 32 - 0.5
    feats = rng.normal(size=(len(idx), 6))
    stack = triplane_scatter(node_pts, feats, resolution=32)
    gathered = triplane_gather(stack, node_pts)
    worst_plane = float(np.abs(gathered - np.tile(feats, (1, 3))).max())

    a = rng.uniform(-0.5, 0.5, size=(1000, 3))
    b = rng.uniform(-0.5, 0.5, size=(700, 3))
    worst_nn = float(np.abs(nearest_neighbor_distances(a, b) - nn_brute_force(a, b)).max())

    ok = worst_tri <= 1e-12 and worst_plane <= 1e-12 and worst_nn <= 1e-12
    report(
        "criterion 6: trilinear/triplane/NN oracles agree to 1e-12",
        ok,
        f"trilinear={worst_tri:.2e} triplane={worst_plane:.2e} nn={worst_nn:.2e}",
    )


def test_c07_loss_kernel_closed_forms():
    checks = []
    v = np.array([0.4, -0.1, 0.8])
    checks.append(abs(triplet_loss(v, v, v, tau=0.9) - math.log(2.0)) <= 1e-6)
    checks.append(
        abs(triplet_loss([1, 0], [1, 0], [-1, 0], tau=1.0) - math.log(1 + math.exp(-2))) <= 1e-6
    )
    half = np.full(4, 0.5)
    half_gt = np.array([1.0, 1.0, 0.0, 0.0])
    checks.append(abs(focal_loss(half, half_gt, gamma=2.0) - 0.25 * math.log(2)) <= 1e-6)
    checks.append(abs(confidence_loss(0.0, 1.0, beta=2.0) - 0.25 * math.log(2)) <= 1e-6)
    checks.append(abs(dice_loss(half, half_gt) - 0.5) <= 1e-6)
    checks.append(abs(structure_loss(np.full((1, 4), 0.25), [0]) - math.log(4)) <= 1e-6)
    rng = np.random.default_rng(707)
    pred = rng.random(64)
    gt = (rng.random(64) > 0.5).astype(float)
    checks.append(abs(focal_loss(pred, gt, gamma=0.0) - bce_mean(pred, gt)) <= 1e-12)

    proc = subprocess.run(
        [sys.executable, "-m", "artikit", "losses", "selftest"],
        capture_output=True, text=True,
    )
    checks.append(proc.returncode == 0)
    report(
        "criterion 7: loss closed forms at 1e-6, focal(0)==BCE at 1e-12, selftest exit 0",
        all(checks),
        f"checks={checks}, selftest rc={proc.returncode}",
    )


def test_c08_protocol_constants_end_to_end(tmp_path):
    import inspect

    from artikit.cli import build_parser

    sig = inspect.signature(evaluate)
    defaults_ok = (
        sig.parameters["n_states"].default == 6
        and sig.parameters["n_points"].default == 100000
        and sig.parameters["tau"].default == 0.05
    )
    parser = build_parser()
    ev = parser.parse_args(["evaluate", "a", "b"])
    ma = parser.parse_args(["match", "p", "g"])
    flags_ok = ev.states == 6 and ev.points == 100000 and ev.tau == 0.05 and ma.threshold == 0.5

    states = sample_states(JointLimits(0.5, 0.5), JointType.REVOLUTE, 6)
    states_ok = bool(np.allclose(states, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-12))

    # end to end: default articulate run on the [0, 1]-limit cabinet
    model_path = tmp_path / "cab.json"
    save_model(build_cabinet(door_limits=(0.5, 0.5)), model_path)
    out_dir = tmp_path / "states"
    proc = subprocess.run(
        [sys.executable, "-m", "artikit", "articulate", str(model_path), "--out", str(out_dir)],
        capture_output=True, text=True,
    )
    manifest = json.loads((out_dir / "manifest.json").read_text())
    door_values = [s["values"]["1"] for s in manifest["states"]]
    run_ok = (
        proc.returncode == 0
        and len(manifest["states"]) == 6
        and np.allclose(door_values, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-12)
    )
    report(
        "criterion 8: protocol defaults 6/100000/0.05/0.5 and state grid {0..1.0}",
        defaults_ok and flags_ok and states_ok and run_ok,
        f"defaults={defaults_ok} flags={flags_ok} states={states_ok} run={run_ok}",
    )


def test_c09_format_round_trips(tmp_path):
    cabinet = build_cabinet()
    model_path = tmp_path / "model.json"
    save_model(cabinet, model_path)
    model_ok = load_model(model_path) == cabinet

    rng = np.random.default_rng(909)
    cells = {
        (int(i), int(j), int(k)): rng.normal(size=8).astype(np.float32)
        for i, j, k in rng.integers(0, 64, size=(500, 3))
    }
    grid = SparseVoxelGrid(64, list(cells), list(cells.values()))
    grid_path = tmp_path / "grid.bin"
    save_grid(grid, grid_path)
    grid_ok = load_grid(grid_path) == grid

    urdf_errors = check_urdf(export_urdf(cabinet, mesh_paths={0: "body.obj", 1: "door.obj"}))
    report(
        "criterion 9: model JSON and voxel binary round-trip; URDF validates cleanly",
        model_ok and grid_ok and not urdf_errors,
        f"model={model_ok} grid={grid_ok} urdf_errors={urdf_errors}",
    )


def test_c10_cli_determinism(tmp_path):
    model_path = tmp_path / "cab.json"
    save_model(build_cabinet(), model_path)

    def run_articulate(out):
        proc = subprocess.run(
            [sys.executable, "-m", "artikit", "articulate", str(model_path),
             "--out", str(out), "--states", "6", "--seed", "3"],
            capture_output=True,
        )
        assert proc.returncode == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_articulate(tmp_path / "run1")
    second = run_articulate(tmp_path / "run2")
    articulate_ok = first == second

    def run_evaluate():
        proc = subprocess.run(
            [sys.executable, "-m", "artikit", "evaluate", str(model_path), str(model_path),
             "--points", "2000", "--seed", "3"],
            capture_output=True,
        )
        assert proc.returncode == 0
        return proc.stdout

    evaluate_ok = run_evaluate() == run_evaluate()
    report(
        "criterion 10: articulate and evaluate are byte-identical across runs",
        articulate_ok and evaluate_ok,
        f"articulate={articulate_ok} evaluate={evaluate_ok}",
    )
