"""Seeded inputs for the three benchmark workloads.

Every file the program reads is written here from ``numpy.random.default_rng(seed)``
with the benchmark's own writers, never artikit's, so one seed gives
byte-identical fixtures on every commit.  Part counts, sizes and the order of
cases are fixed; the seed only changes the random values.  Each build function also
prepares what its checks need (an independent cost matrix, a trilinear
sample), so no oracle work falls inside a timed invocation.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

N_POINTS = 100_000
N_STATES = 6
TAU = 0.05
N_QUERIES = 100
VOXEL_R = 64
FEATURE_DIM = 8
ACTIVE_CELLS = 20_000
TRIPLANE_R = 128
TRILINEAR_SAMPLE = 512

_JOINT_CYCLE = ("revolute", "prismatic", "continuous", "fixed")


@dataclass
class Case:
    """One CLI invocation of a pass: its arguments, output files and check."""

    name: str
    argv: list  # arguments after ``python -m artikit``
    outputs: list  # files the invocation writes; digested after every op
    check: Callable  # check(stdout) -> problem text, or None when correct


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def _sizes(rng, total: int, parts: int, minimum: int) -> np.ndarray:
    """Random part sizes, each at least ``minimum``, summing to ``total``."""
    share = rng.dirichlet(np.full(parts, 20.0))
    sizes = minimum + np.floor(share * (total - parts * minimum)).astype(np.int64)
    sizes[-1] += total - sizes.sum()
    return sizes


# ---------------------------------------------------------------------------
# evaluate: articulation JSON models at 100k points


def _box_cloud(rng, n_parts: int):
    """Base plus ``n_parts`` boxes of points; label 0 is the base, p + 1 is part p."""
    centers = rng.uniform(-0.3, 0.3, size=(n_parts + 1, 3))
    halves = rng.uniform(0.06, 0.1, size=(n_parts + 1, 3))
    labels = np.repeat(np.arange(n_parts + 1), _sizes(rng, N_POINTS, n_parts + 1, 500))
    points = centers[labels] + rng.uniform(-1.0, 1.0, size=(N_POINTS, 3)) * halves[labels]
    return points, labels, centers


def _joint(rng, jtype: str, near) -> dict:
    if jtype == "fixed":
        return {"type": "fixed", "axis": [0.0, 0.0, 1.0], "pivot": [0.0, 0.0, 0.0],
                "center": 0.0, "span": 0.0}
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return {
        "type": jtype,
        "axis": axis.tolist(),
        "pivot": (np.asarray(near) + rng.uniform(-0.05, 0.05, size=3)).tolist(),
        "center": float(rng.uniform(-0.2, 0.2)),
        "span": float(rng.uniform(0.1, 0.3)),
    }


def _perturbed(rng, joint: dict) -> dict:
    out = dict(joint)
    if joint["type"] != "fixed":
        axis = np.asarray(joint["axis"]) + rng.normal(0.0, 0.02, size=3)
        out["axis"] = (axis / np.linalg.norm(axis)).tolist()
        out["pivot"] = (np.asarray(joint["pivot"]) + rng.normal(0.0, 0.01, size=3)).tolist()
    return out


def _model_doc(points, labels, joints, parents) -> dict:
    return {
        "points": points.tolist(),
        "base_indices": np.flatnonzero(labels == 0).tolist(),
        "parts": [
            {
                "id": p,
                "label": p % 8,
                "point_indices": np.flatnonzero(labels == p + 1).tolist(),
                "joint": joint,
            }
            for p, joint in enumerate(joints)
        ],
        "tree": {str(p): parent for p, parent in enumerate(parents)},
    }


def _gt_model(rng, n_parts: int):
    """Random geometry on a fixed binary tree with a fixed cycle of joint types."""
    points, labels, centers = _box_cloud(rng, n_parts)
    joints = [_joint(rng, _JOINT_CYCLE[p % 4], centers[p + 1]) for p in range(n_parts)]
    parents = [-1 if p < 2 else p // 2 - 1 for p in range(n_parts)]
    return points, labels, joints, parents


def build_evaluate(rng, work: Path) -> list:
    """Three pairs: a jittered cloud with more parts, a shared cloud, a self-pair."""
    argv = lambda pred, gt: ["evaluate", str(pred), str(gt), "--states", str(N_STATES),
                             "--points", str(N_POINTS), "--tau", str(TAU)]
    cases = []

    # jittered: 12 GT parts; the prediction splits 4 of them in two (16 parts),
    # moves every point slightly and perturbs every joint.  Masks transfer by
    # nearest neighbour and 4 queries stay unmatched.
    points, labels, joints, parents = _gt_model(rng, 12)
    _write_json(work / "jitter_gt.json", _model_doc(points, labels, joints, parents))
    pred_labels = labels.copy()
    pred_joints = [_perturbed(rng, j) for j in joints]
    pred_parents = list(parents)
    for p in (1, 4, 7, 10):
        idx = np.flatnonzero(labels == p + 1)
        upper = idx[points[idx, 0] > np.median(points[idx, 0])]
        pred_labels[upper] = len(pred_joints) + 1
        pred_joints.append(_perturbed(rng, joints[p]))
        pred_parents.append(parents[p])
    jittered = points + rng.normal(0.0, 0.004, size=points.shape)
    _write_json(work / "jitter_pred.json",
                _model_doc(jittered, pred_labels, pred_joints, pred_parents))
    cases.append(Case("evaluate.jitter16x12", argv(work / "jitter_pred.json",
                                                     work / "jitter_gt.json"), [],
                      partial(checks.evaluate_report, n_matched=12, self_pair=False)))

    # shared cloud: 8 parts on the GT's own points, 1% of labels swapped and
    # joints perturbed, the type of a leaf joint changed.  Masks transfer by index.
    points, labels, joints, parents = _gt_model(rng, 8)
    _write_json(work / "shared_gt.json", _model_doc(points, labels, joints, parents))
    pred_labels = labels.copy()
    swap = rng.choice(N_POINTS, N_POINTS // 100, replace=False)
    pred_labels[swap] = pred_labels[rng.permutation(swap)]
    pred_joints = [_perturbed(rng, j) for j in joints]
    pred_joints[7] = dict(pred_joints[7], type="prismatic")
    _write_json(work / "shared_pred.json",
                _model_doc(points, pred_labels, pred_joints, parents))
    cases.append(Case("evaluate.shared8x8", argv(work / "shared_pred.json",
                                                   work / "shared_gt.json"), [],
                      partial(checks.evaluate_report, n_matched=8, self_pair=False)))

    # self-pair: a 2-part model against itself, whose metrics are exact.
    points, labels, joints, parents = _gt_model(rng, 2)
    _write_json(work / "self.json", _model_doc(points, labels, joints, parents))
    cases.append(Case("evaluate.self2x2", argv(work / "self.json", work / "self.json"), [],
                      partial(checks.evaluate_report, n_matched=2, self_pair=True)))
    return cases


# ---------------------------------------------------------------------------
# match: 100 query masks against K ground-truth bitsets over 100k points


def _write_masks(path: Path, masks: np.ndarray) -> None:
    """Hard masks as little-endian bitsets, soft masks as f32 rows, plus sidecar."""
    if masks.dtype == bool:
        blob = np.packbits(masks, axis=1, bitorder="little").tobytes()
    else:
        blob = masks.astype("<f4").tobytes()
    path.write_bytes(blob)
    _write_json(Path(str(path) + ".json"), {"rows": int(masks.shape[0]), "M": int(masks.shape[1])})


def _match_case(name, work, pred, pred_file, gt, gt_file) -> Case:
    cost = checks.reference_cost(pred, gt)
    return Case(name, ["match", str(work / pred_file), str(work / gt_file)], [],
                partial(checks.match_report, cost=cost))


def build_match(rng, work: Path) -> list:
    """Soft f32 predictions at K = 10, 30, 100; tie-heavy duplicated bitsets at K = 30, 100."""
    m = N_POINTS
    cases = []
    for k in (10, 30, 100):
        gt_labels = rng.permutation(np.repeat(np.arange(k), _sizes(rng, m, k, 200)))
        gt = np.zeros((k, m), dtype=bool)
        gt[gt_labels, np.arange(m)] = True
        _write_masks(work / f"gt_k{k}.bits", gt)

        # up to 80 queries are noisy copies of distinct GT masks, the rest junk
        soft = rng.random((N_QUERIES, m), dtype=np.float32) * np.float32(0.3)
        copies = min(k, 80)
        rows = rng.choice(N_QUERIES, copies, replace=False)
        soft[rows] += np.float32(0.6) * gt[rng.choice(k, copies, replace=False)]
        junk = np.setdiff1d(np.arange(N_QUERIES), rows)
        soft[junk] += np.float32(0.6) * (rng.random((junk.size, m)) < 0.05)
        _write_masks(work / f"soft_k{k}.f32", soft)
        cases.append(_match_case(f"match.soft100x{k}", work, soft, f"soft_k{k}.f32",
                                 gt, f"gt_k{k}.bits"))
        del soft

        if k >= 30:
            # 50 distinct hard rows, each sent twice: equal cost rows make ties
            copies = min(k, 40)
            distinct = rng.random((50, m)) < 0.05
            flips = rng.random((copies, m)) < 0.005
            distinct[:copies] = gt[rng.choice(k, copies, replace=False)] ^ flips
            hard = distinct[rng.permutation(np.repeat(np.arange(50), 2))]
            _write_masks(work / f"hard_k{k}.bits", hard)
            cases.append(_match_case(f"match.hard100x{k}", work, hard, f"hard_k{k}.bits",
                                     gt, f"gt_k{k}.bits"))
    return cases


# ---------------------------------------------------------------------------
# features: an R=64 sparse voxel grid and 100k query points, JSON and PLY

GRID_MAGIC = b"ARTIKITVOXELGRID"


def _write_grid(path: Path, ijk: np.ndarray, feats: np.ndarray) -> None:
    records = np.zeros(ijk.shape[0], dtype=[("ijk", "<u2", (3,)), ("f", "<f4", (FEATURE_DIM,))])
    records["ijk"] = ijk
    records["f"] = feats
    header = struct.pack("<IIQ", VOXEL_R, FEATURE_DIM, ijk.shape[0])
    path.write_bytes(GRID_MAGIC + header + records.tobytes())


def _write_ply(path: Path, points32: np.ndarray) -> None:
    header = "\n".join([
        "ply", "format binary_little_endian 1.0", f"element vertex {points32.shape[0]}",
        "property float x", "property float y", "property float z", "end_header",
    ]) + "\n"
    path.write_bytes(header.encode("ascii") + points32.astype("<f4").tobytes())


def build_features(rng, work: Path) -> list:
    """One grid, queried at a JSON points file and at a PLY points file."""
    r = VOXEL_R
    keys = np.sort(rng.choice(r**3, ACTIVE_CELLS, replace=False))
    ijk = np.stack([keys // (r * r), (keys // r) % r, keys % r], axis=1)
    feats = rng.standard_normal((ACTIVE_CELLS, FEATURE_DIM)).astype(np.float32)
    _write_grid(work / "grid.bin", ijk, feats)
    dense = np.zeros((r, r, r, FEATURE_DIM))
    dense[ijk[:, 0], ijk[:, 1], ijk[:, 2]] = feats

    cases = []
    for fmt in ("json", "ply"):
        # points fall inside or beside active cells, never outside the cube
        cells = ijk[rng.integers(0, ACTIVE_CELLS, N_POINTS)]
        points = (cells + 0.5 + rng.uniform(-0.5, 0.5, size=(N_POINTS, 3))) / r - 0.5
        if fmt == "json":
            _write_json(work / "points.json", points.tolist())
            path = work / "points.json"
        else:
            points = points.astype(np.float32).astype(np.float64)
            path = work / "points.ply"
            _write_ply(path, points)
        out = work / f"out_{fmt}"
        sample = np.sort(rng.choice(N_POINTS, TRILINEAR_SAMPLE, replace=False))
        expected = checks.reference_trilinear(dense, points[sample])
        outputs = [out / f"{name}{ext}" for name in ("f_geo.f32", "f_tri.f32")
                   for ext in ("", ".json")]
        cases.append(Case(
            f"features.{fmt}",
            ["features", str(work / "grid.bin"), str(path),
             "--triplane-resolution", str(TRIPLANE_R), "--out", str(out)],
            outputs,
            partial(checks.features_output, out=out, sample=sample, expected=expected),
        ))
    return cases


BUILD_FUNCTIONS = {"evaluate": build_evaluate, "match": build_match, "features": build_features}


def build(workload: str, seed: int, work: Path) -> list:
    """Write the fixtures of ``workload`` for ``seed`` under ``work``; return one pass."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILD_FUNCTIONS[workload](np.random.default_rng(seed), work)
