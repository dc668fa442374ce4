"""Output checks, run after every benchmark invocation and outside its timing.

Each check takes the invocation's stdout and returns a short problem text,
or None when the output is correct.  The references here are written
independently of artikit's code paths.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

PROB_CLAMP = 1e-7
DICE_EPS = 1e-6
# total_cost is printed with 9 significant digits
PRINT_RTOL = 1e-8
OPTIMUM_TOL = 1e-9


def evaluate_report(stdout: str, n_matched: int, self_pair: bool, n_states: int = 6):
    rep = json.loads(stdout)
    states = rep["per_state"]
    if len(states) != n_states:
        return f"{len(states)} states reported, expected {n_states}"
    for s in states:
        if not (math.isfinite(s["cd"]) and s["cd"] >= 0.0 and 0.0 <= s["fscore"] <= 1.0):
            return f"state metrics out of range: {s}"
    joints = rep["per_joint"]
    preds = [j["pred_part"] for j in joints]
    gts = [j["gt_part"] for j in joints]
    if len(joints) != n_matched or len(set(preds)) != len(preds) or len(set(gts)) != len(gts):
        return f"part matching is not an injection of {n_matched} pairs: {list(zip(preds, gts))}"
    if self_pair:
        exact = {"cd_mean": 0, "fscore_mean": 1, "type_accuracy": 1,
                 "axis_err_mean": 0, "pivot_err_mean": 0}
        wrong = {key: rep[key] for key, want in exact.items() if rep[key] != want}
        if wrong or preds != gts or any(j["iou"] != 1 for j in joints):
            return f"self-pair is not exact: {wrong or joints}"
    return None


def reference_cost(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """BCE + Dice matching cost, with the BCE sum arranged differently from artikit's."""
    p = np.clip(pred.astype(np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    g = gt.astype(np.float64)
    log_p = np.log(p)
    log_q = np.log1p(-p)
    bce = -((log_p - log_q) @ g.T + log_q.sum(axis=1)[:, None]) / p.shape[1]
    dice = 1.0 - 2.0 * (p @ g.T) / (p.sum(axis=1)[:, None] + g.sum(axis=1)[None, :] + DICE_EPS)
    return bce + dice


def match_report(stdout: str, cost: np.ndarray):
    rep = json.loads(stdout)
    n, k = cost.shape
    pairs = [tuple(p) for p in rep["pairs"]]
    qs = [q for q, _ in pairs]
    gs = [g for _, g in pairs]
    if len(pairs) != min(n, k) or len(set(qs)) != len(qs) or len(set(gs)) != len(gs):
        return f"pairs are not an injection of {min(n, k)} pairs"
    if not all(0 <= q < n and 0 <= g < k for q, g in pairs):
        return "pair index out of range"
    if sorted(rep["unmatched_queries"]) != sorted(set(range(n)) - set(qs)):
        return "unmatched_queries is not the complement of the matched queries"
    total = 0.0
    for q, g in sorted(pairs):
        total += float(cost[q, g])
    rows, cols = linear_sum_assignment(cost)
    optimum = float(cost[rows, cols].sum())
    if abs(total - optimum) > OPTIMUM_TOL * max(1.0, abs(optimum)):
        return f"pairs cost {total!r}, optimum is {optimum!r}"
    if abs(rep["total_cost"] - total) > PRINT_RTOL * max(1.0, abs(total)):
        return f"total_cost {rep['total_cost']!r} != row-order sum {total!r}"
    return None


def reference_trilinear(dense: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Cell-centre trilinear blend of a dense (R, R, R, d) grid at cube points."""
    r = dense.shape[0]
    g = np.clip((points + 0.5) * r - 0.5, 0.0, r - 1.0)
    i0 = np.minimum(np.floor(g).astype(np.int64), r - 2)
    t = g - i0
    out = np.zeros((points.shape[0], dense.shape[3]))
    for corner in itertools.product((0, 1), repeat=3):
        c = np.array(corner)
        w = np.prod(np.where(c == 1, t, 1.0 - t), axis=1)
        idx = i0 + c
        out += w[:, None] * dense[idx[:, 0], idx[:, 1], idx[:, 2]]
    return out


def features_output(stdout: str, out, sample: np.ndarray, expected: np.ndarray):
    dim = expected.shape[1]
    for name, width in (("f_geo.f32", dim), ("f_tri.f32", 3 * dim)):
        meta = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
        if meta["dim"] != width or (out / name).stat().st_size != 4 * meta["M"] * width:
            return f"{name}: sidecar {meta} does not match the file"
    f_geo = np.fromfile(out / "f_geo.f32", dtype="<f4").reshape(-1, dim)
    got = f_geo[sample].astype(np.float64)
    if not np.allclose(got, expected, rtol=1e-6, atol=1e-6):
        worst = float(np.max(np.abs(got - expected)))
        return f"f_geo differs from the reference trilinear by up to {worst:.3g}"
    return None
