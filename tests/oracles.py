"""Independent reference implementations used to cross-check library results.

These deliberately avoid the library's own code paths: naive loops, exhaustive
enumeration, and a standalone URDF grammar checker.
"""

import itertools
import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy.optimize import linear_sum_assignment


def nn_brute_force(from_points, to_points):
    """O(n*m) exact nearest-neighbor distances."""
    src = np.asarray(from_points, dtype=np.float64)
    dst = np.asarray(to_points, dtype=np.float64)
    out = np.empty(src.shape[0])
    for i, p in enumerate(src):
        out[i] = math.sqrt(((dst - p) ** 2).sum(axis=1).min())
    return out


def trilinear_oracle(cells, resolution, point):
    """Direct 8-corner weighted sum with dict lookups, one point at a time."""
    g = [(c + 0.5) * resolution - 0.5 for c in point]
    g = [min(max(c, 0.0), resolution - 1.0) for c in g]
    i0 = [min(int(math.floor(c)), max(resolution - 2, 0)) for c in g]
    f = [g[d] - i0[d] for d in range(3)]
    dim = len(next(iter(cells.values()))) if cells else 1
    acc = np.zeros(dim)
    for dx, dy, dz in itertools.product((0, 1), repeat=3):
        w = (f[0] if dx else 1 - f[0]) * (f[1] if dy else 1 - f[1]) * (f[2] if dz else 1 - f[2])
        key = (i0[0] + dx, i0[1] + dy, i0[2] + dz)
        vec = cells.get(key)
        if vec is not None:
            acc = acc + w * np.asarray(vec, dtype=np.float64)
    return acc


def brute_force_assignment(cost):
    """Exhaustive minimum-cost assignment of min(N, K) pairs.

    Returns (total, pairs) where pairs is the lexicographically smallest
    optimal pair list (sorted by row).  Totals are summed in ascending row
    order, the same arithmetic the library uses, so ties compare exactly.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, k = cost.shape
    if n == 0 or k == 0:
        return 0.0, []
    best = None
    if n <= k:
        rows = np.arange(n)
        for perm in itertools.permutations(range(k), n):
            total = 0.0
            for i in rows:
                total += float(cost[i, perm[i]])
            pairs = [(int(i), int(perm[i])) for i in rows]
            cand = (total, pairs)
            if best is None or cand < best:
                best = cand
    else:
        for subset in itertools.combinations(range(n), k):
            for colperm in itertools.permutations(range(k)):
                total = 0.0
                for j, row in enumerate(subset):
                    total += float(cost[row, colperm[j]])
                pairs = [(int(row), int(colperm[j])) for j, row in enumerate(subset)]
                cand = (total, pairs)
                if best is None or cand < best:
                    best = cand
    return best


def hungarian_reference(cost):
    """Lexicographic minimum-cost assignment by one full solve per candidate.

    Row by row, every free column (and, when the remaining rows can still
    take every free column, skipping the row) is scored as its cost plus an
    optimal assignment of the remaining submatrix, summed in ascending row
    order; the first minimum is committed.  Returns (pairs, unmatched
    queries, total cost) with the fields of ``MatchResult``.
    """
    matrix = np.asarray(cost, dtype=np.float64)
    n, k = matrix.shape

    def row_order_total(pairs):
        total = 0.0
        for q, g in sorted(pairs):
            total += float(matrix[q, g])
        return total

    def optimal_rest(rows, cols):
        if not rows or not cols:
            return []
        r_idx, c_idx = linear_sum_assignment(matrix[np.ix_(rows, cols)])
        return [(rows[r], cols[c]) for r, c in zip(r_idx, c_idx)]

    committed = []
    free_cols = list(range(k))
    for row in range(n):
        if not free_cols:
            break
        rows_left = list(range(row + 1, n))
        best_col = None
        best_total = None
        for col in free_cols:
            rest_cols = [c for c in free_cols if c != col]
            total = row_order_total(committed + [(row, col)] + optimal_rest(rows_left, rest_cols))
            if best_total is None or total < best_total:
                best_total = total
                best_col = col
        if len(rows_left) >= len(free_cols):
            skip_total = row_order_total(committed + optimal_rest(rows_left, free_cols))
            if skip_total < best_total:
                best_col = None
        if best_col is not None:
            committed.append((row, best_col))
            free_cols.remove(best_col)

    matched = {q for q, _ in committed}
    unmatched = tuple(q for q in range(n) if q not in matched)
    return tuple(committed), unmatched, row_order_total(committed)


def bce_mean(pred, gt, clamp=1e-7):
    pred = np.clip(np.asarray(pred, dtype=np.float64), clamp, 1.0 - clamp)
    gt = np.asarray(gt, dtype=np.float64)
    return float(np.mean(-(gt * np.log(pred) + (1.0 - gt) * np.log(1.0 - pred))))


def matching_cost_fsum(pred_soft, gt_masks, w_bce=1.0, w_dice=1.0, clamp=1e-7, dice_eps=1e-6):
    """The BCE + Dice matching cost, each (i, j) entry on its own from Python
    floats: per-point ``math.log`` and ``math.log1p`` terms, and every sum
    taken exactly with ``math.fsum``.  A nonzero GT value marks a member."""
    pred = np.asarray(pred_soft, dtype=np.float64)
    gt = np.asarray(gt_masks, dtype=bool).tolist()
    m = pred.shape[1]
    cost = np.empty((pred.shape[0], len(gt)))
    for i, row in enumerate(pred.tolist()):
        p = [min(max(v, clamp), 1.0 - clamp) for v in row]
        log_p = [math.log(v) for v in p]
        log_q = [math.log1p(-v) for v in p]
        total = math.fsum(p)
        for j, members in enumerate(gt):
            bce = -math.fsum(a if g else b for a, b, g in zip(log_p, log_q, members)) / m
            inter = math.fsum(v for v, g in zip(p, members) if g)
            dice = 1.0 - 2.0 * inter / (total + sum(members) + dice_eps)
            cost[i, j] = w_bce * bce + w_dice * dice
    return cost


# ---------------------------------------------------------------------------
# URDF grammar checker

_JOINT_TYPES = {"revolute", "continuous", "prismatic", "fixed", "floating", "planar"}


def _floats(text, count):
    try:
        values = [float(tok) for tok in text.split()]
    except (ValueError, AttributeError):
        return None
    return values if len(values) == count else None


def check_urdf(document: str):
    """Validate a URDF document against the joint/link grammar; returns errors."""
    errors = []
    try:
        robot = ET.fromstring(document)
    except ET.ParseError as exc:
        return [f"xml parse error: {exc}"]
    if robot.tag != "robot":
        errors.append(f"root element must be <robot>, got <{robot.tag}>")
        return errors
    if not robot.get("name"):
        errors.append("<robot> missing name attribute")

    links = {}
    joints = {}
    for child in robot:
        if child.tag == "link":
            name = child.get("name")
            if not name:
                errors.append("<link> missing name")
            elif name in links:
                errors.append(f"duplicate link name {name!r}")
            else:
                links[name] = child
        elif child.tag == "joint":
            name = child.get("name")
            if not name:
                errors.append("<joint> missing name")
            elif name in joints:
                errors.append(f"duplicate joint name {name!r}")
            else:
                joints[name] = child
    if not links:
        errors.append("robot has no links")

    child_links = {}
    for name, joint in joints.items():
        jtype = joint.get("type")
        if jtype not in _JOINT_TYPES:
            errors.append(f"joint {name!r}: bad type {jtype!r}")
        parent = joint.find("parent")
        child = joint.find("child")
        if parent is None or parent.get("link") not in links:
            errors.append(f"joint {name!r}: missing or unknown parent link")
        if child is None or child.get("link") not in links:
            errors.append(f"joint {name!r}: missing or unknown child link")
        if parent is not None and child is not None and parent.get("link") == child.get("link"):
            errors.append(f"joint {name!r}: parent equals child")
        if child is not None and child.get("link") in links:
            cname = child.get("link")
            if cname in child_links:
                errors.append(f"link {cname!r} is the child of more than one joint")
            child_links[cname] = parent.get("link") if parent is not None else None

        origin = joint.find("origin")
        if origin is not None:
            for attr in ("xyz", "rpy"):
                value = origin.get(attr)
                if value is not None and _floats(value, 3) is None:
                    errors.append(f"joint {name!r}: origin {attr} must be 3 floats")
        axis = joint.find("axis")
        if axis is not None and _floats(axis.get("xyz", ""), 3) is None:
            errors.append(f"joint {name!r}: axis xyz must be 3 floats")
        if jtype in ("revolute", "prismatic"):
            limit = joint.find("limit")
            if limit is None:
                errors.append(f"joint {name!r}: {jtype} joints require a limit element")
            else:
                lo = limit.get("lower")
                hi = limit.get("upper")
                for attr in ("effort", "velocity"):
                    if limit.get(attr) is None:
                        errors.append(f"joint {name!r}: limit missing {attr}")
                try:
                    if lo is not None and hi is not None and float(lo) > float(hi):
                        errors.append(f"joint {name!r}: limit lower > upper")
                except ValueError:
                    errors.append(f"joint {name!r}: non-numeric limit bounds")
        elif jtype == "fixed" and joint.find("limit") is not None:
            errors.append(f"joint {name!r}: fixed joints take no limit element")

    roots = [name for name in links if name not in child_links]
    if len(roots) != 1:
        errors.append(f"expected exactly one root link, found {sorted(roots)}")

    # cycle check: walk parents from every link
    for start in links:
        seen = set()
        cur = start
        while cur in child_links:
            if cur in seen:
                errors.append(f"link {start!r} participates in a joint cycle")
                break
            seen.add(cur)
            cur = child_links[cur]
    return errors
