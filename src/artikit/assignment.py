"""Query-to-part matching: mask logits, Hungarian assignment, confidence targets,
residual query updates and confidence filtering.

The bipartite matcher minimizes total cost over min(N, K) pairs and breaks
ties toward the lexicographically smallest pair list, so results are
deterministic across implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _compiled_scipy
from ._fmt import read_sidecar, write_sidecar
from .errors import ParseError
from .losses import DICE_EPS, PROB_CLAMP
from .model import FINITE, UNIT_INTERVAL, _as_array, _frozen

HARD_MASK_THRESHOLD = 0.5


@dataclass(frozen=True, eq=False)
class QuerySet:
    """Paired position/content queries with confidences and part logits.

    All fields are row-aligned: positions (N, 3), contents (N, d), confidences
    (N,) in [0, 1], part_logits (N, C).
    """

    positions: np.ndarray
    contents: np.ndarray
    confidences: np.ndarray
    part_logits: np.ndarray

    def __post_init__(self):
        pos = _frozen(self.positions, ("N", 3), "positions")
        n = pos.shape[0]
        con = _frozen(self.contents, (n, "d"), "contents")
        conf = _frozen(self.confidences, (n,), "confidences", domain=UNIT_INTERVAL)
        logits = _frozen(self.part_logits, (n, "C"), "part_logits")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "contents", con)
        object.__setattr__(self, "confidences", conf)
        object.__setattr__(self, "part_logits", logits)

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class SoftMaskSet:
    """Raw query-to-point affinity logits (N_q, M)."""

    logits: np.ndarray

    def __post_init__(self):
        logits = _as_array(self.logits, ("N_q", "M"), "logits", domain=FINITE)
        object.__setattr__(self, "logits", logits)

    @property
    def soft(self) -> np.ndarray:
        """Sigmoid of the logits: per-point soft assignment in (0, 1)."""
        from scipy.special import expit

        return expit(self.logits)

    @property
    def hard(self) -> np.ndarray:
        """Soft assignment thresholded at 0.5."""
        return self.soft > HARD_MASK_THRESHOLD


@dataclass(frozen=True)
class MatchResult:
    """Injective pairing (query index, gt part index) plus unmatched queries."""

    pairs: tuple
    unmatched_queries: tuple
    total_cost: float

    def __post_init__(self):
        pairs = tuple((int(q), int(g)) for q, g in self.pairs)
        unmatched = tuple(int(q) for q in self.unmatched_queries)
        qs = [q for q, _ in pairs]
        gs = [g for _, g in pairs]
        if len(set(qs)) != len(qs) or len(set(gs)) != len(gs):
            raise ValueError("pairs must be injective on both sides")
        if set(qs) & set(unmatched):
            raise ValueError("a query cannot be both matched and unmatched")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "unmatched_queries", unmatched)
        object.__setattr__(self, "total_cost", float(self.total_cost))


def compute_mask_logits(contents, features) -> SoftMaskSet:
    """Part-mask logits as the affinity between content queries and point features."""
    con = _as_array(contents, ("N", "d"), "contents")
    feats = _as_array(features, ("M", "d"), "features")
    if con.shape[1] != feats.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: contents {con.shape[1]} vs features {feats.shape[1]}"
        )
    return SoftMaskSet(logits=con @ feats.T)


def matching_cost(pred_soft, gt_masks, w_bce=1.0, w_dice=1.0) -> np.ndarray:
    """(N, K) matching cost: mean-per-point BCE plus Dice cost, weighted.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the log terms.
    """
    # a private copy, clipped in place
    pred = _as_array(np.array(pred_soft, dtype=np.float64), ("N", "M"), "pred_soft")
    gt = _as_array(gt_masks, ("K", "M"), "gt_masks")
    if pred.shape[1] != gt.shape[1]:
        raise ValueError(f"point count mismatch: {pred.shape[1]} vs {gt.shape[1]}")
    m = pred.shape[1]
    if m == 0:
        raise ValueError("masks must cover at least one point")
    np.clip(pred, PROB_CLAMP, 1.0 - PROB_CLAMP, out=pred)

    # bce[i, j] = -(log p[i] . gt[j] + log(1 - p[i]) . (1 - gt[j])) / M, with
    # one (N, M) buffer holding log p, then log(1 - p)
    logs = np.log(pred)
    bce = logs @ gt.T
    np.log1p(np.negative(pred, out=logs), out=logs)
    bce = -(bce + logs @ (1.0 - gt).T) / m

    inter = pred @ gt.T
    denom = pred.sum(axis=1)[:, None] + gt.sum(axis=1)[None, :] + DICE_EPS
    dice = 1.0 - 2.0 * inter / denom
    return float(w_bce) * bce + float(w_dice) * dice


def _row_order_total(cost: np.ndarray, pairs) -> float:
    """Float total of pair costs summed in ascending row order (tie-rule arithmetic)."""
    total = 0.0
    for q, g in sorted(pairs):
        total += float(cost[q, g])
    return total


def hungarian(cost) -> MatchResult:
    """Minimum-cost assignment of min(N, K) pairs with lexicographic tie-breaking.

    Row by row, each candidate column (and, when rows outnumber columns, the
    skip option) is scored as its cost plus the optimal assignment of the
    remaining submatrix; the first candidate achieving the minimum is
    committed.  This yields the lexicographically smallest optimal pair list.

    The candidates are not all solved.  One optimal assignment of the
    remaining rows to the free columns, plus the cost of taking each column
    away from it (``_removal_costs``), gives every candidate's optimal total
    up to rounding.  Candidates are solved in ascending order of that
    estimate until the next estimate exceeds the best solved total by more
    than tol = 1e-9 * (1 + max|cost| * min(N, K)), far above the rounding of
    either figure.  A solved candidate gets the same remainder solve and the
    same row-order sum as it would if every candidate were solved, and no
    unsolved one can reach the minimum, so the result is the same.  Untied
    costs take about two solves per row instead of one per free column.
    """
    matrix = _as_array(cost, ("N", "K"), "cost", domain=FINITE)
    n, k = matrix.shape
    if n == 0 or k == 0:
        return MatchResult(pairs=(), unmatched_queries=tuple(range(n)), total_cost=0.0)
    # Estimated and solved totals differ by rounding errors of sums of at most
    # min(N, K) entries; near float overflow every candidate is solved.
    scale = float(np.abs(matrix).max()) * min(n, k)
    tol = 1e-9 * (1.0 + scale) if scale < 1e300 else np.inf

    committed: list = []
    free_cols = list(range(k))
    for row in range(n):
        if not free_cols:
            break
        rows_left = list(range(row + 1, n))
        # skipping this row is admissible only if the remaining rows can
        # still take every free column
        may_skip = len(rows_left) >= len(free_cols)
        rest = _optimal_rest(matrix, rows_left, free_cols)
        estimates = (
            _row_order_total(matrix, committed)
            + sum(float(matrix[q, g]) for q, g in rest)
            + matrix[row, free_cols]
            + _removal_costs(matrix, rest, free_cols, may_skip)
        )

        totals = {}
        lowest = np.inf
        for i in np.argsort(estimates, kind="stable"):
            if estimates[i] > lowest + tol:
                break
            col = free_cols[i]
            rest_cols = [c for c in free_cols if c != col]
            pairs = committed + [(row, col)] + _optimal_rest(matrix, rows_left, rest_cols)
            totals[col] = _row_order_total(matrix, pairs)
            lowest = min(lowest, totals[col])

        # the first minimum in column order, as a scan of every column finds
        best_col = None
        best_total = None
        for col in sorted(totals):
            if best_total is None or totals[col] < best_total:
                best_total = totals[col]
                best_col = col
        if may_skip and _row_order_total(matrix, committed + rest) < best_total:
            best_col = None
        if best_col is not None:
            committed.append((row, best_col))
            free_cols.remove(best_col)

    matched = {q for q, _ in committed}
    unmatched = tuple(q for q in range(n) if q not in matched)
    return MatchResult(
        pairs=tuple(committed),
        unmatched_queries=unmatched,
        total_cost=_row_order_total(matrix, committed),
    )


def linear_sum_assignment(cost):
    """SciPy's rectangular assignment solver.  Only its compiled module is
    loaded, on first use, so commands which match nothing never load SciPy and
    ``match`` never runs the import of ``scipy.optimize``."""
    return _compiled_scipy("scipy.optimize._lsap").linear_sum_assignment(cost)


def _optimal_rest(matrix: np.ndarray, rows, cols) -> list:
    """Optimal assignment pairs on a row/column subset (may be empty)."""
    if not rows or not cols:
        return []
    sub = matrix[np.ix_(rows, cols)]
    r_idx, c_idx = linear_sum_assignment(sub)
    return [(rows[r], cols[c]) for r, c in zip(r_idx, c_idx)]


def _removal_costs(matrix: np.ndarray, rest, cols, may_drop: bool) -> np.ndarray:
    """How much the optimum of ``rest`` rises when each column of ``cols`` is removed.

    ``rest`` is an optimal assignment onto ``cols``.  A column it leaves unused
    costs nothing to remove.  The row holding a used column must instead leave
    the assignment (allowed when ``may_drop``) or move to another column,
    whose own removal cost then applies.  That is a shortest-path recursion
    over the columns (Murty's forced/forbidden-pair costs); ``rest`` being
    optimal rules out negative cycles, so Bellman-Ford rounds reach the
    fixed point within len(cols) rounds.
    """
    rise = np.zeros(len(cols))
    if not rest:
        return rise
    position = {c: i for i, c in enumerate(cols)}
    holders = [q for q, _ in rest]
    held = np.array([position[g] for _, g in rest])
    own = matrix[holders, [g for _, g in rest]]
    moves = matrix[np.ix_(holders, cols)] - own[:, None]
    moves[np.arange(len(held)), held] = np.inf
    drop = -own if may_drop else np.inf
    rise[held] = np.inf
    for _ in range(len(cols)):
        step = np.minimum(drop, (moves + rise).min(axis=1))
        if np.array_equal(step, rise[held]):
            break
        rise[held] = step
    return rise


def confidence_targets(pred_hard, gt_masks, match: MatchResult) -> np.ndarray:
    """Per-query IoU against the matched GT mask; unmatched queries get 0."""
    pred = _as_array(pred_hard, ("N", "M"), "pred_hard", bool)
    gt = _as_array(gt_masks, ("K", "M"), "gt_masks", bool)
    if pred.shape[1] != gt.shape[1]:
        raise ValueError(f"point count mismatch: {pred.shape[1]} vs {gt.shape[1]}")
    out = np.zeros(pred.shape[0])
    for q, g in match.pairs:
        if not (0 <= q < pred.shape[0] and 0 <= g < gt.shape[0]):
            raise ValueError(f"match pair ({q}, {g}) outside mask shapes")
        inter = np.count_nonzero(pred[q] & gt[g])
        union = np.count_nonzero(pred[q] | gt[g])
        out[q] = inter / union if union else 0.0
    return out


def residual_update(queries: QuerySet, delta_p, delta_c) -> QuerySet:
    """Additive refinement of positions and contents; other fields unchanged."""
    dp = _as_array(delta_p, queries.positions.shape, "delta_p")
    dc = _as_array(delta_c, queries.contents.shape, "delta_c")
    return QuerySet(
        positions=queries.positions + dp,
        contents=queries.contents + dc,
        confidences=queries.confidences,
        part_logits=queries.part_logits,
    )


def filter_queries(queries: QuerySet, threshold: float = 0.5) -> QuerySet:
    """Drop rows with confidence strictly below the threshold; order preserved."""
    keep = queries.confidences >= _as_array(threshold, (), "threshold", domain=UNIT_INTERVAL)
    return QuerySet(
        positions=queries.positions[keep],
        contents=queries.contents[keep],
        confidences=queries.confidences[keep],
        part_logits=queries.part_logits[keep],
    )


# ---------------------------------------------------------------------------
# mask interchange: little-endian bitsets (hard) or raw f32 rows (soft), with
# a JSON sidecar {"rows": R, "M": M} at <path>.json


def save_masks(masks, path) -> None:
    """Write hard masks as packed bits or soft masks as f32 rows."""
    arr = _as_array(masks, ("N", "M"), "masks", dtype=None)
    with open(path, "wb") as fh:
        if arr.dtype == bool:
            fh.write(np.packbits(arr, axis=1, bitorder="little").tobytes())
        else:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    write_sidecar(path, {"rows": int(arr.shape[0]), "M": int(arr.shape[1])})


def load_masks(path):
    """Read a mask file; returns (array, is_soft).

    Bitset files decode to bool arrays, f32 files to read-only float32
    arrays, as read.  The two encodings are distinguished by file size, which
    can never collide.  Soft mask values must be finite and lie in [0, 1].
    """
    rows, m = read_sidecar(path, {"rows": 0, "M": 1})
    with open(path, "rb") as fh:
        blob = fh.read()
    if rows == 0:
        if blob:
            raise ParseError(f"{path}: expected empty payload for rows=0")
        return np.zeros((0, m), dtype=bool), False
    bits_size = rows * ((m + 7) // 8)
    f32_size = rows * m * 4
    if len(blob) == bits_size:
        packed = np.frombuffer(blob, dtype=np.uint8).reshape(rows, -1)
        masks = np.unpackbits(packed, axis=1, count=m, bitorder="little").astype(bool)
        return masks, False
    if len(blob) == f32_size:
        soft = np.frombuffer(blob, dtype="<f4").reshape(rows, m)
        try:
            return _as_array(soft, (rows, m), "soft mask values", "<f4", UNIT_INTERVAL), True
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    raise ParseError(
        f"{path}: size {len(blob)} matches neither bitset ({bits_size}) nor f32 ({f32_size})"
    )
