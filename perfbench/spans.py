"""In-memory spans around artikit's layer functions, installed from outside.

Each wrapper replaces a function at the attribute where the calling module
looks it up, so the program's files are not changed.  A span records
(name, start, end, parent span index, op id); spans stay in memory until the
run writes them out.  Counters of work done are taken from the arguments at
the same boundaries.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  One function can be looked up from several
# modules; every lookup site is wrapped under the same span name.
WRAPPED = (
    ("artikit.cli", "load_model", "model.load_model"),
    ("artikit.cli", "evaluate", "metrics.evaluate"),
    ("artikit.cli", "load_masks", "assignment.load_masks"),
    ("artikit.cli", "matching_cost", "assignment.matching_cost"),
    ("artikit.cli", "hungarian", "assignment.hungarian"),
    ("artikit.cli", "confidence_targets", "assignment.confidence_targets"),
    ("artikit.cli", "load_grid", "geometry.load_grid"),
    ("artikit.cli", "trilinear_interpolate", "geometry.trilinear_interpolate"),
    ("artikit.cli", "triplane_scatter", "geometry.triplane_scatter"),
    ("artikit.cli", "triplane_gather", "geometry.triplane_gather"),
    ("artikit.cli", "save_features", "geometry.save_features"),
    ("artikit.cli", "load_point_cloud_ply", "meshio.load_point_cloud_ply"),
    ("artikit._fmt", "dumps", "fmt.dumps"),  # metric names start with a letter
    ("artikit.metrics", "require_valid", "model.require_valid"),
    ("artikit.metrics", "part_transforms", "kinematics.part_transforms"),
    ("artikit.metrics", "nearest_neighbor_distances", "geometry.nearest_neighbor_distances"),
    ("artikit.metrics", "matching_cost", "assignment.matching_cost"),
    ("artikit.metrics", "hungarian", "assignment.hungarian"),
    ("artikit.metrics", "confidence_targets", "assignment.confidence_targets"),
    ("artikit.geometry", "cKDTree", "geometry.kdtree_build"),
    ("artikit.kinematics", "require_valid", "model.require_valid"),
    ("artikit.model", "require_valid", "model.require_valid"),
    ("artikit.assignment", "linear_sum_assignment", "assignment.linear_sum_assignment"),
)
ROOT_SPAN = "cli.main"
SPAN_NAMES = tuple(dict.fromkeys([ROOT_SPAN] + [name for _, _, name in WRAPPED]))

_F64, _F32 = 8, 4


def _file_bytes(path, *_args, **_kwargs):
    return os.path.getsize(path)


def _mask_bytes(path, *_args, **_kwargs):
    return os.path.getsize(path) + os.path.getsize(str(path) + ".json")


def _nn_points(from_points, *_args, **_kwargs):
    return len(from_points)


def _cost_flops(pred, gt, *_args, **_kwargs):
    # three (N, M) x (M, K) products: log p . g, log(1 - p) . (1 - g), p . g
    (n, m), k = pred.shape, gt.shape[0]
    return 6 * n * k * m


# Computed bytes moved: each array element the kernel reads or writes, once
# per access its algorithm makes.  A model of the work, not a measurement.
def _trilinear_bytes(grid, points, *_args, **_kwargs):
    m, d = len(points), grid.feature_dim
    return m * (3 * _F64 + 8 * d * _F32 + d * _F64)


def _scatter_bytes(points, features, resolution=128, *_args, **_kwargs):
    m, d, r = len(points), features.shape[1], int(resolution)
    splat = 3 * 4 * (d + 1) * 2 * _F64  # 3 planes x 4 nodes, read and write
    return m * (3 * _F64 + d * _F64 + splat) + 3 * r * r * (2 * d + 1) * _F64


def _gather_bytes(stack, points, *_args, **_kwargs):
    m, d = len(points), stack.feature_dim
    return m * (3 * _F64 + 3 * 4 * d * _F64 + 3 * d * _F64)


# span name -> (counter suffix, unit, count taken from the call's arguments)
COUNTERS = {
    "model.load_model": ("bytes", "B", _file_bytes),
    "assignment.load_masks": ("bytes", "B", _mask_bytes),
    "geometry.load_grid": ("bytes", "B", _file_bytes),
    "geometry.nearest_neighbor_distances": ("points_queried", "count", _nn_points),
    "assignment.matching_cost": ("flops_computed", "flop", _cost_flops),
    "geometry.trilinear_interpolate": ("bytes_computed", "B", _trilinear_bytes),
    "geometry.triplane_scatter": ("bytes_computed", "B", _scatter_bytes),
    "geometry.triplane_gather": ("bytes_computed", "B", _gather_bytes),
}


class Tracer:
    """Collects spans and counters for the ops run while it is installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []
        self._t0 = time.perf_counter()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if counter is not None:
                key, _unit, count = counter
                self.counts[f"{name}.{key}"] += count(*args, **kwargs)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, saved[-1][2]))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_totals(self, ops=None) -> dict:
        """name -> [calls, inclusive seconds, self seconds], summed over the
        ops whose ids are in ``ops`` (default: every op)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for (name, start, end, _parent, op), inner in zip(self.spans, child):
            if ops is not None and op not in ops:
                continue
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON array per line, times relative to creation."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent", "op"]) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start - self._t0, 9),
                                     round(end - self._t0, 9), parent, op]) + "\n")
