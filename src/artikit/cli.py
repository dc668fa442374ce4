"""Command-line surface binding the library into reproducible workflows.

Reports go to stdout as JSON, diagnostics to stderr.  Exit codes: 0 success,
1 self-test failure, 2 input/validation error, 3 numeric/geometric degeneracy.
Floats are printed with 9 significant digits so outputs are byte-stable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, _fmt
from .assignment import (HARD_MASK_THRESHOLD, confidence_targets, hungarian, load_masks,
                         matching_cost)
from .errors import GeometryError, ParseError, ValidationError
from .geometry import (
    DEFAULT_TRIPLANE_RESOLUTION,
    load_grid,
    save_features,
    triplane_gather,
    triplane_scatter,
    trilinear_interpolate,
)
from .kinematics import (
    TREE_SCORE,
    articulate,
    build_tree,
    pairwise_affinity,
    parent_distribution,
    state_grid,
)
from .losses import selftest
from .meshio import load_point_cloud_ply, save_point_cloud_ply
from .metrics import evaluate
from .model import PROBABILITY, UNIT_INTERVAL, _as_array, load_model

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3

DEFAULT_STATES = 6
DEFAULT_POINTS = 100000
DEFAULT_TAU = 0.05
DEFAULT_THRESHOLD = 0.5
DEFAULT_SEED = 0


def _emit(payload) -> None:
    sys.stdout.write(_fmt.dumps(payload) + "\n")


def _diag(message: str) -> None:
    sys.stderr.write(message.rstrip() + "\n")


def _load_json_array(path, shape, name: str, domain=None) -> np.ndarray:
    """A JSON array file as a float64 array of ``shape`` and ``domain`` (see ``_as_array``)."""
    with _fmt.parse_errors(path):  # read_json raises ParseError, which passes through
        return _as_array(_fmt.read_json(path), shape, name, domain=domain)


def _load_points_file(path) -> np.ndarray:
    if str(path).lower().endswith(".ply"):
        return load_point_cloud_ply(path)
    with _fmt.parse_errors(path):
        doc = _fmt.read_json(path)
        # numpy reads [] as shape (0,); it is the empty cloud an empty PLY holds
        return _as_array(np.empty((0, 3)) if doc == [] else doc, ("M", 3), "points")


# ---------------------------------------------------------------------------
# subcommands


def cmd_articulate(args) -> int:
    model = load_model(args.model)
    states = state_grid(model, args.states)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest_states = []
    for k, state in enumerate(states):
        cloud = articulate(model, state)
        name = f"state_{k:02}.ply"
        save_point_cloud_ply(cloud, out_dir / name)
        manifest_states.append(
            {"file": name, "values": {str(pid): state[pid] for pid in sorted(state)}}
        )
    manifest = {"seed": args.seed, "states": manifest_states}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        fh.write(_fmt.dumps(manifest) + "\n")
    _diag(f"wrote {len(states)} states to {out_dir}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    pred = load_model(args.pred)
    # a path named twice is read and validated once
    gt = pred if args.gt == args.pred else load_model(args.gt)
    report = evaluate(
        pred,
        gt,
        n_states=args.states,
        n_points=args.points,
        tau=args.tau,
        seed=args.seed,
    )
    _emit(report.to_dict())
    return EXIT_OK


def cmd_tree(args) -> int:
    # every value is checked here, before any arithmetic on it can warn
    part_probs = _load_json_array(args.logits, ("N", "N_c"), "part probabilities", PROBABILITY)
    compat = _load_json_array(args.compat, ("N_c", "N_c"), "compatibility matrix", TREE_SCORE)
    root_scores = None
    if args.root_scores:
        root_scores = _load_json_array(args.root_scores, ("N",), "root scores", TREE_SCORE)
    # a row-sum or shape error from the kernel exits 2 like a parse error
    aff = pairwise_affinity(part_probs, compat, root_scores=root_scores)
    dist = parent_distribution(aff)
    tree = build_tree(dist)
    _emit(
        {
            "parents": {str(pid): tree.parent[pid] for pid in sorted(tree.parent)},
            "distribution": [[float(p) for p in row] for row in dist.probs],
        }
    )
    return EXIT_OK


def cmd_match(args) -> int:
    threshold = float(_as_array(args.threshold, (), "threshold", domain=UNIT_INTERVAL))
    pred, pred_soft = load_masks(args.pred_masks)
    gt, gt_soft = load_masks(args.gt_masks)
    if gt_soft:
        raise ParseError(f"{args.gt_masks}: ground-truth masks must be binary bitsets")
    if pred.shape[1] != gt.shape[1]:
        raise ParseError(
            f"mask point counts differ: {pred.shape[1]} vs {gt.shape[1]}"
        )
    hard = (pred > HARD_MASK_THRESHOLD) if pred_soft else pred
    # gt is a bool bitset: both kernels take it as it is
    match = hungarian(matching_cost(pred, gt))
    targets = confidence_targets(hard, gt, match)
    _emit(
        {
            "pairs": [[q, g] for q, g in match.pairs],
            "unmatched_queries": list(match.unmatched_queries),
            "total_cost": match.total_cost,
            "confidence_targets": [float(t) for t in targets],
            "confident": [int(i) for i in np.flatnonzero(targets >= threshold)],
        }
    )
    return EXIT_OK


def cmd_features(args) -> int:
    grid = load_grid(args.grid)
    points = _load_points_file(args.points_file)
    f_geo = trilinear_interpolate(grid, points)
    stack = triplane_scatter(points, f_geo, resolution=args.triplane_resolution)
    f_tri = triplane_gather(stack, points)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_features(f_geo, out_dir / "f_geo.f32")
    save_features(f_tri, out_dir / "f_tri.f32")
    _diag(f"wrote f_geo ({f_geo.shape[0]}x{f_geo.shape[1]}) and f_tri "
          f"({f_tri.shape[0]}x{f_tri.shape[1]}) to {out_dir}")
    return EXIT_OK


def cmd_losses_selftest(_args) -> int:
    rows = selftest()
    width = max(len(r["name"]) for r in rows)
    failed = 0
    for row in rows:
        status = "pass" if row["passed"] else "FAIL"
        if not row["passed"]:
            failed += 1
        print(
            f"{row['name']:<{width}}  value={_fmt.fmt_float(row['value']):<15} "
            f"expected={_fmt.fmt_float(row['expected']):<15} {status}"
        )
    print(f"{len(rows) - failed}/{len(rows)} kernels passed")
    return EXIT_OK if failed == 0 else EXIT_SELFTEST


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artikit",
        description="Kernels and evaluation protocol for articulated 3D objects.",
    )
    parser.add_argument("--version", action="version", version=f"artikit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("articulate", help="pose a model at uniformly sampled states")
    p.add_argument("model", help="articulation JSON file")
    p.add_argument("--out", required=True, help="output directory for PLY states")
    p.add_argument("--states", type=int, default=DEFAULT_STATES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_articulate)

    p = sub.add_parser("evaluate", help="state-averaged metrics of pred vs gt")
    p.add_argument("pred", help="predicted articulation JSON")
    p.add_argument("gt", help="ground-truth articulation JSON")
    p.add_argument("--states", type=int, default=DEFAULT_STATES)
    p.add_argument("--points", type=int, default=DEFAULT_POINTS,
                   help="points (>= 1) sampled per model from meshes; the CLI reads none yet")
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of that mesh sampling")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tree", help="build a kinematic tree from category logits")
    p.add_argument("logits", help="JSON (N, N_c) row-stochastic part probabilities")
    p.add_argument("compat", help="JSON (N_c, N_c) compatibility matrix")
    p.add_argument("--root-scores", default=None, help="JSON (N,) root scores")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("match", help="Hungarian-match predicted masks to gt masks")
    p.add_argument("pred_masks", help="predicted mask file (bitset or f32)")
    p.add_argument("gt_masks", help="ground-truth mask bitset file")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("features", help="interpolate voxel features and triplane-gather")
    p.add_argument("grid", help="sparse voxel grid binary file")
    p.add_argument("points_file", help="query points (.ply or JSON array)")
    p.add_argument("--triplane-resolution", type=int, default=DEFAULT_TRIPLANE_RESOLUTION)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("losses", help="loss-kernel utilities")
    losses_sub = p.add_subparsers(dest="losses_command", required=True)
    p2 = losses_sub.add_parser("selftest", help="run the documented kernel examples")
    p2.set_defaults(func=cmd_losses_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as exc:
        _diag(f"error: {exc}")
        return EXIT_DEGENERATE
    except (ParseError, ValidationError) as exc:
        if getattr(exc, "violations", None):
            for violation in exc.violations:
                _diag(f"violation: {violation}")
        _diag(f"error: {exc}")
        return EXIT_INVALID
    except (ValueError, OSError, MemoryError) as exc:
        _diag(f"error: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
