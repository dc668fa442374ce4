import contextlib
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from artikit.model import (
    ArticulatedModel,
    JointLimits,
    JointSpec,
    JointType,
    KinematicTree,
    PartSpec,
    ROOT_ID,
)

# CLI tests run ``python -m artikit`` in child processes, which do not see the
# ``pythonpath`` entry of the pytest config; hand them the source tree too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
_PATHS = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in _PATHS:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + _PATHS)

#: settings of every fuzz and sweep property: derandomized, so each run draws
#: the same examples
FUZZ = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_JOINT_CYCLE = (JointType.REVOLUTE, JointType.PRISMATIC, JointType.CONTINUOUS)


def build_cabinet(door_axis=(0.0, 0.0, 1.0), door_pivot=(0.2, -0.2, 0.0), door_limits=(0.5, 0.5)):
    """Two-part cabinet: fixed body (part 0) and a revolute door (part 1).

    Door limits default to center 0.5, span 0.5, i.e. range [0, 1] rad.
    """
    rng = np.random.default_rng(1234)
    body_pts = rng.uniform(-0.45, -0.05, size=(40, 3))
    door_pts = rng.uniform(0.05, 0.45, size=(30, 3))
    base_pts = rng.uniform(-0.04, 0.04, size=(5, 3))
    points = np.vstack([body_pts, door_pts, base_pts])
    body = PartSpec(0, 3, np.arange(40), JointSpec(JointType.FIXED, [0, 0, 1], [0, 0, 0]))
    door = PartSpec(
        1,
        5,
        np.arange(40, 70),
        JointSpec(JointType.REVOLUTE, door_axis, door_pivot, JointLimits(*door_limits)),
    )
    return ArticulatedModel(
        points=points,
        parts=(body, door),
        tree=KinematicTree({0: ROOT_ID, 1: 0}),
        base_indices=np.arange(70, 75),
    )


def build_random_model(rng, n_parts, points_per_part=30, n_base=10):
    """A validating random model whose parts all carry motion-bearing joints."""
    total = n_parts * points_per_part + n_base
    points = rng.uniform(-0.45, 0.45, size=(total, 3))
    parts = []
    tree = {}
    for i in range(n_parts):
        jtype = _JOINT_CYCLE[i % len(_JOINT_CYCLE)]
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        pivot = rng.uniform(-0.4, 0.4, size=3)
        center = float(rng.uniform(-0.3, 0.3))
        span = float(rng.uniform(0.05, 0.4))
        lo = i * points_per_part
        parts.append(
            PartSpec(
                i,
                int(rng.integers(0, 8)),
                np.arange(lo, lo + points_per_part),
                JointSpec(jtype, axis, pivot, JointLimits(center, span)),
            )
        )
        tree[i] = ROOT_ID if i == 0 else int(rng.integers(-1, i))  # -1 is ROOT_ID
    return ArticulatedModel(
        points=points,
        parts=tuple(parts),
        tree=KinematicTree(tree),
        base_indices=np.arange(n_parts * points_per_part, total),
    )


@contextlib.contextmanager
def one_cpu():
    """Pin this thread to its lowest allowed CPU while the block runs, then
    restore its mask.  Child processes started inside inherit the pin, so
    artikit's thread budget in them is 1, and OpenBLAS starts no helper
    thread either."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


@pytest.fixture
def cabinet():
    return build_cabinet()


def criterion3_matrices():
    """Yield (label, cost) for the criterion-3 assignment corpus: 1015 random
    matrices of up to 8x8, then ten constructed ones with exact ties."""
    rng = np.random.default_rng(303)
    shapes = [(int(rng.integers(1, 8)), int(rng.integers(1, 8))) for _ in range(990)]
    shapes += [(8, 3), (3, 8), (8, 5), (2, 7), (7, 2)] * 5
    constructed = [
        np.ones((3, 3)),
        np.zeros((4, 4)),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.array([[2.0], [2.0], [5.0]]),
        np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
        np.array([[1.0, 2.0], [3.0, 0.0]]),
        np.round(rng.random((5, 5)) * 4) / 4.0,  # heavy exact ties
        np.round(rng.random((6, 4)) * 2) / 2.0,
        np.round(rng.random((4, 6)) * 2) / 2.0,
        np.round(rng.random((7, 7)) * 8) / 8.0,
    ]
    for n, k in shapes:
        yield f"{n}x{k}", rng.random((n, k))
    for cost in constructed:
        yield f"constructed {cost.shape}", cost
