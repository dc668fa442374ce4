import os
from pathlib import Path

import numpy as np
import pytest

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


@pytest.fixture
def cabinet():
    return build_cabinet()
