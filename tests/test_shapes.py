"""One shape rule for every array argument: ``model._as_array``.

A wrong-shaped array raises ``ValueError("<name> must have shape <shape>, got
<shape>")`` at each public entry point, and the message text lives in one
module only.
"""

from pathlib import Path

import numpy as np
import pytest

import artikit
from artikit.assignment import (
    confidence_targets,
    hungarian,
    matching_cost,
)
from artikit.geometry import (
    SparseVoxelGrid,
    TriplaneStack,
    nearest_neighbor_distances,
    nearest_neighbors,
    save_features,
    trilinear_interpolate,
    triplane_gather,
    triplane_scatter,
)
from artikit.kinematics import AffinityMatrix, apply_joint, pairwise_affinity
from artikit.losses import MotionPrediction, object_category_loss, triplet_loss
from artikit.meshio import save_point_cloud_ply
from artikit.metrics import axis_error, chamfer, fscore, pivot_error
from artikit.model import JointSpec, JointType, PartSpec, TriMesh, _as_array
from tests.conftest import build_cabinet

CLOUD = np.zeros((4, 3))
BAD_CLOUD = np.zeros((4, 2))


def _joint(axis=(0, 0, 1), pivot=(0, 0, 0)):
    return JointSpec(JointType.REVOLUTE, axis, pivot)


def _stack(planes=None, weights=None):
    return TriplaneStack(2, np.zeros((3, 2, 2, 1)) if planes is None else planes,
                         np.zeros((3, 2, 2)) if weights is None else weights)


def _cabinet(points):
    model = build_cabinet()
    return type(model)(points, model.parts, model.tree, model.base_indices)


# entry point -> (call with one wrong-shaped argument, the message it must give)
WRONG_SHAPES = {
    "JointSpec-axis": (lambda: _joint(axis=(0, 1)), "joint axis must have shape (3,), got (2,)"),
    "JointSpec-pivot": (lambda: _joint(pivot=np.zeros((1, 3))),
                        "joint pivot must have shape (3,), got (1, 3)"),
    "PartSpec-point_indices": (lambda: PartSpec(0, 0, [[0, 1]], _joint()),
                               "point_indices must have shape (N,), got (1, 2)"),
    "ArticulatedModel-points": (lambda: _cabinet(np.zeros((75, 2))),
                                "points must have shape (M, 3), got (75, 2)"),
    "TriMesh-vertices": (lambda: TriMesh(BAD_CLOUD, [[0, 1, 2]]),
                         "vertices must have shape (V, 3), got (4, 2)"),
    "TriMesh-faces": (lambda: TriMesh(CLOUD, [0, 1, 2]), "faces must have shape (F, 3), got (3,)"),
    "SparseVoxelGrid-ijk": (lambda: SparseVoxelGrid(4, [[0, 0]], [[1.0]]),
                            "ijk must have shape (n, 3), got (1, 2)"),
    "SparseVoxelGrid-features": (lambda: SparseVoxelGrid(4, [[0, 0, 0]], [1.0]),
                                 "features must have shape (n, d), got (1,)"),
    "TriplaneStack-planes": (lambda: _stack(planes=np.zeros((3, 2, 2))),
                             "planes must have shape (3, 2, 2, d), got (3, 2, 2)"),
    "TriplaneStack-weights": (lambda: _stack(weights=np.zeros((3, 2, 3))),
                              "weights must have shape (3, 2, 2), got (3, 2, 3)"),
    "trilinear_interpolate-points": (
        lambda: trilinear_interpolate(SparseVoxelGrid(4, np.zeros((0, 3)), np.zeros((0, 1))),
                                      BAD_CLOUD),
        "points must have shape (M, 3), got (4, 2)"),
    "triplane_scatter-points": (lambda: triplane_scatter(BAD_CLOUD, np.zeros((4, 1)), 2),
                                "points must have shape (M, 3), got (4, 2)"),
    "triplane_scatter-features": (lambda: triplane_scatter(CLOUD, np.zeros(4), 2),
                                  "features must have shape (M, d), got (4,)"),
    "triplane_gather-points": (lambda: triplane_gather(_stack(), BAD_CLOUD),
                               "points must have shape (M, 3), got (4, 2)"),
    "nearest_neighbors-from_points": (lambda: nearest_neighbors(BAD_CLOUD, CLOUD),
                                      "from_points must have shape (M, 3), got (4, 2)"),
    "nearest_neighbors-to_points": (lambda: nearest_neighbors(CLOUD, BAD_CLOUD),
                                    "to_points must have shape (N, 3), got (4, 2)"),
    "save_features-features": (lambda: save_features(np.zeros(4), "unused.f32"),
                               "features must have shape (M, d), got (4,)"),
    "chamfer-a": (lambda: chamfer(BAD_CLOUD, CLOUD), "a must have shape (M, 3), got (4, 2)"),
    "fscore-b": (lambda: fscore(CLOUD, BAD_CLOUD), "b must have shape (M, 3), got (4, 2)"),
    "axis_error-a_p": (lambda: axis_error([0, 0, 1, 0], [0, 0, 1]),
                       "a_p must have shape (3,), got (4,)"),
    "pivot_error-o_g": (lambda: pivot_error(np.zeros(3), [0, 0, 1], np.zeros((1, 3)), [0, 0, 1]),
                        "o_g must have shape (3,), got (1, 3)"),
    "save_point_cloud_ply-points": (lambda: save_point_cloud_ply(BAD_CLOUD, "unused.ply"),
                                    "points must have shape (M, 3), got (4, 2)"),
    "matching_cost-pred_soft": (lambda: matching_cost(np.zeros(4), np.zeros((2, 4))),
                                "pred_soft must have shape (N, M), got (4,)"),
    "matching_cost-gt_masks": (lambda: matching_cost(np.zeros((2, 4)), np.zeros(4)),
                               "gt_masks must have shape (K, M), got (4,)"),
    "hungarian-cost": (lambda: hungarian(np.zeros(3)), "cost must have shape (N, K), got (3,)"),
    "pairwise_affinity-part_probs": (lambda: pairwise_affinity(np.ones(2), np.zeros((2, 2))),
                                     "part_probs must have shape (N, N_c), got (2,)"),
    "pairwise_affinity-compat": (lambda: pairwise_affinity(np.eye(2), np.zeros((2, 3))),
                                 "compat must have shape (2, 2), got (2, 3)"),
    "apply_joint-points-vector": (lambda: apply_joint(_joint(), 0.0, np.zeros(6)),
                                  "points must have shape (3,), got (6,)"),
    "apply_joint-points-batch": (lambda: apply_joint(_joint(), 0.0, np.zeros((2, 2, 3))),
                                 "points must have shape (M, 3), got (2, 2, 3)"),
    "AffinityMatrix-root_scores": (lambda: AffinityMatrix(np.zeros((2, 2)), np.zeros(3)),
                                   "root_scores must have shape (2,), got (3,)"),
    "object_category_loss-logits": (lambda: object_category_loss(np.zeros((1, 3)), 0),
                                    "logits must have shape (C,), got (1, 3)"),
    "triplet_loss-h_a": (lambda: triplet_loss(np.eye(2), np.eye(2), np.ones((2, 2)), 0.5),
                         "h_a must have shape (d,), got (2, 2)"),
    "triplet_loss-h_b": (lambda: triplet_loss(np.ones(2), np.ones(3), np.ones(2), 0.5),
                         "h_b must have shape (2,), got (3,)"),
    "MotionPrediction-type_logits": (
        lambda: MotionPrediction(np.zeros((1, 4)), [0, 0, 1], np.zeros(3), 0.0, 0.0),
        "type_logits must have shape (T,), got (1, 4)"),
    "MotionPrediction-center": (
        lambda: MotionPrediction(np.zeros(4), [0, 0, 1], np.zeros(3), [0.0, 1.0], 0.0),
        "center must have shape (), got (2,)"),
    "confidence_targets-pred_hard": (
        lambda: confidence_targets(np.zeros(4, bool), np.zeros((1, 4), bool), hungarian([[0.0]])),
        "pred_hard must have shape (N, M), got (4,)"),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_wrong_shape_names_the_argument_and_the_wanted_shape(case):
    call, message = WRONG_SHAPES[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda p: nearest_neighbor_distances(p, CLOUD),
        lambda p: nearest_neighbor_distances(CLOUD, p),
        lambda p: trilinear_interpolate(SparseVoxelGrid(4, np.zeros((0, 3)), np.zeros((0, 1))), p),
        lambda p: triplane_gather(_stack(), p),
        lambda p: chamfer(p, CLOUD),
    ],
    ids=["nn-from", "nn-to", "trilinear", "gather", "chamfer"],
)
def test_a_lone_point_is_not_a_cloud(call):
    with pytest.raises(ValueError, match=r"must have shape \(\w, 3\), got \(3,\)"):
        call(np.zeros(3))


@pytest.mark.parametrize("dtype, shape", [(np.float64, ("M", 3)), (np.float64, (5, 3)),
                                          (np.int64, ("M", "d")), (bool, ("N", "M"))])
def test_a_fitting_array_is_returned_uncopied(dtype, shape):
    x = np.zeros((5, 3), dtype=dtype)
    assert _as_array(x, shape, "x", dtype) is x


def test_the_shape_message_has_one_home():
    src = Path(artikit.__file__).parent
    homes = sorted(p.name for p in src.glob("*.py") if "must have shape" in p.read_text())
    assert homes == ["model.py"]
