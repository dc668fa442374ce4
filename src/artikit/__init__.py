"""artikit: computational kernels for articulated 3D object reconstruction.

Geometry feature operations, forward kinematics and tree construction,
part-mask matching, reference loss kernels, and the state-averaged
evaluation protocol, plus JSON/URDF/PLY interchange and a CLI.
"""

import os

# Honor ARTIKIT_THREADS before any submodule imports numpy, which sizes its
# BLAS thread pool once, on import.  Best effort: has no effect if the host
# process imported numpy before artikit.
_threads = os.environ.get("ARTIKIT_THREADS")
if _threads and _threads.strip() != "0":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads.strip())

__version__ = "0.1.0"

from .errors import ArtikitError, GeometryError, ParseError, ValidationError
from .model import (
    ROOT_ID,
    ArticulatedModel,
    JointLimits,
    JointSpec,
    JointType,
    KinematicTree,
    PartSpec,
    TriMesh,
    export_urdf,
    load_model,
    save_model,
    validate_model,
)
from .geometry import (
    SparseVoxelGrid,
    TriplaneStack,
    global_pool_concat,
    load_grid,
    nearest_neighbor_distances,
    sample_surface_points,
    save_grid,
    triplane_gather,
    triplane_scatter,
    trilinear_interpolate,
)
from .kinematics import (
    AffinityMatrix,
    ParentDistribution,
    apply_joint,
    articulate,
    build_tree,
    limits_from_range,
    limits_to_range,
    pairwise_affinity,
    parent_distribution,
    sample_states,
)
from .assignment import (
    MatchResult,
    QuerySet,
    SoftMaskSet,
    compute_mask_logits,
    confidence_targets,
    filter_queries,
    hungarian,
    matching_cost,
    residual_update,
)
from .losses import (
    LossWeights,
    MotionPrediction,
    confidence_loss,
    dice_loss,
    focal_loss,
    motion_loss,
    object_category_loss,
    stage_loss,
    structure_loss,
    triplet_loss,
)
from .metrics import (
    MetricReport,
    axis_error,
    chamfer,
    evaluate,
    fscore,
    pivot_error,
    type_accuracy,
)

__all__ = [
    "ArtikitError",
    "GeometryError",
    "ParseError",
    "ValidationError",
    "ROOT_ID",
    "ArticulatedModel",
    "JointLimits",
    "JointSpec",
    "JointType",
    "KinematicTree",
    "PartSpec",
    "TriMesh",
    "export_urdf",
    "load_model",
    "save_model",
    "validate_model",
    "SparseVoxelGrid",
    "TriplaneStack",
    "global_pool_concat",
    "load_grid",
    "nearest_neighbor_distances",
    "sample_surface_points",
    "save_grid",
    "triplane_gather",
    "triplane_scatter",
    "trilinear_interpolate",
    "AffinityMatrix",
    "ParentDistribution",
    "apply_joint",
    "articulate",
    "build_tree",
    "limits_from_range",
    "limits_to_range",
    "pairwise_affinity",
    "parent_distribution",
    "sample_states",
    "MatchResult",
    "QuerySet",
    "SoftMaskSet",
    "compute_mask_logits",
    "confidence_targets",
    "filter_queries",
    "hungarian",
    "matching_cost",
    "residual_update",
    "LossWeights",
    "MotionPrediction",
    "confidence_loss",
    "dice_loss",
    "focal_loss",
    "motion_loss",
    "object_category_loss",
    "stage_loss",
    "structure_loss",
    "triplet_loss",
    "MetricReport",
    "axis_error",
    "chamfer",
    "evaluate",
    "fscore",
    "pivot_error",
    "type_accuracy",
]
