"""artikit: computational kernels for articulated 3D object reconstruction.

Geometry feature operations, forward kinematics and tree construction,
part-mask matching, reference loss kernels, and the state-averaged
evaluation protocol, plus JSON/URDF/PLY interchange and a CLI.
"""

import os


def _threads_setting() -> int:
    """``ARTIKIT_THREADS`` as a thread count; 0 when it is unset, 0, or not a
    decimal integer (such a value is ignored)."""
    text = os.environ.get("ARTIKIT_THREADS", "").strip()
    return int(text) if text.isascii() and text.isdigit() else 0


def _thread_budget() -> int:
    """Threads the nearest-neighbour work may use: the CPUs this process may
    run on, capped by ``ARTIKIT_THREADS`` when that is set.  Read at each call."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(_threads_setting() or cpus, cpus)


# Honor ARTIKIT_THREADS before any submodule imports numpy, which sizes its
# BLAS thread pool once, on import.  Best effort: has no effect if the host
# process imported numpy before artikit.
_threads = _threads_setting()
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, str(_threads))

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
