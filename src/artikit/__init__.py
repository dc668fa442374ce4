"""artikit: computational kernels for articulated 3D object reconstruction.

Geometry feature operations, forward kinematics and tree construction,
part-mask matching, reference loss kernels, and the state-averaged
evaluation protocol, plus JSON/URDF/PLY interchange and a CLI.
"""

import functools
import os
import threading


def _thread_budget() -> int:
    """Threads artikit's own kernels may use (KD-tree query workers, the Chamfer
    fan-out, the row split of the grid kernels): the CPUs this process may run
    on, read at each call, so a process pinned to one CPU runs them serially.
    BLAS sizes its own pool, from the caller's ``OPENBLAS_NUM_THREADS`` and the
    like, which artikit never sets."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fan_out(calls) -> list:
    """Run zero-argument ``calls`` at once and return their results in order.

    This thread runs the first call while up to ``_thread_budget() - 1``
    helper threads run the rest; with a budget of 1 the calls run one after
    another on this thread.  The first error in call order is raised once
    every call has finished.  ``concurrent.futures`` is imported only when a
    helper thread is needed, so the CLI's start-up does not pay for it.
    """
    calls = list(calls)
    helpers = min(len(calls), _thread_budget()) - 1
    if helpers < 1:
        return [call() for call in calls]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(helpers) as pool:
        rest = [pool.submit(call) for call in calls[1:]]
        first = calls[0]()
        return [first] + [future.result() for future in rest]


def _by_rows(n: int, part) -> None:
    """Call ``part(rows)`` on ``_thread_budget()`` contiguous row slices that
    cover ``range(n)``, all at once (``_fan_out``)."""
    parts = min(_thread_budget(), n)
    cuts = [n * k // parts for k in range(parts + 1)] if parts else []
    _fan_out([functools.partial(part, slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:])])


_compiled_lock = threading.Lock()
_compiled_modules: dict = {}


def _compiled_scipy(name: str):
    """SciPy's compiled module ``name`` (say ``scipy.optimize._lsap``), loaded
    once per process from its file, without running the ``__init__`` of the
    subpackage above it.

    Those ``__init__`` files import most of SciPy and take most of the time a
    kernel call would otherwise spend importing.  The module is registered in
    ``sys.modules`` under its dotted name, so a later public import of the
    subpackage picks up this very module and its objects.  A module imported
    the public way already, or with no compiled file, is imported the usual
    way.  The lock makes threads that ask at once wait for one finished load.
    """
    module = _compiled_modules.get(name)
    if module is not None:
        return module
    with _compiled_lock:
        if name not in _compiled_modules:
            import importlib
            import sys
            from importlib import machinery, util

            top = None if name in sys.modules else util.find_spec("scipy")
            for root in top.submodule_search_locations if top else ():
                finder = machinery.FileFinder(
                    os.path.join(root, *name.split(".")[1:-1]),
                    (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES),
                )
                spec = finder.find_spec(name)
                if spec is not None:
                    module = util.module_from_spec(spec)
                    sys.modules[name] = module
                    try:
                        spec.loader.exec_module(module)
                    except BaseException:
                        sys.modules.pop(name, None)
                        raise
                    break
            else:
                module = importlib.import_module(name)
            _compiled_modules[name] = module
    return _compiled_modules[name]


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
