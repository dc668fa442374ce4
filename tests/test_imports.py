"""What importing artikit costs and sets up, checked in fresh child processes.

SciPy takes most of the CLI's start-up time, so only the functions that call
it load it, and they load only SciPy's compiled assignment and KD-tree
modules, not the subpackages around them; the tracer in
``perfbench/spans.py`` must still find every function it wraps.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from artikit.assignment import save_masks
from artikit.geometry import SparseVoxelGrid, save_grid
from artikit.meshio import save_point_cloud_ply
from artikit.model import save_model
from tests.conftest import build_cabinet, one_cpu

ROOT = Path(__file__).resolve().parent.parent
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _python(code, *args, env=None):
    """Run ``code`` in a fresh interpreter; fail the test with its stderr if it fails."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr


_NO_SCIPY = """
import contextlib, io, json, sys

def check(when):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{when} loaded {loaded[:5]}"

import artikit
check("import artikit")
import artikit.cli
check("import artikit.cli")
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = artikit.cli.main(argv)
    assert code == 0, (argv, code)
    check(" ".join(argv[:2]))
"""


def test_commands_without_nn_or_matching_never_import_scipy(tmp_path):
    rng = np.random.default_rng(0)
    save_grid(SparseVoxelGrid(8, [[1, 2, 3], [4, 4, 4]], [[1.0, 2.0], [0.5, -1.0]]),
              tmp_path / "grid.bin")
    pts = rng.uniform(-0.5, 0.5, size=(20, 3))
    (tmp_path / "pts.json").write_text(json.dumps(pts.tolist()))
    save_point_cloud_ply(pts, tmp_path / "pts.ply")
    save_model(build_cabinet(), tmp_path / "cabinet.json")
    (tmp_path / "logits.json").write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
    (tmp_path / "compat.json").write_text(json.dumps([[0.0, 5.0], [5.0, 0.0]]))
    argvs = [
        ["features", tmp_path / "grid.bin", tmp_path / "pts.json", "--out", tmp_path / "f1",
         "--triplane-resolution", 8],
        ["features", tmp_path / "grid.bin", tmp_path / "pts.ply", "--out", tmp_path / "f2",
         "--triplane-resolution", 8],
        ["tree", tmp_path / "logits.json", tmp_path / "compat.json"],
        ["articulate", tmp_path / "cabinet.json", "--out", tmp_path / "states"],
        ["losses", "selftest"],
    ]
    _python(_NO_SCIPY, json.dumps([[str(a) for a in argv] for argv in argvs]))


def test_importing_the_cli_does_not_load_concurrent_futures():
    """Every invocation pays for what the CLI imports; helper threads are made
    only when a kernel fans out."""
    _python("import sys, artikit.cli\n"
            "assert 'concurrent.futures' not in sys.modules")


_SERIAL_AT_A_BUDGET_OF_ONE = """
import sys, threading
import numpy as np
import artikit
from artikit import geometry

starts = []
start = threading.Thread.start
threading.Thread.start = lambda thread: (starts.append(thread), start(thread))[1]
rng = np.random.default_rng(0)
pts = rng.uniform(-0.5, 0.5, size=(500, 3))
grid = geometry.SparseVoxelGrid(4, [[1, 2, 3], [0, 0, 0]], [[1.0], [2.0]])
f_geo = geometry.trilinear_interpolate(grid, pts)
geometry.triplane_gather(geometry.triplane_scatter(pts, f_geo, 8), pts)
assert artikit._fan_out([lambda: 1, lambda: 2]) == [1, 2]
assert starts == [], starts
assert "concurrent.futures" not in sys.modules
"""


def test_a_budget_of_one_starts_no_thread_and_imports_no_executor():
    with one_cpu():
        _python(_SERIAL_AT_A_BUDGET_OF_ONE)


_BUDGET = """
import os, sys
import artikit
assert artikit._thread_budget() == len(os.sched_getaffinity(0)) == int(sys.argv[1])
"""


def test_a_child_pinned_to_one_cpu_has_a_budget_of_one():
    with one_cpu():
        _python(_BUDGET, 1)


def test_the_budget_is_the_affinity_mask_whatever_the_environment():
    """The variable that once capped the budget is ignored."""
    cpus = len(os.sched_getaffinity(0))
    if cpus == 1:
        pytest.skip("the affinity mask holds one CPU")
    _python(_BUDGET, cpus, env={**os.environ, "ARTIKIT_THREADS": "1"})


_SUBPACKAGES_NOT_LOADED = """
import contextlib, io, json, sys
import artikit.cli

argv, absent = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = artikit.cli.main(argv)
assert code == 0, code
loaded = [name for name in absent if name in sys.modules]
assert not loaded, f"{argv[0]} loaded {loaded}"
"""


def test_match_and_evaluate_skip_the_scipy_subpackage_imports(tmp_path):
    rng = np.random.default_rng(0)
    save_masks(rng.random((6, 40)).astype(np.float32), tmp_path / "pred.f32")
    save_masks(rng.random((4, 40)) > 0.5, tmp_path / "gt.bits")
    save_model(build_cabinet(), tmp_path / "cabinet.json")
    match = ["match", tmp_path / "pred.f32", tmp_path / "gt.bits"]
    evaluate = ["evaluate", tmp_path / "cabinet.json", tmp_path / "cabinet.json"]
    for argv, absent in ((match, ["scipy.optimize", "scipy.linalg"]),
                         (evaluate, ["scipy.optimize", "scipy.spatial"])):
        _python(_SUBPACKAGES_NOT_LOADED, json.dumps([[str(a) for a in argv], absent]))


_ONE_READ_PER_PATH_AND_NO_TREE = """
import contextlib, io, json, sys
import artikit.cli

argv, reads = json.loads(sys.argv[1])
paths = []
load = artikit.cli.load_model
artikit.cli.load_model = lambda path: (paths.append(path), load(path))[1]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = artikit.cli.main(argv)
assert code == 0, code
assert len(paths) == reads, paths
loaded = [name for name in ("scipy.spatial._ckdtree", "scipy.sparse") if name in sys.modules]
assert not loaded, loaded
"""


@pytest.mark.parametrize("copies", [1, 2], ids=["same-path", "two-paths"])
def test_evaluating_a_model_against_itself_reads_each_path_once_and_builds_no_tree(
        tmp_path, copies):
    """A path named twice is decoded once; every point is its own twin, so
    no nearest-neighbour query runs and SciPy's KD-tree module never loads."""
    paths = [tmp_path / f"cabinet{k}.json" for k in range(copies)]
    for path in paths:
        save_model(build_cabinet(), path)
    argv = ["evaluate", paths[0], paths[-1]]
    _python(_ONE_READ_PER_PATH_AND_NO_TREE, json.dumps([[str(a) for a in argv], copies]))


_SAME_OBJECTS_AS_SCIPY = """
import sys
import numpy as np

public_first = sys.argv[1] == "public-first"
if public_first:
    import scipy.optimize, scipy.spatial
import artikit
from artikit import assignment, geometry

cost = np.random.default_rng(0).random((5, 7))
rows, cols = assignment.linear_sum_assignment(cost)
tree = geometry.cKDTree(np.random.default_rng(1).uniform(-0.5, 0.5, size=(50, 3)))
if not public_first:
    assert "scipy.optimize" not in sys.modules and "scipy.spatial" not in sys.modules
    import scipy.optimize, scipy.spatial
solve = artikit._compiled_scipy("scipy.optimize._lsap").linear_sum_assignment
assert solve is scipy.optimize.linear_sum_assignment
assert type(tree) is scipy.spatial.cKDTree
expected = scipy.optimize.linear_sum_assignment(cost)
assert (rows == expected[0]).all() and (cols == expected[1]).all()
"""


@pytest.mark.parametrize("order", ["public-first", "public-after"])
def test_loaded_kernels_are_scipys_public_objects(order):
    _python(_SAME_OBJECTS_AS_SCIPY, order)


_FIRST_KDTREE_FROM_SEVERAL_THREADS = """
import sys, threading, time
import numpy as np
from artikit import geometry

kinds, errors = [], []

def build(after_load_starts):
    # all calls but the first come while the first is still loading the module
    deadline = time.monotonic() + 30
    while after_load_starts and "scipy.spatial._ckdtree" not in sys.modules:
        assert time.monotonic() < deadline
        time.sleep(0)
    try:
        tree = geometry.cKDTree(np.random.default_rng(0).uniform(-0.5, 0.5, size=(100, 3)))
        tree.query(np.zeros((1, 3)))
        kinds.append(type(tree))
    except BaseException as exc:
        errors.append(repr(exc))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=build, args=(wait,)) for wait in (False, True, True, True)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
    assert not thread.is_alive()
assert not errors, errors
import scipy.spatial
assert kinds == [scipy.spatial.cKDTree] * 4, kinds
"""


def test_first_kdtree_from_several_threads_at_once():
    _python(_FIRST_KDTREE_FROM_SEVERAL_THREADS)


_FALLBACK_WITHOUT_COMPILED_FILE = """
import sys
from importlib import machinery

# artikit's finder looks for these suffixes only; the import system keeps its own
machinery.EXTENSION_SUFFIXES = []
import numpy as np
import artikit
from artikit import assignment, geometry

assignment.linear_sum_assignment(np.eye(3))
tree = geometry.cKDTree(np.zeros((1, 3)))
assert "scipy.optimize" in sys.modules and "scipy.spatial" in sys.modules
import scipy.optimize, scipy.spatial
solve = artikit._compiled_scipy("scipy.optimize._lsap").linear_sum_assignment
assert solve is scipy.optimize.linear_sum_assignment
assert type(tree) is scipy.spatial.cKDTree
"""


def test_without_a_compiled_file_the_public_import_is_used():
    _python(_FALLBACK_WITHOUT_COMPILED_FILE)


_ENVIRON_UNTOUCHED = """
import json, os, sys

assert "numpy" not in sys.modules
before = dict(os.environ)
seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Probe())
import artikit.cli
assert dict(os.environ) == before
assert seen == [json.loads(sys.argv[1])], seen
"""


@pytest.mark.parametrize("blas", [None, "2"])
def test_importing_artikit_leaves_the_environment_as_it_was(blas):
    """NumPy sees the caller's own BLAS setting, or none."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    _python(_ENVIRON_UNTOUCHED, json.dumps(blas), env=env)


def test_every_traced_attribute_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, attr) for module, attr, _name in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing
