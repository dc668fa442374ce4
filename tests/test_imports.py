"""What importing artikit costs and sets up, checked in fresh child processes.

SciPy takes most of the CLI's start-up time, so it is imported only by the
functions that call it; the tracer in ``perfbench/spans.py`` must still find
every function it wraps.
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

from artikit.geometry import SparseVoxelGrid, save_grid
from artikit.meshio import save_point_cloud_ply
from artikit.model import save_model
from tests.conftest import build_cabinet

ROOT = Path(__file__).resolve().parent.parent
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ARTIKIT_THREADS")


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
    save_grid(SparseVoxelGrid(8, {(1, 2, 3): [1.0, 2.0], (4, 4, 4): [0.5, -1.0]}),
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


_NUMPY_SEES_THREADS = """
import json, os, sys

assert "numpy" not in sys.modules
seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Probe())
import artikit.cli
assert seen == [json.loads(sys.argv[1])], seen
"""


def test_artikit_threads_is_set_before_numpy_loads():
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["ARTIKIT_THREADS"] = "1"
    _python(_NUMPY_SEES_THREADS, json.dumps("1"), env=env)


@pytest.mark.parametrize("value", ["0", "two", "-1", "1.5"])
def test_zero_or_ignored_artikit_threads_leaves_blas_at_its_default(value):
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["ARTIKIT_THREADS"] = value
    _python(_NUMPY_SEES_THREADS, json.dumps(None), env=env)


def test_every_traced_attribute_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, attr) for module, attr, _name in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing
