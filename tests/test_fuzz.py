"""Fuzz every file format, starting from valid files written by artikit itself.

Each example truncates a file, flips bytes in it, appends bytes to a PLY or
grid file, or edits one of its header or sidecar fields.  The loaders may
accept the result or reject it with ParseError or ValidationError, and nothing
else; the CLI exits 0, 2 or 3.  A grid or a soft-mask file edited to hold a
value outside its domain must raise ParseError, and a `tree` score or a
model's joint value outside its domain must exit 2.
"""

import contextlib
import io
import json
import math
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artikit.assignment import load_masks, save_masks
from artikit.cli import _load_points_file, main
from artikit.errors import ParseError, ValidationError
from artikit.geometry import (
    MAX_GRID_FEATURE_DIM,
    SparseVoxelGrid,
    load_features,
    load_grid,
    save_features,
    save_grid,
)
from artikit.kinematics import MAX_TREE_SCORE
from artikit.meshio import load_ply, load_point_cloud_ply, save_ply, save_point_cloud_ply
from artikit.model import MAX_JOINT_MAGNITUDE, TriMesh, load_model, model_to_dict, save_model
from tests.conftest import build_cabinet

FUZZ = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _grid(path):
    rng = np.random.default_rng(0)
    cells = {(int(i), int(j), int(k)): rng.normal(size=3) for i, j, k in
             rng.integers(0, 8, size=(6, 3))}
    save_grid(SparseVoxelGrid(8, list(cells), list(cells.values())), path)


def _mesh(path):
    save_ply(TriMesh([[0, 0, 0], [0.25, 0, 0], [0, 0.25, 0], [0, 0, 0.25]],
                     [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]), path)


def _cloud(path):
    save_point_cloud_ply(np.random.default_rng(1).uniform(-0.5, 0.5, size=(6, 3)), path)


def _bitset(path):
    save_masks(np.random.default_rng(2).random((3, 12)) > 0.5, path)


def _soft(path):
    save_masks(np.random.default_rng(3).random((3, 12)), path)


def _features(path):
    save_features(np.random.default_rng(4).normal(size=(5, 4)), path)


def _model(path):
    save_model(build_cabinet(), path)


def _points(path):
    # query points have no writer in artikit; the CLI reads a plain JSON array
    pts = np.random.default_rng(5).uniform(-0.5, 0.5, size=(4, 3))
    path.write_text(json.dumps(pts.tolist()))


# name -> (file name, artikit writer, loader)
FORMATS = {
    "grid": ("grid.bin", _grid, load_grid),
    "ply-mesh": ("mesh.ply", _mesh, load_ply),
    "ply-cloud": ("cloud.ply", _cloud, load_point_cloud_ply),
    "bitset-masks": ("masks.bits", _bitset, load_masks),
    "f32-masks": ("masks.f32", _soft, load_masks),
    "features": ("feats.f32", _features, load_features),
    "model": ("model.json", _model, load_model),
    "points": ("pts.json", _points, _load_points_file),
}


# ---------------------------------------------------------------------------
# mutations

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([0, 1, -1, 2**31, 2**63, 10**30])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=8,
)

# (offset, struct format) of each grid header field: resolution, dim, n_active
_GRID_FIELDS = ((16, "<I"), (20, "<I"), (24, "<Q"))

_PLY_TOKENS = ["ply", "format", "binary_little_endian", "ascii", "1.0", "element", "vertex",
               "face", "property", "float", "double", "list", "uchar", "int", "vertex_indices",
               "x", "y", "z", "comment", "end_header", "", "-1", "0", "3", "18446744073709551616"]


def _json_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _json_paths(value, prefix + (i,))


def _edit_json(data, blob: bytes) -> bytes:
    """Replace or delete one to three values anywhere in the document."""
    doc = json.loads(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        value = data.draw(_JSON_VALUES)
        if not path:
            doc = value
            continue
        *head, last = path
        node = doc
        for key in head:
            node = node[key]
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[last]
        else:
            node[last] = value
    return json.dumps(doc).encode()


def _edit_grid_header(data, blob: bytes) -> bytes:
    offset, fmt = data.draw(st.sampled_from(_GRID_FIELDS))
    top = 2 ** (8 * struct.calcsize(fmt)) - 1
    value = data.draw(st.sampled_from([0, 1, 2, 7, top]) | st.integers(0, top))
    return blob[:offset] + struct.pack(fmt, value) + blob[offset + struct.calcsize(fmt):]


def _edit_grid_values(data, blob: bytes) -> bytes:
    """Put a value outside its domain into a valid grid file: a non-finite
    cell feature, or a header ``dim`` above the cap with no cells to read."""
    _, dim, n_active = struct.unpack_from("<IIQ", blob, 16)
    if data.draw(st.booleans()):
        cell = data.draw(st.integers(0, n_active - 1))
        offset = 32 + cell * (6 + 4 * dim) + 6 + 4 * data.draw(st.integers(0, dim - 1))
        value = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        return blob[:offset] + struct.pack("<f", value) + blob[offset + 4:]
    huge = data.draw(st.sampled_from([MAX_GRID_FEATURE_DIM + 1, 2**29 - 2, 2**32 - 1])
                     | st.integers(MAX_GRID_FEATURE_DIM + 1, 2**32 - 1))
    return blob[:20] + struct.pack("<IQ", huge, 0) + blob[32:]


def _edit_mask_values(data, blob: bytes) -> bytes:
    """Put a value outside [0, 1] into a valid f32 soft-mask file: a
    non-finite one, a negative one, or one above 1."""
    offset = 4 * data.draw(st.integers(0, len(blob) // 4 - 1))
    value = data.draw(st.sampled_from([math.inf, -math.inf, math.nan, -3.0, 7.0])
                      | st.floats(max_value=-(2.0**-100), width=32)
                      | st.floats(min_value=1.0, exclude_min=True, width=32))
    return blob[:offset] + struct.pack("<f", value) + blob[offset + 4:]


def _edit_ply_header(data, blob: bytes) -> bytes:
    end = blob.index(b"end_header\n")
    lines = blob[:end].decode("ascii").split("\n")
    row = data.draw(st.integers(0, len(lines) - 1))
    words = lines[row].split(" ")
    col = data.draw(st.integers(0, len(words)))
    token = data.draw(st.sampled_from(_PLY_TOKENS) | st.integers(0, 2**64).map(str))
    if col == len(words) or data.draw(st.booleans()):
        words.insert(col, token)
    else:
        words[col] = token
    lines[row] = " ".join(words)
    return "\n".join(lines).encode("ascii") + blob[end:]


def _mutate(data, filename: str, blob: bytes) -> bytes:
    """One truncation, byte-flip, appended tail or field edit of ``blob``."""
    kinds = ["truncate", "flip"]
    if filename.endswith(".json"):
        kinds.append("json")
    elif filename.endswith(".bin"):
        kinds += ["grid-header", "grid-values", "append"]
    elif filename.endswith(".ply"):
        kinds += ["ply-header", "append"]
    elif filename == FORMATS["f32-masks"][0]:
        kinds.append("mask-values")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "truncate":
        return blob[: data.draw(st.integers(0, max(len(blob) - 1, 0)))]
    if kind == "flip":
        out = bytearray(blob)
        for pos, mask in data.draw(st.lists(
                st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
                min_size=1, max_size=8)):
            out[pos] ^= mask
        return bytes(out)
    if kind == "append":
        return blob + data.draw(st.binary(min_size=1, max_size=16))
    if kind == "json":
        return _edit_json(data, blob)
    if kind == "grid-header":
        return _edit_grid_header(data, blob)
    if kind == "grid-values":
        return _edit_grid_values(data, blob)
    if kind == "mask-values":
        return _edit_mask_values(data, blob)
    return _edit_ply_header(data, blob)


def _fuzzed_file(data, fmt: str, root: Path) -> Path:
    """Write a valid ``fmt`` file under ``root``, then mutate it, its sidecar or both."""
    filename, write, _load = FORMATS[fmt]
    write(root / filename)
    names = sorted(p.name for p in root.glob(filename + "*"))
    for name in sorted(data.draw(st.sets(st.sampled_from(names), min_size=1))):
        (root / name).write_bytes(_mutate(data, name, (root / name).read_bytes()))
    return root / filename


# ---------------------------------------------------------------------------
# loaders


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(FUZZ, max_examples=60)
@given(data=st.data())
def test_loader_raises_only_parse_or_validation_errors(fmt, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = _fuzzed_file(data, fmt, Path(tmp))
        try:
            FORMATS[fmt][2](path)
        except ValidationError:  # ParseError is a ValidationError
            pass


@settings(FUZZ, max_examples=30)
@given(data=st.data())
def test_grid_values_out_of_domain_raise_parse_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.bin"
        _grid(path)
        path.write_bytes(_edit_grid_values(data, path.read_bytes()))
        with pytest.raises(ParseError):
            load_grid(path)


@settings(FUZZ, max_examples=30)
@given(data=st.data())
def test_mask_values_out_of_domain_raise_parse_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "masks.f32"
        _soft(path)
        path.write_bytes(_edit_mask_values(data, path.read_bytes()))
        with pytest.raises(ParseError):
            load_masks(path)


# ---------------------------------------------------------------------------
# CLI

# case -> (fuzzed format, argv from the directory and the fuzzed file); the
# other inputs, grid.bin, gt.bits and gt.json, are valid
_CLI_CASES = {
    "features-points-json": ("points", lambda d, f: [
        "features", d / "grid.bin", f, "--triplane-resolution", 8, "--out", d / "out"]),
    "features-points-ply": ("ply-cloud", lambda d, f: [
        "features", d / "grid.bin", f, "--triplane-resolution", 8, "--out", d / "out"]),
    "match-bitset": ("bitset-masks", lambda d, f: ["match", f, d / "gt.bits"]),
    "match-f32": ("f32-masks", lambda d, f: ["match", f, d / "gt.bits"]),
    "evaluate": ("model", lambda d, f: ["evaluate", f, d / "gt.json"]),
}


@pytest.mark.parametrize("case", sorted(_CLI_CASES))
@settings(FUZZ, max_examples=15)
@given(data=st.data())
def test_cli_exit_code_on_fuzzed_input(case, data):
    fmt, argv = _CLI_CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        fuzzed = _fuzzed_file(data, fmt, root)
        _grid(root / "grid.bin")
        _bitset(root / "gt.bits")
        _model(root / "gt.json")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(a) for a in argv(root, fuzzed)])
        assert code in (0, 2, 3)


# a compatibility or root score that ``tree`` must reject, and one it must take
_BAD_SCORES = (st.sampled_from([math.inf, -math.inf, math.nan, 1e301, -1e308])
               | st.floats(min_value=MAX_TREE_SCORE, exclude_min=True)
               | st.floats(max_value=-MAX_TREE_SCORE, exclude_max=True))
_SCORES = st.floats(-MAX_TREE_SCORE, MAX_TREE_SCORE) | st.sampled_from([
    MAX_TREE_SCORE, -MAX_TREE_SCORE, 0.0])


@settings(FUZZ, max_examples=60)
@given(data=st.data())
def test_tree_score_values(data):
    """Scores within MAX_TREE_SCORE give a tree; one outside it exits 2.  No
    numpy warning is raised either way."""
    n, n_c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    probs = np.array(data.draw(st.lists(st.lists(st.floats(0.01, 1.0), min_size=n_c,
                                                 max_size=n_c), min_size=n, max_size=n)))
    probs /= probs.sum(axis=1, keepdims=True)
    compat = data.draw(st.lists(_SCORES, min_size=n_c * n_c, max_size=n_c * n_c))
    root = data.draw(st.none() | st.lists(_SCORES, min_size=n, max_size=n))
    bad = data.draw(st.sampled_from(["none", "compat", "root"]))
    target = compat if bad == "compat" or root is None else root
    if bad != "none":
        target[data.draw(st.integers(0, len(target) - 1))] = data.draw(_BAD_SCORES)
    with tempfile.TemporaryDirectory() as tmp:
        root_dir = Path(tmp)
        (root_dir / "p.json").write_text(json.dumps(probs.tolist()))
        (root_dir / "c.json").write_text(json.dumps(np.reshape(compat, (n_c, n_c)).tolist()))
        argv = ["tree", root_dir / "p.json", root_dir / "c.json"]
        if root is not None:
            (root_dir / "r.json").write_text(json.dumps(root))
            argv += ["--root-scores", root_dir / "r.json"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([str(a) for a in argv])
    assert code == (0 if bad == "none" else 2), err.getvalue()
    assert "Warning" not in err.getvalue() and "Traceback" not in err.getvalue()


# a joint pivot component, center or span that a model file must not hold
_BAD_JOINT_VALUES = (st.sampled_from([math.inf, -math.inf, math.nan, 1e154, -1e200, 1e308])
                     | st.floats(min_value=MAX_JOINT_MAGNITUDE, exclude_min=True)
                     | st.floats(max_value=-MAX_JOINT_MAGNITUDE, exclude_max=True))


@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_model_joint_values(data):
    """A model file whose joint holds a non-finite value, or one above
    MAX_JOINT_MAGNITUDE, exits 2 from ``evaluate`` and ``articulate``, with no
    numpy warning."""
    doc = model_to_dict(build_cabinet())
    part = data.draw(st.sampled_from([0, 1]))
    joint = doc["parts"][part]["joint"]
    if part == 0:  # the fixed body keeps center = span = 0, so move it
        joint.update(type="revolute", center=0.25, span=0.25)
    if data.draw(st.booleans()):
        joint["type"] = "prismatic"
    field = data.draw(st.sampled_from(["pivot", "center", "span"]))
    value = data.draw(_BAD_JOINT_VALUES)
    if field == "pivot":
        joint["pivot"][data.draw(st.integers(0, 2))] = value
    else:
        joint[field] = value
    command = data.draw(st.sampled_from(["evaluate", "articulate"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc))
        _model(Path(tmp) / "gt.json")
        argv = ([command, path, Path(tmp) / "gt.json"] if command == "evaluate"
                else [command, path, "--out", Path(tmp) / "out"])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([str(a) for a in argv])
    assert code == 2, err.getvalue()
    assert f"error: parts[{part}]: joint" in err.getvalue()
    assert "Warning" not in err.getvalue() and "Traceback" not in err.getvalue()
