import numpy as np
import pytest

from artikit.errors import ParseError
from artikit.meshio import (
    load_mesh,
    load_obj,
    load_ply,
    load_point_cloud_ply,
    save_obj,
    save_ply,
    save_point_cloud_ply,
)
from artikit.model import TriMesh


@pytest.fixture
def tetra():
    return TriMesh(
        [[0, 0, 0], [0.25, 0, 0], [0, 0.25, 0], [0, 0, 0.25]],
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    )


def test_obj_round_trip(tetra, tmp_path):
    path = tmp_path / "t.obj"
    save_obj(tetra, path)
    assert load_obj(path) == tetra


def test_obj_slash_indices(tmp_path):
    path = tmp_path / "s.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n")
    mesh = load_obj(path)
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_obj_quad_rejected(tmp_path):
    path = tmp_path / "q.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n")
    with pytest.raises(ParseError, match="triangular"):
        load_obj(path)


def test_ply_round_trip(tetra, tmp_path):
    path = tmp_path / "t.ply"
    save_ply(tetra, path)
    got = load_ply(path)
    # vertices pass through float32 quantization
    np.testing.assert_allclose(got.vertices, tetra.vertices, atol=1e-7)
    assert np.array_equal(got.faces, tetra.faces)


def test_point_cloud_ply_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.5, 0.5, size=(100, 3)).astype(np.float32).astype(np.float64)
    path = tmp_path / "c.ply"
    save_point_cloud_ply(pts, path)
    np.testing.assert_array_equal(load_point_cloud_ply(path), pts)


def test_ply_truncated(tetra, tmp_path):
    path = tmp_path / "t.ply"
    save_ply(tetra, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(ParseError, match="truncated"):
        load_ply(path)


@pytest.mark.parametrize(
    "header, field",
    [
        (b"plyend_header\n", "first line"),
        (b"ply\nformat binary_little_endian 1.0\nelement vertex x\n"
         b"property float x\nproperty float y\nproperty float z\nend_header\n",
         "count, got 'element vertex x'"),
    ],
    ids=["first-line", "vertex-count"],
)
def test_ply_malformed_header_names_field(tmp_path, header, field):
    path = tmp_path / "bad.ply"
    path.write_bytes(header)
    with pytest.raises(ParseError, match=field):
        load_ply(path)


def test_load_mesh_dispatch(tetra, tmp_path):
    obj_path = tmp_path / "a.obj"
    ply_path = tmp_path / "a.ply"
    save_obj(tetra, obj_path)
    save_ply(tetra, ply_path)
    assert load_mesh(obj_path) == tetra
    assert np.array_equal(load_mesh(ply_path).faces, tetra.faces)
    with pytest.raises(ParseError, match="unsupported"):
        load_mesh(tmp_path / "a.stl")
