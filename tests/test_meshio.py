import struct

import numpy as np
import pytest

from artikit.errors import GeometryError, ParseError
from artikit.meshio import (
    _ply_header,
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


@pytest.mark.parametrize("blob, message", [
    (b"# \xff\xfe\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", ": not UTF-8 text: 'utf-8' codec"),
    (b"v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1", ": no faces"),
], ids=["not-utf8", "truncated-before-the-faces"])
def test_a_malformed_obj_raises_parse_error_naming_its_path(tmp_path, blob, message):
    path = tmp_path / "m.obj"
    path.write_bytes(blob)
    with pytest.raises(ParseError) as info:
        load_obj(path)
    assert str(info.value).startswith(f"{path}{message}")


def test_obj_face_index_past_the_vertices_rejected(tmp_path):
    path = tmp_path / "f.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(ParseError, match="faces must be non-negative and "
                                         "below the vertex count 3"):
        load_obj(path)


def test_obj_face_index_past_int64_rejected(tmp_path):
    path = tmp_path / "f.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n")
    with pytest.raises(ParseError, match="too large"):
        load_obj(path)


def _ply_bytes(vertices, faces) -> bytes:
    """A PLY file of artikit's layout, written by hand: ``TriMesh`` cannot hold
    the invalid meshes these tests read."""
    records = b"".join(struct.pack("<B3i", 3, *face) for face in faces)
    return (_ply_header(len(vertices), len(faces))
            + np.asarray(vertices, dtype="<f4").tobytes() + records)


@pytest.mark.parametrize("index", [3, 7, -1])
def test_ply_face_index_outside_the_vertices_rejected(tmp_path, index):
    path = tmp_path / "f.ply"
    path.write_bytes(_ply_bytes([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, index]]))
    with pytest.raises(ParseError, match="faces must be non-negative and "
                                         "below the vertex count 3"):
        load_ply(path)


@pytest.mark.parametrize("suffix", [".obj", ".ply"])
def test_vertex_not_finite_rejected(tmp_path, suffix):
    path = tmp_path / f"nan{suffix}"
    if suffix == ".obj":
        path.write_text("v 0 0 0\nv 1 0 nan\nv 0 1 0\nf 1 2 3\n")
    else:
        path.write_bytes(_ply_bytes([[0, 0, 0], [1, 0, np.nan], [0, 1, 0]], [[0, 1, 2]]))
    with pytest.raises(ParseError, match="vertices must be finite"):
        load_mesh(path)


def test_vertex_above_the_magnitude_bound_rejected(tmp_path):
    path = tmp_path / "huge.obj"
    path.write_text("v 0 0 0\nv 1e200 0 0\nv 0 1e200 0\nf 1 2 3\n")
    with pytest.raises(ParseError, match=r"vertices must be finite and at most 1e\+30"):
        load_obj(path)


def test_mesh_without_area_is_degenerate(tmp_path):
    """A vertex-only PLY file is a point cloud, not a mesh."""
    path = tmp_path / "cloud.ply"
    save_point_cloud_ply(np.eye(3), path)
    with pytest.raises(GeometryError, match="no face with nonzero area"):
        load_ply(path)
    np.testing.assert_array_equal(load_point_cloud_ply(path), np.eye(3))


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


@pytest.mark.parametrize("cut, message", [(0, "triangular"), (10, "truncated")])
def test_ply_quad_face(tetra, tmp_path, cut, message):
    path = tmp_path / "t.ply"
    save_ply(tetra, path)
    blob = bytearray(path.read_bytes())
    blob[-13] = 4  # vertex count of the last face record
    path.write_bytes(bytes(blob[: len(blob) - cut]))
    with pytest.raises(ParseError, match=message):
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


_PLY = "ply\nformat binary_little_endian 1.0\n"
_VERTICES = "element vertex {}\nproperty float x\nproperty float y\nproperty float z\n"
_FACES = "element face {}\nproperty list uchar int vertex_indices\n"

# headers artikit does not write, and payload sizes that fit their declared
# counts; every payload byte is 3, so each face record reads as a triangle
OTHER_LAYOUTS = {
    "face-before-vertex": (_PLY + _FACES.format(4) + _VERTICES.format(4), 4 * 13 + 4 * 12,
                           "unsupported PLY layout"),
    "vertex-declared-twice": (_PLY + "element vertex 1\n" + _VERTICES.format(3), 3 * 12,
                              "unsupported PLY layout"),
    "face-without-property": (_PLY + _VERTICES.format(4) + "element face 4\n", 4 * 12 + 4 * 13,
                              "unsupported PLY layout"),
    "property-before-element": (_PLY + "property float w\n" + _VERTICES.format(4), 4 * 12,
                                "unsupported PLY layout"),
    "unknown-keyword": (_PLY + "bogus line\n" + _VERTICES.format(4), 4 * 12,
                        "unsupported PLY layout"),
    "format-junk": ("ply\nformat binary_little_endian 1.0 junk\n" + _VERTICES.format(4), 4 * 12,
                    "unsupported PLY layout"),
    "trailing-bytes": (_PLY + _VERTICES.format(4), 4 * 12 + 5, "truncated or overlong"),
}


@pytest.mark.parametrize("header, payload, message", OTHER_LAYOUTS.values(), ids=OTHER_LAYOUTS)
def test_ply_other_layouts_rejected(tmp_path, header, payload, message):
    path = tmp_path / "other.ply"
    path.write_bytes((header + "end_header\n").encode("ascii") + b"\x03" * payload)
    with pytest.raises(ParseError, match=message):
        load_ply(path)


def test_ply_comment_and_obj_info_lines_skipped(tetra, tmp_path):
    path = tmp_path / "t.ply"
    save_ply(tetra, path)
    plain = load_ply(path)
    blob = path.read_bytes()
    for anchor in (b"ply\n", b"property float z\n", b"vertex_indices\n"):
        blob = blob.replace(anchor, anchor + b"comment made by hand\nobj_info id 7\n", 1)
    path.write_bytes(blob)
    assert load_ply(path) == plain


def test_load_mesh_dispatch(tetra, tmp_path):
    obj_path = tmp_path / "a.obj"
    ply_path = tmp_path / "a.ply"
    save_obj(tetra, obj_path)
    save_ply(tetra, ply_path)
    assert load_mesh(obj_path) == tetra
    assert np.array_equal(load_mesh(ply_path).faces, tetra.faces)
    with pytest.raises(ParseError, match="unsupported"):
        load_mesh(tmp_path / "a.stl")
