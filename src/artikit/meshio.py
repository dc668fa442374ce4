"""Mesh and point-cloud file I/O.

Supported formats:
  * ASCII OBJ, v/f records only, triangular faces.
  * Binary PLY in the one layout ``_ply_header`` writes: float32 vertices,
    then optional triangle faces.  Readers skip comment and obj_info lines
    and reject any other header or file size.

A mesh file is read into a ``TriMesh``, which checks it as it is built: a
vertex that is not finite or a face index outside the vertex list raises
``ParseError``, and a mesh with no face of nonzero area ``GeometryError``.

Point clouds are written as vertex-only binary PLY files.
"""

from __future__ import annotations

import numpy as np

from ._fmt import parse_errors
from .errors import ParseError
from .model import TriMesh, _as_array


def load_obj(path) -> TriMesh:
    """Parse an ASCII OBJ file (v/f records, triangles only)."""
    vertices = []
    faces = []
    with open(path, "r", encoding="utf-8") as fh, parse_errors(f"{path}: not UTF-8 text"):
        lines = fh.readlines()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        tag = fields[0]
        if tag == "v":
            if len(fields) < 4:
                raise ParseError(f"{path}:{lineno}: vertex needs 3 coordinates")
            with parse_errors(f"{path}:{lineno}: bad vertex coordinate"):
                vertices.append([float(c) for c in fields[1:4]])
        elif tag == "f":
            if len(fields) != 4:
                raise ParseError(f"{path}:{lineno}: only triangular faces supported")
            # OBJ counts from 1, so TriMesh takes an index below 1 as negative
            with parse_errors(f"{path}:{lineno}: bad face index"):
                faces.append([int(token.split("/")[0]) - 1 for token in fields[1:4]])
        # other record types (vn, vt, usemtl, ...) are ignored
    if not vertices:
        raise ParseError(f"{path}: no vertices")
    if not faces:
        raise ParseError(f"{path}: no faces")
    with parse_errors(path):
        return TriMesh(np.asarray(vertices), np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def save_obj(mesh: TriMesh, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


# ---------------------------------------------------------------------------
# PLY

#: one face record: the vertex count (always 3) and the vertex indices
_PLY_FACE = np.dtype([("n", "u1"), ("v", "<i4", (3,))])


def _ply_header(n_vertices: int, n_faces: int | None) -> bytes:
    """The header of the one PLY layout artikit writes and reads."""
    lines = [
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {n_vertices}",
        "property float x",
        "property float y",
        "property float z",
    ]
    if n_faces is not None:
        lines.append(f"element face {n_faces}")
        lines.append("property list uchar int vertex_indices")
    lines.append("end_header")
    return ("\n".join(lines) + "\n").encode("ascii")


def save_ply(mesh: TriMesh, path) -> None:
    """Write a binary little-endian PLY mesh."""
    with open(path, "wb") as fh:
        fh.write(_ply_header(mesh.vertices.shape[0], mesh.faces.shape[0]))
        fh.write(np.ascontiguousarray(mesh.vertices, dtype="<f4").tobytes())
        counts = np.full(mesh.faces.shape[0], 3)
        fh.write(np.rec.fromarrays([counts, mesh.faces], dtype=_PLY_FACE).tobytes())


def save_point_cloud_ply(points, path) -> None:
    """Write points (M, 3) as a vertex-only binary PLY file."""
    pts = _as_array(points, ("M", 3), "points")
    with open(path, "wb") as fh:
        fh.write(_ply_header(pts.shape[0], None))
        fh.write(np.ascontiguousarray(pts, dtype="<f4").tobytes())


def _parse_ply_header(blob: bytes, path) -> tuple:
    """(header size, vertex count, face count or None) of a PLY file whose
    header, apart from comment and obj_info lines, is exactly ``_ply_header``'s."""
    end = blob.find(b"end_header\n")
    if end < 0:
        raise ParseError(f"{path}: not a PLY file")
    size = end + len(b"end_header\n")
    lines = blob[:size].decode("ascii", errors="replace").split("\n")[:-1]
    if lines[0].strip() != "ply":
        raise ParseError(f"{path}: not a PLY file: first line must be 'ply', got {lines[0]!r}")
    lines = [line for line in lines if line.split()[:1] not in (["comment"], ["obj_info"])]
    counts = {}
    for line in lines:
        fields = line.split()
        if fields[:1] == ["element"]:
            if len(fields) != 3 or not fields[2].isdigit():
                raise ParseError(f"{path}: element line must be 'element <name> <count>' "
                                 f"with a nonnegative integer count, got {line!r}")
            counts[fields[1]] = int(fields[2])
    n_vertices, n_faces = counts.get("vertex", 0), counts.get("face")
    expected = _ply_header(n_vertices, n_faces).decode("ascii")
    if "".join(line + "\n" for line in lines) != expected:
        raise ParseError(f"{path}: unsupported PLY layout; apart from comment and obj_info "
                         f"lines the header must read {expected!r}")
    return size, n_vertices, n_faces


def _read_ply(path) -> tuple:
    """The (V, 3) float64 vertices and (F, 3) face indices of a PLY file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    offset, n_vertices, n_faces = _parse_ply_header(blob, path)
    n_faces = n_faces or 0
    size = offset + 12 * n_vertices + _PLY_FACE.itemsize * n_faces
    if len(blob) != size:
        raise ParseError(f"{path}: truncated or overlong file: {len(blob)} bytes, "
                         f"the header declares {size}")
    vertices = np.frombuffer(blob, dtype="<f4", count=n_vertices * 3, offset=offset)
    faces = np.frombuffer(blob, dtype=_PLY_FACE, count=n_faces, offset=offset + 12 * n_vertices)
    if np.any(faces["n"] != 3):
        raise ParseError(f"{path}: only triangular faces supported")
    return vertices.reshape(n_vertices, 3).astype(np.float64), faces["v"]


def load_ply(path) -> TriMesh:
    """Read a binary little-endian PLY mesh."""
    vertices, faces = _read_ply(path)
    with parse_errors(path):
        return TriMesh(vertices, faces)


def load_point_cloud_ply(path) -> np.ndarray:
    """Read the vertex block of a binary PLY file as an (M, 3) array."""
    return _read_ply(path)[0]


def load_mesh(path) -> TriMesh:
    """Dispatch on file suffix: .obj -> OBJ, .ply -> PLY."""
    text = str(path).lower()
    if text.endswith(".obj"):
        return load_obj(path)
    if text.endswith(".ply"):
        return load_ply(path)
    raise ParseError(f"{path}: unsupported mesh format (want .obj or .ply)")
