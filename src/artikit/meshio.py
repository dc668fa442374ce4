"""Mesh and point-cloud file I/O.

Supported formats:
  * ASCII OBJ, v/f records only, triangular faces.
  * Binary little-endian PLY with float32 vertex x,y,z and an optional face
    element declared as ``property list uchar int vertex_indices``.

Point clouds are written as vertex-only binary PLY files.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ParseError
from .model import TriMesh


def load_obj(path) -> TriMesh:
    """Parse an ASCII OBJ file (v/f records, triangles only)."""
    vertices = []
    faces = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            tag = fields[0]
            if tag == "v":
                if len(fields) < 4:
                    raise ParseError(f"{path}:{lineno}: vertex needs 3 coordinates")
                try:
                    vertices.append([float(c) for c in fields[1:4]])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad vertex coordinate") from exc
            elif tag == "f":
                if len(fields) != 4:
                    raise ParseError(f"{path}:{lineno}: only triangular faces supported")
                idx = []
                for token in fields[1:4]:
                    head = token.split("/")[0]
                    try:
                        value = int(head)
                    except ValueError as exc:
                        raise ParseError(f"{path}:{lineno}: bad face index {token!r}") from exc
                    if value <= 0:
                        raise ParseError(f"{path}:{lineno}: face indices must be positive")
                    idx.append(value - 1)
                faces.append(idx)
            # other record types (vn, vt, usemtl, ...) are ignored
    if not vertices:
        raise ParseError(f"{path}: no vertices")
    return TriMesh(np.asarray(vertices), np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def save_obj(mesh: TriMesh, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


# ---------------------------------------------------------------------------
# PLY

def _ply_header(n_vertices: int, n_faces: int | None) -> bytes:
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
        for face in mesh.faces:
            fh.write(struct.pack("<B3i", 3, int(face[0]), int(face[1]), int(face[2])))


def save_point_cloud_ply(points, path) -> None:
    """Write points (M, 3) as a vertex-only binary PLY file."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (M, 3), got {pts.shape}")
    with open(path, "wb") as fh:
        fh.write(_ply_header(pts.shape[0], None))
        fh.write(np.ascontiguousarray(pts, dtype="<f4").tobytes())


def _parse_ply_header(blob: bytes, path) -> tuple:
    end = blob.find(b"end_header\n")
    if end < 0:
        raise ParseError(f"{path}: not a PLY file")
    header = blob[: end + len(b"end_header\n")]
    lines = header.decode("ascii", errors="replace").splitlines()
    if lines[0].strip() != "ply":
        raise ParseError(f"{path}: not a PLY file: first line must be 'ply', got {lines[0]!r}")
    if "format binary_little_endian 1.0" not in lines[1]:
        raise ParseError(f"{path}: only binary_little_endian PLY is supported")

    n_vertices = None
    n_faces = None
    current = None
    vertex_props = []
    for line in lines[2:]:
        fields = line.split()
        if not fields or fields[0] == "comment":
            continue
        if fields[0] == "element":
            if len(fields) != 3 or not fields[2].isdigit():
                raise ParseError(f"{path}: element line must be 'element <name> <count>' "
                                 f"with a nonnegative integer count, got {line!r}")
            current = fields[1]
            count = int(fields[2])
            if current == "vertex":
                n_vertices = count
            elif current == "face":
                n_faces = count
            else:
                raise ParseError(f"{path}: unsupported element {current!r}")
        elif fields[0] == "property":
            if len(fields) < 3:
                raise ParseError(f"{path}: property line must name a type and a field, "
                                 f"got {line!r}")
            if current == "vertex":
                if fields[1] != "float":
                    raise ParseError(f"{path}: vertex properties must be float32")
                vertex_props.append(fields[-1])
            elif current == "face":
                if fields[1:] != ["list", "uchar", "int", "vertex_indices"]:
                    raise ParseError(f"{path}: unsupported face property layout")
        elif fields[0] == "end_header":
            break
    if n_vertices is None or vertex_props != ["x", "y", "z"]:
        raise ParseError(f"{path}: vertex element must declare float x, y, z")
    return len(header), n_vertices, n_faces


def load_ply(path) -> TriMesh:
    """Read a binary little-endian PLY mesh (faces optional -> empty face list)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    offset, n_vertices, n_faces = _parse_ply_header(blob, path)

    need = n_vertices * 12
    if len(blob) < offset + need:
        raise ParseError(f"{path}: truncated vertex data")
    vertices = np.frombuffer(blob, dtype="<f4", count=n_vertices * 3, offset=offset)
    vertices = vertices.reshape(n_vertices, 3).astype(np.float64)
    offset += need

    faces = []
    if n_faces:
        for k in range(n_faces):
            if len(blob) < offset + 1:
                raise ParseError(f"{path}: truncated face data")
            (count,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            if count != 3:
                raise ParseError(f"{path}: only triangular faces supported")
            if len(blob) < offset + 12:
                raise ParseError(f"{path}: truncated face data")
            faces.append(struct.unpack_from("<3i", blob, offset))
            offset += 12
    return TriMesh(vertices, np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def load_point_cloud_ply(path) -> np.ndarray:
    """Read the vertex block of a binary PLY file as an (M, 3) array."""
    return load_ply(path).vertices


def load_mesh(path) -> TriMesh:
    """Dispatch on file suffix: .obj -> OBJ, .ply -> PLY."""
    text = str(path).lower()
    if text.endswith(".obj"):
        return load_obj(path)
    if text.endswith(".ply"):
        return load_ply(path)
    raise ParseError(f"{path}: unsupported mesh format (want .obj or .ply)")
