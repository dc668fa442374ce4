"""Surface sampling, sparse-voxel interpolation, triplane scatter/gather and NN queries.

Coordinate conventions (fixed so fixtures are portable across implementations):

  * All points live in the canonical cube [-0.5, 0.5]^3.
  * A grid of resolution R uses the cell-center mapping
    ``g = (p + 0.5) * R - 0.5`` per axis, so the node with integer coordinate
    ``i`` sits at ``p = (i + 0.5) / R - 0.5``.  Continuous coordinates are
    clamped to [0, R - 1]; the object is compactly supported, nothing wraps.
  * Triplane order is XY, YZ, ZX with plane axes (x,y), (y,z), (z,x); plane
    arrays are indexed [u, v].
  * Random sampling uses NumPy's PCG64 generator (``np.random.default_rng``)
    with draw order: face picks, then the sqrt-shaped barycentric coordinate,
    then the second barycentric coordinate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ._fmt import read_sidecar, write_sidecar
from .errors import GeometryError, ParseError
from .model import TriMesh

CUBE_HALF = 0.5
_CUBE_TOL = 1e-9

#: stock configuration of the source pipeline
DEFAULT_VOXEL_RESOLUTION = 64
DEFAULT_TRIPLANE_RESOLUTION = 128
DEFAULT_FEATURE_DIM = 8
LIFTED_FEATURE_DIM = 448

GRID_MAGIC = b"ARTIKITVOXELGRID"  # exactly 16 bytes
_GRID_HEADER = struct.Struct("<IIQ")


def _as_points(points, name="points") -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1 and pts.shape == (3,):
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must have shape (M, 3), got {pts.shape}")
    return pts


def _check_in_cube(pts: np.ndarray) -> np.ndarray:
    """Error on points outside the cube beyond tolerance, then clamp."""
    if pts.size and np.max(np.abs(pts)) > CUBE_HALF + _CUBE_TOL:
        bad = int(np.flatnonzero(np.max(np.abs(pts), axis=1) > CUBE_HALF + _CUBE_TOL)[0])
        raise GeometryError(
            f"point {bad} outside the canonical cube [-0.5, 0.5]^3: {pts[bad].tolist()}"
        )
    return np.clip(pts, -CUBE_HALF, CUBE_HALF)


def _grid_coords(coords: np.ndarray, resolution: int):
    """Map cube coordinates to (floor index, fraction) under the cell-center rule."""
    g = (coords + CUBE_HALF) * resolution - CUBE_HALF
    g = np.clip(g, 0.0, resolution - 1.0)
    i0 = np.floor(g).astype(np.int64)
    np.minimum(i0, max(resolution - 2, 0), out=i0)
    return i0, g - i0


class SparseVoxelGrid:
    """Feature vectors stored at active cells of a regular R^3 grid.

    Features are held as float32 (the interchange precision); interpolation
    arithmetic is float64.  The grid is immutable after construction.
    """

    def __init__(self, resolution=DEFAULT_VOXEL_RESOLUTION, cells=None, feature_dim=None):
        resolution = int(resolution)
        if not 1 <= resolution <= 0xFFFF:
            raise ValueError(f"resolution must be in [1, 65535], got {resolution}")
        self._resolution = resolution

        cells = dict(cells) if cells else {}
        if cells:
            dims = {np.asarray(v).shape for v in cells.values()}
            if len(dims) != 1 or len(next(iter(dims))) != 1:
                raise ValueError("all cell features must be 1-d vectors of one dimension")
            dim = next(iter(dims))[0]
            if feature_dim is not None and int(feature_dim) != dim:
                raise ValueError(f"feature_dim={feature_dim} disagrees with cells ({dim})")
        else:
            dim = int(feature_dim) if feature_dim is not None else DEFAULT_FEATURE_DIM
        if dim < 1:
            raise ValueError("feature dimension must be positive")
        self._dim = dim

        ijk = np.zeros((len(cells), 3), dtype=np.int64)
        feats = np.zeros((len(cells), dim), dtype=np.float32)
        for row, (key, vec) in enumerate(cells.items()):
            i, j, k = (int(c) for c in key)
            if not (0 <= i < resolution and 0 <= j < resolution and 0 <= k < resolution):
                raise ValueError(f"cell {(i, j, k)} outside grid of resolution {resolution}")
            ijk[row] = (i, j, k)
            feats[row] = np.asarray(vec, dtype=np.float32)

        keys = (ijk[:, 0] * resolution + ijk[:, 1]) * resolution + ijk[:, 2]
        if np.unique(keys).size != keys.size:
            raise ValueError("duplicate cell keys")
        order = np.argsort(keys)
        self._keys = keys[order]
        self._ijk = ijk[order]
        self._feats = feats[order]
        for arr in (self._keys, self._ijk, self._feats):
            arr.setflags(write=False)

    @property
    def resolution(self) -> int:
        return self._resolution

    @property
    def feature_dim(self) -> int:
        return self._dim

    @property
    def n_active(self) -> int:
        return self._keys.size

    def items(self):
        """Active cells in (i, j, k) order."""
        for row in range(self.n_active):
            yield tuple(int(c) for c in self._ijk[row]), self._feats[row]

    def features_at(self, ijk: np.ndarray) -> np.ndarray:
        """Features for integer cell coordinates (M, 3); absent cells give zero."""
        ijk = np.asarray(ijk, dtype=np.int64)
        r = self._resolution
        keys = (ijk[..., 0] * r + ijk[..., 1]) * r + ijk[..., 2]
        flat = keys.reshape(-1)
        out = np.zeros((flat.size, self._dim), dtype=np.float64)
        if self.n_active:
            pos = np.searchsorted(self._keys, flat)
            pos_c = np.minimum(pos, self.n_active - 1)
            hit = self._keys[pos_c] == flat
            out[hit] = self._feats[pos_c[hit]]
        return out.reshape(*keys.shape, self._dim)

    def __eq__(self, other):
        if not isinstance(other, SparseVoxelGrid):
            return NotImplemented
        return (
            self._resolution == other._resolution
            and self._dim == other._dim
            and np.array_equal(self._keys, other._keys)
            and np.array_equal(self._feats, other._feats)
        )


def save_grid(grid: SparseVoxelGrid, path) -> None:
    """Write the binary grid format: magic, header {R:u32, d:u32, n:u64}, records."""
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(_GRID_HEADER.pack(grid.resolution, grid.feature_dim, grid.n_active))
        for (i, j, k), vec in grid.items():
            fh.write(struct.pack("<HHH", i, j, k))
            fh.write(np.asarray(vec, dtype="<f4").tobytes())


def load_grid(path) -> SparseVoxelGrid:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(GRID_MAGIC):
        raise ParseError(f"{path}: bad magic, not a voxel grid file")
    offset = len(GRID_MAGIC)
    if len(blob) < offset + _GRID_HEADER.size:
        raise ParseError(f"{path}: truncated header")
    resolution, dim, n_active = _GRID_HEADER.unpack_from(blob, offset)
    offset += _GRID_HEADER.size
    record = 6 + 4 * dim
    if len(blob) < offset + record * n_active:
        raise ParseError(f"{path}: truncated records (want {n_active})")
    cells = {}
    for _ in range(n_active):
        i, j, k = struct.unpack_from("<HHH", blob, offset)
        offset += 6
        vec = np.frombuffer(blob, dtype="<f4", count=dim, offset=offset)
        offset += 4 * dim
        cells[(i, j, k)] = vec
    try:
        return SparseVoxelGrid(resolution, cells, feature_dim=dim)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class TriplaneStack:
    """Three normalized feature planes plus their bilinear weight accumulators.

    ``planes`` has shape (3, R, R, d) ordered XY, YZ, ZX; ``weights`` has
    shape (3, R, R).  Plane values are weight-normalized averages; nodes that
    received no mass hold the zero vector.
    """

    resolution: int
    planes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        planes = np.asarray(self.planes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        r = int(self.resolution)
        if planes.ndim != 4 or planes.shape[:3] != (3, r, r):
            raise ValueError(f"planes must have shape (3, {r}, {r}, d), got {planes.shape}")
        if weights.shape != (3, r, r):
            raise ValueError(f"weights must have shape (3, {r}, {r}), got {weights.shape}")
        if weights.size and weights.min() < 0:
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "resolution", r)
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "weights", weights)

    @property
    def feature_dim(self) -> int:
        return self.planes.shape[3]


_PLANE_AXES = ((0, 1), (1, 2), (2, 0))  # XY, YZ, ZX


def sample_surface_points(mesh: TriMesh, count: int, seed: int) -> np.ndarray:
    """Sample ``count`` points uniformly by area on the mesh surface.

    Deterministic in (mesh, count, seed): faces are drawn from the cumulative
    area distribution, then points placed by the square-root barycentric
    trick.  Raises GeometryError when the total surface area is zero.
    """
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    bad = mesh.validate()
    if bad:
        raise GeometryError("invalid mesh: " + "; ".join(bad))
    areas = mesh.face_areas()
    total = float(areas.sum())
    if total <= 0.0:
        raise GeometryError("degenerate mesh: total surface area is zero")

    rng = np.random.default_rng(seed)
    cum = np.cumsum(areas)
    face_idx = np.searchsorted(cum, rng.random(count) * total, side="right")
    np.minimum(face_idx, len(areas) - 1, out=face_idx)

    r1 = np.sqrt(rng.random(count))[:, None]
    r2 = rng.random(count)[:, None]
    tri = mesh.vertices[mesh.faces[face_idx]]
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    return (1.0 - r1) * a + r1 * (1.0 - r2) * b + r1 * r2 * c


def trilinear_interpolate(grid: SparseVoxelGrid, points) -> np.ndarray:
    """Blend the 8 surrounding cell features at each point; absent cells are zero.

    Exact at stored cell centers under the cell-center mapping.
    """
    pts = _check_in_cube(_as_points(points))
    if pts.shape[0] == 0:
        return np.zeros((0, grid.feature_dim))
    i0, frac = _grid_coords(pts, grid.resolution)

    out = np.zeros((pts.shape[0], grid.feature_dim), dtype=np.float64)
    for dx in (0, 1):
        wx = frac[:, 0] if dx else 1.0 - frac[:, 0]
        for dy in (0, 1):
            wy = frac[:, 1] if dy else 1.0 - frac[:, 1]
            for dz in (0, 1):
                wz = frac[:, 2] if dz else 1.0 - frac[:, 2]
                w = wx * wy * wz
                corner = i0 + np.array([dx, dy, dz], dtype=np.int64)
                out += w[:, None] * grid.features_at(corner)
    return out


def triplane_scatter(points, features, resolution=DEFAULT_TRIPLANE_RESOLUTION) -> TriplaneStack:
    """Splat point features onto the three orthogonal planes with bilinear weights.

    Node values are weighted averages (accumulated feature / accumulated
    weight), which makes the result invariant to duplicating a point.
    """
    pts = _check_in_cube(_as_points(points))
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"features must have shape (M, d), got {feats.shape}")
    if feats.shape[0] != pts.shape[0]:
        raise ValueError(
            f"point/feature count mismatch: {pts.shape[0]} vs {feats.shape[0]}"
        )
    r = int(resolution)
    if r < 1:
        raise ValueError(f"resolution must be >= 1, got {r}")
    dim = feats.shape[1]

    acc = np.zeros((3, r, r, dim), dtype=np.float64)
    wacc = np.zeros((3, r, r), dtype=np.float64)
    for plane, (a0, a1) in enumerate(_PLANE_AXES):
        u0, fu = _grid_coords(pts[:, a0], r)
        v0, fv = _grid_coords(pts[:, a1], r)
        for du in (0, 1):
            wu = fu if du else 1.0 - fu
            for dv in (0, 1):
                wv = fv if dv else 1.0 - fv
                w = wu * wv
                iu = np.minimum(u0 + du, r - 1)
                iv = np.minimum(v0 + dv, r - 1)
                np.add.at(acc[plane], (iu, iv), w[:, None] * feats)
                np.add.at(wacc[plane], (iu, iv), w)

    planes = np.zeros_like(acc)
    mask = wacc > 0.0
    planes[mask] = acc[mask] / wacc[mask][:, None]
    return TriplaneStack(resolution=r, planes=planes, weights=wacc)


def triplane_gather(stack: TriplaneStack, points) -> np.ndarray:
    """Bilinearly sample all three planes and concatenate XY || YZ || ZX."""
    pts = _check_in_cube(_as_points(points))
    r = stack.resolution
    dim = stack.feature_dim
    out = np.zeros((pts.shape[0], 3 * dim), dtype=np.float64)
    for plane, (a0, a1) in enumerate(_PLANE_AXES):
        u0, fu = _grid_coords(pts[:, a0], r)
        v0, fv = _grid_coords(pts[:, a1], r)
        sample = np.zeros((pts.shape[0], dim), dtype=np.float64)
        for du in (0, 1):
            wu = fu if du else 1.0 - fu
            for dv in (0, 1):
                wv = fv if dv else 1.0 - fv
                iu = np.minimum(u0 + du, r - 1)
                iv = np.minimum(v0 + dv, r - 1)
                sample += (wu * wv)[:, None] * stack.planes[plane, iu, iv]
        out[:, plane * dim : (plane + 1) * dim] = sample
    return out


def nearest_neighbor_distances(from_points, to_points) -> np.ndarray:
    """Exact Euclidean distance from each query point to its nearest target.

    KD-tree accelerated; results match the brute-force minimum exactly.
    """
    src = _as_points(from_points, "from_points")
    dst = _as_points(to_points, "to_points")
    if dst.shape[0] == 0:
        raise ValueError("nearest_neighbor_distances: 'to_points' must be non-empty")
    if src.shape[0] == 0:
        return np.zeros(0)
    distances, _ = cKDTree(dst).query(src, k=1)
    return np.asarray(distances, dtype=np.float64)


def global_pool_concat(h, f_geo) -> np.ndarray:
    """Mean-pool two aligned feature sets over points and concatenate them."""
    h = np.asarray(h, dtype=np.float64)
    f = np.asarray(f_geo, dtype=np.float64)
    if h.ndim != 2 or f.ndim != 2:
        raise ValueError("feature sets must be 2-d (M, dim) arrays")
    if h.shape[0] != f.shape[0]:
        raise ValueError(f"point count mismatch: {h.shape[0]} vs {f.shape[0]}")
    if h.shape[0] == 0:
        raise ValueError("cannot pool an empty feature set")
    return np.concatenate([h.mean(axis=0), f.mean(axis=0)])


# ---------------------------------------------------------------------------
# feature-set interchange: raw little-endian float32 plus a JSON sidecar


def save_features(features, path) -> None:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"features must have shape (M, dim), got {feats.shape}")
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(feats, dtype="<f4").tobytes())
    write_sidecar(path, {"M": int(feats.shape[0]), "dim": int(feats.shape[1])})


def load_features(path) -> np.ndarray:
    m, dim = read_sidecar(path, {"M": 0, "dim": 0})
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) != 4 * m * dim:
        raise ParseError(f"{path}: expected {4 * m * dim} bytes for M={m}, dim={dim}")
    return np.frombuffer(blob, dtype="<f4").reshape(m, dim).astype(np.float64)
