"""Surface sampling, sparse-voxel interpolation, triplane scatter/gather and NN queries.

Coordinate conventions (fixed so fixtures are portable across implementations):

  * All points live in the canonical cube [-0.5, 0.5]^3.
  * A grid of resolution R uses the cell-center mapping
    ``g = (p + 0.5) * R - 0.5`` per axis, so the node with integer coordinate
    ``i`` sits at ``p = (i + 0.5) / R - 0.5``.  Continuous coordinates are
    clamped to [0, R - 1]; the object is compactly supported, nothing wraps.
  * Triplane order is XY, YZ, ZX with plane axes (x,y), (y,z), (z,x); plane
    arrays are indexed [u, v].
  * Trilinear and bilinear blends visit the 2^n corners in binary order, last
    axis fastest, weigh each by the product of its per-axis weights in axis
    order, and sum them into zeros in that order (``_corners``).
  * Random sampling uses NumPy's PCG64 generator (``np.random.default_rng``)
    with draw order: face picks, then the sqrt-shaped barycentric coordinate,
    then the second barycentric coordinate.
"""

from __future__ import annotations

import functools
import itertools
import operator
import struct
from dataclasses import dataclass

import numpy as np

from . import _compiled_scipy, _thread_budget
from ._fmt import read_sidecar, write_sidecar
from .errors import GeometryError, ParseError
from .model import CUBE_HALF, _CUBE_TOL, NON_NEGATIVE, TriMesh, _as_array

#: stock configuration of the source pipeline
DEFAULT_VOXEL_RESOLUTION = 64
DEFAULT_TRIPLANE_RESOLUTION = 128
DEFAULT_FEATURE_DIM = 8

GRID_MAGIC = b"ARTIKITVOXELGRID"  # exactly 16 bytes
_GRID_HEADER = struct.Struct("<IIQ")
#: largest feature dimension a grid file may declare; a query of M points
#: then yields at most M x 1024 float64 features
MAX_GRID_FEATURE_DIM = 1024
#: largest triplane resolution; a stack then holds at most 3 x 2048^2 nodes,
#: 96 MiB of float64 per feature channel
MAX_TRIPLANE_RESOLUTION = 2048


def _grid_record(dim: int) -> np.dtype:
    """One active cell of a grid file: its (i, j, k) and its ``dim`` features."""
    return np.dtype([("ijk", "<u2", (3,)), ("f", "<f4", (dim,))])


def _check_in_cube(pts: np.ndarray) -> np.ndarray:
    """Error on non-finite points and points outside the cube beyond tolerance, then clamp."""
    inside = np.abs(pts) <= CUBE_HALF + _CUBE_TOL
    if not np.all(inside):
        bad = int(np.flatnonzero(~inside.all(axis=1))[0])
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
        ijk = np.array(list(cells) or np.zeros((0, 3)), dtype=np.int64)
        feats = np.array(list(cells.values()) or np.zeros((0, dim)), dtype=np.float32)
        # adopt the state of the one validating constructor
        vars(self).update(vars(self.from_arrays(resolution, ijk, feats)))

    @classmethod
    def from_arrays(cls, resolution, ijk, features) -> "SparseVoxelGrid":
        """A grid from integer cell coordinates (n, 3) and their features (n, d).

        The arrays are copied; the cells may come in any order but must be
        distinct and inside the grid.
        """
        resolution = int(resolution)
        if not 1 <= resolution <= 0xFFFF:
            raise ValueError(f"resolution must be in [1, 65535], got {resolution}")
        ijk = _as_array(ijk, ("n", 3), "ijk", np.int64)
        feats = _as_array(features, ("n", "d"), "features", np.float32)
        if len(feats) != len(ijk):
            raise ValueError(f"cell/feature count mismatch: {len(ijk)} vs {len(feats)}")
        if feats.shape[1] < 1:
            raise ValueError("feature dimension must be positive")
        non_finite = np.flatnonzero(~np.isfinite(feats).all(axis=1))
        if non_finite.size:
            cell = tuple(int(c) for c in ijk[non_finite[0]])
            raise ValueError(f"cell {cell} has a non-finite feature")

        outside = np.flatnonzero(((ijk < 0) | (ijk >= resolution)).any(axis=1))
        if outside.size:
            cell = tuple(int(c) for c in ijk[outside[0]])
            raise ValueError(f"cell {cell} outside grid of resolution {resolution}")
        keys = (ijk[:, 0] * resolution + ijk[:, 1]) * resolution + ijk[:, 2]
        order = np.argsort(keys)
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate cell keys")

        grid = cls.__new__(cls)
        grid._resolution = resolution
        grid._dim = feats.shape[1]
        grid._keys = keys
        grid._ijk = ijk[order]
        grid._feats = feats[order]
        for arr in (grid._keys, grid._ijk, grid._feats):
            arr.setflags(write=False)
        return grid

    @property
    def resolution(self) -> int:
        return self._resolution

    @property
    def feature_dim(self) -> int:
        return self._dim

    @property
    def n_active(self) -> int:
        return self._keys.size

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
    records = np.rec.fromarrays([grid._ijk, grid._feats], dtype=_grid_record(grid.feature_dim))
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(_GRID_HEADER.pack(grid.resolution, grid.feature_dim, grid.n_active))
        fh.write(records.tobytes())


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
    if dim > MAX_GRID_FEATURE_DIM:
        raise ParseError(f"{path}: feature dimension {dim} exceeds {MAX_GRID_FEATURE_DIM}")
    try:
        record = _grid_record(dim)
        if len(blob) < offset + record.itemsize * n_active:
            raise ParseError(f"{path}: truncated records (want {n_active})")
        cells = np.frombuffer(blob, dtype=record, count=n_active, offset=offset)
        return SparseVoxelGrid.from_arrays(resolution, cells["ijk"], cells["f"])
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
        r = int(self.resolution)
        planes = _as_array(self.planes, (3, r, r, "d"), "planes")
        weights = _as_array(self.weights, (3, r, r), "weights", domain=NON_NEGATIVE)
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


def _corners(coords, resolution: int):
    """Yield ``(node index per axis, weight)`` for the 2^n grid corners around
    each point, given one cube-coordinate array per axis.

    Corners come in binary order (the last axis varies fastest), node indices
    are clamped to ``R - 1``, and each weight is the product of the per-axis
    weights taken in axis order.  This order fixes the float results.
    """
    nodes, weights = [], []  # per axis: (lower, upper) node and (lower, upper) weight
    for c in coords:
        i0, frac = _grid_coords(c, resolution)
        nodes.append((i0, np.minimum(i0 + 1, resolution - 1)))
        weights.append((1.0 - frac, frac))
    for offsets in itertools.product((0, 1), repeat=len(nodes)):
        yield (
            tuple(n[o] for n, o in zip(nodes, offsets)),
            functools.reduce(operator.mul, (w[o] for w, o in zip(weights, offsets))),
        )


def _blend(corners, lookup, shape) -> np.ndarray:
    """Sum of corner weight times ``lookup(nodes)`` over the corners."""
    out = np.zeros(shape, dtype=np.float64)
    for nodes, w in corners:
        out += w[:, None] * lookup(nodes)
    return out


def trilinear_interpolate(grid: SparseVoxelGrid, points) -> np.ndarray:
    """Blend the 8 surrounding cell features at each point; absent cells are zero.

    Exact at stored cell centers under the cell-center mapping.
    """
    pts = _check_in_cube(_as_array(points, ("M", 3), "points"))
    if pts.shape[0] == 0:
        return np.zeros((0, grid.feature_dim))
    return _blend(
        _corners(pts.T, grid.resolution),
        lambda nodes: grid.features_at(np.stack(nodes, axis=-1)),
        (pts.shape[0], grid.feature_dim),
    )


def triplane_scatter(points, features, resolution=DEFAULT_TRIPLANE_RESOLUTION) -> TriplaneStack:
    """Splat point features onto the three orthogonal planes with bilinear weights.

    Node values are weighted averages (accumulated feature / accumulated
    weight), which makes the result invariant to duplicating a point.
    """
    pts = _check_in_cube(_as_array(points, ("M", 3), "points"))
    feats = _as_array(features, ("M", "d"), "features")
    if feats.shape[0] != pts.shape[0]:
        raise ValueError(
            f"point/feature count mismatch: {pts.shape[0]} vs {feats.shape[0]}"
        )
    r = int(resolution)
    if not 1 <= r <= MAX_TRIPLANE_RESOLUTION:
        raise ValueError(f"resolution must be in [1, {MAX_TRIPLANE_RESOLUTION}], got {r}")
    dim = feats.shape[1]

    # One bincount per column sums each node's corner contributions in corner
    # order, then point order, from zero: the order of eight np.add.at calls.
    acc = np.empty((3, r * r, dim), dtype=np.float64)
    wacc = np.empty((3, r * r), dtype=np.float64)
    for plane, axes in enumerate(_PLANE_AXES):
        corners = list(_corners([pts[:, a] for a in axes], r))
        flat = np.concatenate([u * r + v for (u, v), _ in corners])
        weights = np.concatenate([w for _, w in corners])
        wacc[plane] = np.bincount(flat, weights=weights, minlength=r * r)
        for col in range(dim):
            acc[plane, :, col] = np.bincount(
                flat, weights=weights * np.tile(feats[:, col], len(corners)), minlength=r * r
            )
    acc = acc.reshape(3, r, r, dim)
    wacc = wacc.reshape(3, r, r)

    planes = np.zeros_like(acc)
    mask = wacc > 0.0
    planes[mask] = acc[mask] / wacc[mask][:, None]
    return TriplaneStack(resolution=r, planes=planes, weights=wacc)


def triplane_gather(stack: TriplaneStack, points) -> np.ndarray:
    """Bilinearly sample all three planes and concatenate XY || YZ || ZX."""
    pts = _check_in_cube(_as_array(points, ("M", 3), "points"))
    dim = stack.feature_dim
    out = np.zeros((pts.shape[0], 3 * dim), dtype=np.float64)
    for plane, axes in enumerate(_PLANE_AXES):
        out[:, plane * dim : (plane + 1) * dim] = _blend(
            _corners([pts[:, a] for a in axes], stack.resolution),
            stack.planes[plane].__getitem__,
            (pts.shape[0], dim),
        )
    return out


def cKDTree(points):
    """SciPy's KD-tree over ``points``, the one place artikit builds one.

    Only SciPy's compiled KD-tree module is loaded, on first use, so commands
    that make no nearest-neighbour query never load SciPy, and those that do
    skip the import of ``scipy.spatial``.
    """
    return _compiled_scipy("scipy.spatial._ckdtree").cKDTree(points)


def nearest_neighbors(from_points, to_points):
    """Exact Euclidean distance from each query point to its nearest target,
    and that target's index.

    KD-tree accelerated; results match the brute-force minimum exactly.  The
    query points are split across the thread budget (``ARTIKIT_THREADS``);
    each point is searched on its own, so distances, indices and ties do not
    depend on the split.
    """
    src = _as_array(from_points, ("M", 3), "from_points")
    dst = _as_array(to_points, ("N", 3), "to_points")
    if dst.shape[0] == 0:
        raise ValueError("nearest_neighbors: 'to_points' must be non-empty")
    if src.shape[0] == 0:
        return np.zeros(0), np.zeros(0, dtype=np.intp)
    distances, indices = cKDTree(dst).query(src, k=1, workers=_thread_budget())
    return np.asarray(distances, dtype=np.float64), indices


def nearest_neighbor_distances(from_points, to_points) -> np.ndarray:
    """The distance half of ``nearest_neighbors``."""
    return nearest_neighbors(from_points, to_points)[0]


def global_pool_concat(h, f_geo) -> np.ndarray:
    """Mean-pool two aligned feature sets over points and concatenate them."""
    h = _as_array(h, ("M", "d"), "h")
    f = _as_array(f_geo, (h.shape[0], "d"), "f_geo")
    if h.shape[0] == 0:
        raise ValueError("cannot pool an empty feature set")
    return np.concatenate([h.mean(axis=0), f.mean(axis=0)])


# ---------------------------------------------------------------------------
# feature-set interchange: raw little-endian float32 plus a JSON sidecar


def save_features(features, path) -> None:
    feats = _as_array(features, ("M", "d"), "features")
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(feats, dtype="<f4"))
    write_sidecar(path, {"M": int(feats.shape[0]), "dim": int(feats.shape[1])})


def load_features(path) -> np.ndarray:
    m, dim = read_sidecar(path, {"M": 0, "dim": 0})
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) != 4 * m * dim:
        raise ParseError(f"{path}: expected {4 * m * dim} bytes for M={m}, dim={dim}")
    return np.frombuffer(blob, dtype="<f4").reshape(m, dim).astype(np.float64)
