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
  * Each point is blended on its own.  Trilinear visits the points in the
    order of their base cell keys, so its cell lookups search sorted keys,
    and triplane gather reads each plane as (R * R, d) rows at the flat node
    index ``u * R + v``.  Neither the visit order nor the thread count
    changes the output bytes.
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

from . import _by_rows, _compiled_scipy
from ._fmt import parse_errors, read_payload, write_payload
from .errors import GeometryError, ParseError
from .model import (CUBE_HALF, FINITE, NON_NEGATIVE, TriMesh, _as_array, _int_domain, _magnitude,
                    _outside_cube, _value_eq)

#: stock configuration of the source pipeline
DEFAULT_TRIPLANE_RESOLUTION = 128

GRID_MAGIC = b"ARTIKITVOXELGRID"  # exactly 16 bytes
_GRID_HEADER = struct.Struct("<IIQ")
#: largest feature dimension a grid file may declare; a query of M points
#: then yields at most M x 1024 float64 features
MAX_GRID_FEATURE_DIM = 1024
#: largest triplane resolution; a stack then holds at most 3 x 2048^2 nodes,
#: 96 MiB of float64 per feature channel
MAX_TRIPLANE_RESOLUTION = 2048
#: the domain of point coordinates in a nearest-neighbour query: no squared distance overflows
NN_MAGNITUDE = _magnitude(1e150)


def _grid_record(dim: int) -> np.dtype:
    """One active cell of a grid file: its (i, j, k) and its ``dim`` features."""
    return np.dtype([("ijk", "<u2", (3,)), ("f", "<f4", (dim,))])


def _check_in_cube(pts: np.ndarray) -> np.ndarray:
    """Error on non-finite points and points outside the cube beyond tolerance, then clamp."""
    bad = _outside_cube(pts)
    if bad is not None:
        raise GeometryError(f"point {bad} outside the canonical cube [-0.5, 0.5]^3: "
                            f"{pts[bad].tolist()}")
    return np.clip(pts, -CUBE_HALF, CUBE_HALF)


def _grid_coords(coords: np.ndarray, resolution: int):
    """Map cube coordinates to (floor index, fraction) under the cell-center rule."""
    g = (coords + CUBE_HALF) * resolution - CUBE_HALF
    g = np.clip(g, 0.0, resolution - 1.0)
    i0 = np.floor(g).astype(np.int64)
    np.minimum(i0, max(resolution - 2, 0), out=i0)
    return i0, g - i0


@dataclass(frozen=True, eq=False)
class SparseVoxelGrid:
    """Feature vectors stored at active cells of a regular R^3 grid.

    ``ijk`` (n, 3) holds the cells in key order and ``features`` (n, d) their
    features as float32 (the interchange precision); interpolation
    arithmetic is float64.  The grid is immutable after construction.
    """

    resolution: int
    ijk: np.ndarray
    features: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        """Check and sort the cells; they may come in any order but must be
        distinct and inside the grid.  The arrays are copied."""
        resolution = int(_as_array(self.resolution, (), "resolution", np.int64,
                                   _int_domain(1, 0xFFFF)))
        ijk = _as_array(self.ijk, ("n", 3), "ijk", np.int64)
        with np.errstate(over="ignore"):  # a value past the float32 range reads inf
            feats = _as_array(self.features, ("n", "d"), "features", np.float32)
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

        ijk, feats = ijk[order], feats[order]
        # the lookup tables: every key ends in a sentinel above all cell keys,
        # and the features in a zero row that absent cells read
        keys = np.append(keys, np.iinfo(np.int64).max)
        rows = np.concatenate([feats, np.zeros((1, feats.shape[1]), dtype=np.float32)])
        for arr in (ijk, feats, keys, rows):
            arr.setflags(write=False)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "ijk", ijk)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_rows", rows)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_active(self) -> int:
        return self.features.shape[0]

    def _at_keys(self, keys: np.ndarray) -> np.ndarray:
        """Float64 features for flat cell keys (M,), zero where no cell is.

        One binary search finds each key's slot; a key that is not there
        reads the zero row.  The search is fastest on sorted keys.
        """
        pos = np.searchsorted(self._keys, keys)
        np.copyto(pos, self.n_active, where=self._keys[pos] != keys)
        return self._rows.take(pos, axis=0).astype(np.float64)


def save_grid(grid: SparseVoxelGrid, path) -> None:
    """Write the binary grid format: magic, header {R:u32, d:u32, n:u64}, records."""
    records = np.rec.fromarrays([grid.ijk, grid.features], dtype=_grid_record(grid.feature_dim))
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
    with parse_errors(path):
        record = _grid_record(dim)
        size = offset + record.itemsize * n_active
        if len(blob) != size:
            raise ParseError(f"{path}: truncated or overlong file: {len(blob)} bytes, "
                             f"the header declares {size}")
        cells = np.frombuffer(blob, dtype=record, count=n_active, offset=offset)
        return SparseVoxelGrid(resolution, cells["ijk"], cells["f"])


@dataclass(frozen=True, eq=False)
class TriplaneStack:
    """Three normalized feature planes plus their bilinear weight accumulators.

    ``planes`` has shape (3, R, R, d) ordered XY, YZ, ZX; ``weights`` has
    shape (3, R, R).  Plane values are weight-normalized averages; nodes that
    received no mass hold the zero vector.
    """

    resolution: int
    planes: np.ndarray
    weights: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        r = int(_as_array(self.resolution, (), "resolution", np.int64, _int_domain(1)))
        planes = _as_array(self.planes, (3, r, r, "d"), "planes", domain=FINITE)
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
    trick.  Every ``TriMesh`` has a face of nonzero area.
    """
    count = int(_as_array(count, (), "count", np.int64, _int_domain(1)))
    seed = int(_as_array(seed, (), "seed", np.int64, _int_domain(0)))
    areas = mesh.face_areas()
    total = float(areas.sum())

    rng = np.random.default_rng(seed)
    cum = np.cumsum(areas)
    face_idx = np.searchsorted(cum, rng.random(count) * total, side="right")
    np.minimum(face_idx, len(areas) - 1, out=face_idx)

    r1 = np.sqrt(rng.random(count))[:, None]
    r2 = rng.random(count)[:, None]
    tri = mesh.vertices[mesh.faces[face_idx]]
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    return (1.0 - r1) * a + r1 * (1.0 - r2) * b + r1 * r2 * c


def _sample_from_meshes(meshes, count: int, seed: int) -> tuple:
    """Sample ``count`` >= 1 points across a map of meshes in proportion to area.

    ``meshes`` maps ids to TriMesh; ``(points, owner)`` holds the points and,
    for each id, the indices of the points drawn from its mesh.  Counts use
    largest-remainder rounding, and the mesh at position k in sorted-id order
    is sampled with seed ``seed + k``, so results are deterministic.
    """
    if not meshes:
        raise ValueError("no meshes to sample")
    ids = sorted(meshes)
    areas = np.array([float(meshes[i].face_areas().sum()) for i in ids])
    share = areas / areas.sum() * count
    counts = np.floor(share).astype(int)
    for pos in np.argsort(-(share - counts), kind="stable")[:count - int(counts.sum())]:
        counts[pos] += 1

    seed = int(_as_array(seed, (), "seed", np.int64))
    chunks, owner, offset = [], {}, 0
    for pos, mid in enumerate(ids):
        n = int(counts[pos])
        if n:
            chunks.append(sample_surface_points(meshes[mid], n, seed=seed + pos))
        owner[mid] = np.arange(offset, offset + n, dtype=np.int64)
        offset += n
    return np.concatenate(chunks), owner


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


def _blend(corners, lookup, out) -> None:
    """Add corner weight times ``lookup(nodes)`` into ``out`` (zeros), corner
    by corner."""
    for nodes, w in corners:
        values = lookup(nodes)  # a fresh array: scaling it in place spares a temporary
        values *= w[:, None]
        out += values


#: points blended at a time: one block's temporaries stay small and in cache
_BLOCK_ROWS = 1 << 14


def _blocks(start: int, stop: int) -> list:
    """``range(start, stop)`` cut into consecutive slices of at most ``_BLOCK_ROWS``."""
    return [slice(lo, min(lo + _BLOCK_ROWS, stop)) for lo in range(start, stop, _BLOCK_ROWS)]


def trilinear_interpolate(grid: SparseVoxelGrid, points) -> np.ndarray:
    """Blend the 8 surrounding cell features at each point; absent cells are zero.

    Exact at stored cell centers under the cell-center mapping.  The points
    are split into contiguous ranges, one per CPU the process may run on
    (``artikit._thread_budget``), and each range is blended in the order of
    its points' base cell keys, block by block, so every corner looks its
    cells up by sorted keys.  Each point is blended on its own, so the result
    depends on neither the split nor the visit order.
    """
    pts = _check_in_cube(_as_array(points, ("M", 3), "points"))
    r = grid.resolution
    out = np.empty((pts.shape[0], grid.feature_dim))

    def cells(nodes):
        return grid._at_keys((nodes[0] * r + nodes[1]) * r + nodes[2])

    def interpolate(rows):
        i, j, k = (_grid_coords(c, r)[0] for c in pts[rows].T)
        order = np.argsort((i * r + j) * r + k)
        order += rows.start
        for block in _blocks(0, order.size):
            at = order[block]
            blended = np.zeros((at.size, grid.feature_dim))
            _blend(_corners(pts[at].T, r), cells, blended)
            out[at] = blended

    _by_rows(len(pts), interpolate)
    return out


def triplane_scatter(points, features, resolution=DEFAULT_TRIPLANE_RESOLUTION) -> TriplaneStack:
    """Splat point features onto the three orthogonal planes with bilinear weights.

    Node values are weighted averages (accumulated feature / accumulated
    weight), which makes the result invariant to duplicating a point.
    """
    pts = _check_in_cube(_as_array(points, ("M", 3), "points"))
    feats = _as_array(features, ("M", "d"), "features", domain=FINITE)
    if feats.shape[0] != pts.shape[0]:
        raise ValueError(
            f"point/feature count mismatch: {pts.shape[0]} vs {feats.shape[0]}"
        )
    r = int(_as_array(resolution, (), "resolution", np.int64,
                      _int_domain(1, MAX_TRIPLANE_RESOLUTION)))
    dim = feats.shape[1]

    # One bincount per column sums each node's corner contributions in corner
    # order, then point order, from zero: the order of eight np.add.at calls.
    # It stays serial: bincount releases the interpreter lock, and the planes
    # on threads give the same sums, but saved only about 10 ms a call.
    acc = np.empty((3, r * r, dim), dtype=np.float64)
    wacc = np.empty((3, r * r), dtype=np.float64)
    columns = np.ascontiguousarray(feats.T)
    for plane, axes in enumerate(_PLANE_AXES):
        corners = list(_corners([pts[:, a] for a in axes], r))
        flat = np.concatenate([u * r + v for (u, v), _ in corners])
        weights = np.concatenate([w for _, w in corners])
        wacc[plane] = np.bincount(flat, weights=weights, minlength=r * r)
        per_corner = weights.reshape(len(corners), -1)
        weighted = np.empty_like(per_corner)  # one buffer for every column
        for col, column in enumerate(columns):
            np.multiply(per_corner, column, out=weighted)
            acc[plane, :, col] = np.bincount(flat, weights=weighted.reshape(-1), minlength=r * r)
    acc = acc.reshape(3, r, r, dim)
    wacc = wacc.reshape(3, r, r)

    planes = np.zeros_like(acc)
    mask = wacc > 0.0
    planes[mask] = acc[mask] / wacc[mask][:, None]
    return TriplaneStack(resolution=r, planes=planes, weights=wacc)


def triplane_gather(stack: TriplaneStack, points) -> np.ndarray:
    """Bilinearly sample all three planes and concatenate XY || YZ || ZX.

    Each plane is read as ``(R * R, d)`` rows at the flat node index
    ``u * R + v``.  The points are split into contiguous ranges, one per CPU
    the process may run on (``artikit._thread_budget``), and blended block by
    block, each plane into a block of its own before it is copied to its
    columns.  Each point is blended on its own, so the split does not count.
    """
    pts = _check_in_cube(_as_array(points, ("M", 3), "points"))
    r, dim = stack.resolution, stack.feature_dim
    flat_planes = stack.planes.reshape(3, r * r, dim)
    out = np.empty((pts.shape[0], 3 * dim), dtype=np.float64)

    def gather(rows):
        for block in _blocks(rows.start, rows.stop):
            for plane, axes in enumerate(_PLANE_AXES):
                blended = np.zeros((block.stop - block.start, dim))
                _blend(_corners([pts[block, a] for a in axes], r),
                       lambda nodes: flat_planes[plane].take(nodes[0] * r + nodes[1], axis=0),
                       blended)
                out[block, plane * dim : (plane + 1) * dim] = blended

    _by_rows(len(pts), gather)
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
    query points are split across one KD-tree worker per CPU the process may
    run on (``artikit._thread_budget``); each point is searched on its own,
    so distances, indices and ties do not depend on the split.
    """
    src = _as_array(from_points, ("M", 3), "from_points", domain=NN_MAGNITUDE)
    dst = _as_array(to_points, ("N", 3), "to_points", domain=NN_MAGNITUDE)
    if dst.shape[0] == 0:
        raise ValueError("nearest_neighbors: 'to_points' must be non-empty")
    if src.shape[0] == 0:
        return np.zeros(0), np.zeros(0, dtype=np.intp)
    from . import _thread_budget  # the package's, looked up at each call, as ``_by_rows`` does
    distances, indices = cKDTree(dst).query(src, k=1, workers=_thread_budget())
    return np.asarray(distances, dtype=np.float64), indices


def nearest_neighbor_distances(from_points, to_points) -> np.ndarray:
    """The distance half of ``nearest_neighbors``."""
    return nearest_neighbors(from_points, to_points)[0]


# ---------------------------------------------------------------------------
# feature-set interchange: raw little-endian float32 plus a JSON sidecar


def save_features(features, path) -> None:
    feats = _as_array(features, ("M", "d"), "features")
    write_payload(path, np.ascontiguousarray(feats, dtype="<f4"),
                  {"M": int(feats.shape[0]), "dim": int(feats.shape[1])})


def load_features(path) -> np.ndarray:
    (m, dim), blob = read_payload(path, {"M": 0, "dim": 0})
    if len(blob) != 4 * m * dim:
        raise ParseError(f"{path}: expected {4 * m * dim} bytes for M={m}, dim={dim}")
    return np.frombuffer(blob, dtype="<f4").reshape(m, dim).astype(np.float64)
