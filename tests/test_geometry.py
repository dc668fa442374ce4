import hashlib
import itertools
import json
import struct
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import artikit
from artikit.errors import GeometryError, ParseError
from artikit import geometry
from artikit.geometry import (
    SparseVoxelGrid,
    load_features,
    load_grid,
    nearest_neighbor_distances,
    nearest_neighbors,
    sample_surface_points,
    save_features,
    save_grid,
    triplane_gather,
    triplane_scatter,
    trilinear_interpolate,
)
from artikit.model import TriMesh
from tests.oracles import nn_brute_force, trilinear_oracle


def node_position(i, resolution):
    """Cube coordinate of integer grid node i under the cell-center mapping."""
    return (i + 0.5) / resolution - 0.5


# ---------------------------------------------------------------------------
# surface sampling


class TestSampling:
    def test_points_lie_on_the_triangle(self):
        mesh = TriMesh([[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0]], [[0, 1, 2]])
        pts = sample_surface_points(mesh, 1000, seed=3)
        assert pts.shape == (1000, 3)
        assert np.abs(pts[:, 2]).max() < 1e-9  # plane equation z = 0
        u = pts[:, 0] / 0.5
        v = pts[:, 1] / 0.5
        assert (u >= -1e-9).all() and (v >= -1e-9).all() and (u + v <= 1 + 1e-9).all()

    def test_area_weighting_one_to_three(self):
        # areas 0.125 and 0.375: the second triangle gets 75% of the draws
        mesh = TriMesh(
            [[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.2], [1.5, 0, 0.2], [0, 0.5, 0.2]],
            [[0, 1, 2], [3, 4, 5]],
        )
        pts = sample_surface_points(mesh, 100000, seed=11)
        on_second = int(np.count_nonzero(pts[:, 2] > 0.1))
        assert abs(on_second - 75000) <= 500

    def test_deterministic_in_seed(self):
        mesh = TriMesh([[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0]], [[0, 1, 2]])
        a = sample_surface_points(mesh, 500, seed=42)
        b = sample_surface_points(mesh, 500, seed=42)
        c = sample_surface_points(mesh, 500, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_chi_square_area_unbiased(self):
        # eight disjoint x-slab triangles with areas proportional to 1..8
        verts, faces = [], []
        for k in range(8):
            x = -0.5 + k * 0.12
            h = 0.05 * (k + 1)
            verts += [[x, 0, 0], [x + 0.1, 0, 0], [x, h, 0]]
            faces.append([3 * k, 3 * k + 1, 3 * k + 2])
        mesh = TriMesh(verts, faces)
        pts = sample_surface_points(mesh, 100000, seed=7)
        counts = np.histogram(pts[:, 0], bins=[-0.5 + k * 0.12 for k in range(8)] + [0.5])[0]
        expected = np.arange(1, 9) / 36.0 * 100000
        assert stats.chisquare(counts, expected).pvalue > 0.001

    def test_degenerate_mesh_rejected(self):
        # a mesh with no area cannot be built, so it never reaches the sampler
        with pytest.raises(GeometryError, match="no face with nonzero area"):
            TriMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])

    def test_count_must_be_positive(self):
        mesh = TriMesh([[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0]], [[0, 1, 2]])
        with pytest.raises(ValueError):
            sample_surface_points(mesh, 0, seed=0)


# ---------------------------------------------------------------------------
# trilinear interpolation


class TestTrilinear:
    def test_exact_at_stored_cell_center(self):
        grid = SparseVoxelGrid(8, [[2, 5, 1]], [[1.5, -2.0]])
        p = [node_position(2, 8), node_position(5, 8), node_position(1, 8)]
        np.testing.assert_allclose(trilinear_interpolate(grid, [p]), [[1.5, -2.0]], atol=1e-15)

    def test_midpoint_of_eight_centers_is_mean(self):
        cells = {}
        vals = []
        for d, (dx, dy, dz) in enumerate(itertools.product((0, 1), repeat=3)):
            cells[(3 + dx, 3 + dy, 3 + dz)] = [float(d + 1)]
            vals.append(d + 1)
        grid = SparseVoxelGrid(8, list(cells), list(cells.values()))
        p = [node_position(3.5, 8)] * 3
        np.testing.assert_allclose(trilinear_interpolate(grid, [p]), [[np.mean(vals)]], atol=1e-12)

    def test_edge_midpoint_is_half_half(self):
        grid = SparseVoxelGrid(8, [[1, 1, 1], [2, 1, 1]], [[2.0], [6.0]])
        p = [node_position(1.5, 8), node_position(1, 8), node_position(1, 8)]
        np.testing.assert_allclose(trilinear_interpolate(grid, [p]), [[4.0]], atol=1e-12)

    def test_matches_eight_corner_oracle(self):
        rng = np.random.default_rng(21)
        cells = {
            (int(i), int(j), int(k)): rng.normal(size=4)
            for i, j, k in rng.integers(0, 16, size=(300, 3))
        }
        grid = SparseVoxelGrid(16, list(cells), list(cells.values()))
        pts = rng.uniform(-0.5, 0.5, size=(500, 3))
        got = trilinear_interpolate(grid, pts)
        f32_cells = {key: np.asarray(vec, dtype=np.float32).astype(np.float64)
                     for key, vec in cells.items()}
        for i, p in enumerate(pts):
            np.testing.assert_allclose(got[i], trilinear_oracle(f32_cells, 16, p), atol=1e-12)

    def test_linear_along_axis_between_adjacent_nodes(self):
        grid = SparseVoxelGrid(8, [[2, 4, 4], [3, 4, 4]], [[1.0], [5.0]])
        y = node_position(4, 8)
        ts = np.linspace(0.0, 1.0, 9)
        vals = [
            float(trilinear_interpolate(grid, [[node_position(2 + t, 8), y, y]])[0, 0])
            for t in ts
        ]
        second_diff = np.diff(vals, n=2)
        assert np.abs(second_diff).max() < 1e-12
        assert vals[0] == pytest.approx(1.0) and vals[-1] == pytest.approx(5.0)

    def test_out_of_cube_rejected(self):
        grid = SparseVoxelGrid(8, [[0, 0, 0]], [[1.0]])
        with pytest.raises(GeometryError, match="outside"):
            trilinear_interpolate(grid, [[0.6, 0, 0]])
        # within the 1e-9 tolerance is clamped, not rejected
        trilinear_interpolate(grid, [[0.5 + 5e-10, 0, 0]])

    def test_empty_grid_gives_zeros(self):
        grid = SparseVoxelGrid(8, np.zeros((0, 3)), np.zeros((0, 3)))
        np.testing.assert_array_equal(trilinear_interpolate(grid, [[0.1, 0.2, 0.3]]), [[0, 0, 0]])


# ---------------------------------------------------------------------------
# triplane scatter / gather


class TestTriplane:
    def test_single_point_on_node_round_trips(self):
        p = [[node_position(2, 8), node_position(5, 8), node_position(1, 8)]]
        f = np.array([[3.0, -1.0]])
        stack = triplane_scatter(p, f, resolution=8)
        np.testing.assert_allclose(triplane_gather(stack, p), [[3, -1, 3, -1, 3, -1]], atol=1e-15)

    def test_all_other_nodes_zero_after_single_scatter(self):
        p = [[node_position(2, 8), node_position(5, 8), node_position(1, 8)]]
        stack = triplane_scatter(p, np.array([[7.0]]), resolution=8)
        assert stack.planes[0, 2, 5, 0] == pytest.approx(7.0)
        total = np.abs(stack.planes).sum()
        assert total == pytest.approx(21.0)  # exactly one node per plane

    def test_coincident_points_average(self):
        p = [[node_position(4, 8)] * 3] * 2
        stack = triplane_scatter(p, np.array([[2.0], [4.0]]), resolution=8)
        assert stack.planes[0, 4, 4, 0] == pytest.approx(3.0)

    def test_empty_scatter(self):
        stack = triplane_scatter(np.zeros((0, 3)), np.zeros((0, 2)), resolution=4)
        assert np.all(stack.planes == 0) and np.all(stack.weights == 0)

    def test_gather_from_zero_stack(self):
        stack = triplane_scatter(np.zeros((0, 3)), np.zeros((0, 2)), resolution=4)
        np.testing.assert_array_equal(triplane_gather(stack, [[0.1, 0.1, 0.1]]), [[0] * 6])

    def test_plane_edge_midpoint(self):
        pa = [node_position(2, 8), node_position(3, 8), node_position(6, 8)]
        pb = [node_position(3, 8), node_position(3, 8), node_position(6, 8)]
        stack = triplane_scatter([pa, pb], np.array([[2.0], [6.0]]), resolution=8)
        mid = [node_position(2.5, 8), node_position(3, 8), node_position(6, 8)]
        gathered = triplane_gather(stack, [mid])
        # XY plane: midway in u between the two adjacent set nodes -> (2+6)/2
        assert gathered[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_scatter_gather_identity_on_node_lattice(self):
        rng = np.random.default_rng(9)
        idx = rng.choice(16, size=(20, 3))
        # distinct per-plane projections so no plane collisions occur
        idx = np.unique(idx, axis=0)
        keep = []
        for proj in ((0, 1), (1, 2), (2, 0)):
            _, first = np.unique(idx[:, proj], axis=0, return_index=True)
            keep.append(set(first.tolist()))
        rows = sorted(set.intersection(*keep))
        idx = idx[rows]
        pts = (idx + 0.5) / 16 - 0.5
        feats = rng.normal(size=(len(idx), 5))
        stack = triplane_scatter(pts, feats, resolution=16)
        got = triplane_gather(stack, pts)
        np.testing.assert_allclose(got, np.tile(feats, (1, 3)), atol=1e-12)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            triplane_scatter(np.zeros((2, 3)), np.zeros((3, 2)), resolution=4)


# ---------------------------------------------------------------------------
# byte-exact kernel outputs: the corner order and the weight products fix the
# float results, so any reordering shows up here even when the oracles agree


def _kernel_points(rng, resolutions):
    """Interior points, points on each cube face, points exactly on the nodes of
    every resolution, and the eight cube corners."""
    interior = rng.random((400, 3)) - 0.5
    faces = rng.random((120, 3)) - 0.5
    rows = np.arange(120)
    faces[rows, rows % 3] = np.where(rows % 2, 0.5, -0.5)
    nodes = [node_position(np.floor(rng.random((40, 3)) * r), r) for r in resolutions]
    corners = np.array(list(itertools.product((-0.5, 0.5), repeat=3)))
    return np.concatenate([interior, faces, *nodes, corners])


def _kernel_outputs():
    """name -> float64 output of every feature kernel on fixed-seed finite inputs."""
    rng = np.random.default_rng(2024)
    out = {}
    for r in (1, 2, 64):
        keys = np.unique(np.floor(rng.random(min(3000, r**3)) * r**3).astype(np.int64))
        ijk = np.stack([keys // (r * r), keys // r % r, keys % r], axis=1)
        feats = (rng.random((len(keys), 4)) * 2.0 - 1.0).astype(np.float32)
        grid = SparseVoxelGrid(r, ijk, feats)
        out[f"trilinear-R{r}"] = trilinear_interpolate(grid, _kernel_points(rng, (r,)))
    for r in (1, 2, 128):
        pts = _kernel_points(rng, (r,))
        stack = triplane_scatter(pts, rng.random((len(pts), 5)) - 0.5, resolution=r)
        out[f"scatter-planes-R{r}"] = stack.planes
        out[f"scatter-weights-R{r}"] = stack.weights
        out[f"gather-R{r}"] = triplane_gather(stack, _kernel_points(rng, (r,)))
    return out


# computed with the per-kernel corner loops that `_corners` replaced; the shared
# kernel must reproduce their bytes
KERNEL_SHA256 = {
    "trilinear-R1": "6171256255e2b94e4bb28aa6e38bd451ffd383ac31c05a9ca08cda49292eb233",
    "trilinear-R2": "e055e2a321242be567c80aaf8454e3607940d80b2de40caa0e896a3869340fd8",
    "trilinear-R64": "6d8ef77f6c56d4eb6ef20e7ee63c0539b54c6a400bd81f1efad28f0f4975a6fa",
    "scatter-planes-R1": "0cd8077f3530f358904754366173e11aca6a4eb6cdd1668122c6d27ce1d2de49",
    "scatter-planes-R2": "36b805e7c53c1caa8f334a03ae487b794afcf0fee95299016735ca6abeae66f1",
    "scatter-planes-R128": "0fc9cab25be9fcf190a0c039b4b73f22826e556c6618331d9db0ecfeb5a0b085",
    "scatter-weights-R1": "0f7879a944983e7a08c8c204d119f8ef70fb7ef85415f07b77ab729adfa4277d",
    "scatter-weights-R2": "2f871af2d520c23a9130c0651148772f18be2939a7a291f21bb08752d946b9bf",
    "scatter-weights-R128": "c1bf00a80f137c5c4af9c72465708d2ef5d4b8dd4e4ae295aae0955aa7a5889e",
    "gather-R1": "2753b0a408e2ae3701e0113cf7850ad9009dea8e74686b8ca080ad140bbc2a8e",
    "gather-R2": "9d45dadfa847c2af29f535f05ce0b817bac76a308a049c19bf9375c1b032a7f7",
    "gather-R128": "2e7488e0f1a410131dd02c43a4e165b55736073a4db272e62551fdc2aa69156b",
}


class TestKernelDigests:
    @pytest.fixture(scope="class")
    def outputs(self):
        return _kernel_outputs()

    @pytest.mark.parametrize("name", sorted(KERNEL_SHA256))
    def test_output_bytes(self, outputs, name):
        arr = outputs[name]
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
        assert np.isfinite(arr).all()
        assert hashlib.sha256(arr.tobytes()).hexdigest() == KERNEL_SHA256[name]


def _both_grid_kernels(rng, n):
    """A call running trilinear and gather on ``n`` fixed-seed points."""
    keys = np.unique(np.floor(rng.random(200) * 8**3).astype(np.int64))
    ijk = np.stack([keys // 64, keys // 8 % 8, keys % 8], axis=1)
    grid = SparseVoxelGrid(8, ijk, rng.random((len(keys), 3)).astype(np.float32))
    stack = triplane_scatter(rng.random((300, 3)) - 0.5, rng.random((300, 2)) - 0.5, 16)
    pts = _kernel_points(rng, (8, 16))[:n]
    return lambda: [trilinear_interpolate(grid, pts), triplane_gather(stack, pts)]


def _same_bytes(got, want):
    return all(g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestGridKernelsSplitByRows:
    @pytest.mark.parametrize("n, budget", [(7, 3), (1, 2), (0, 2), (500, 2), (500, 4)])
    def test_split_gives_the_serial_bytes(self, monkeypatch, n, budget):
        """Uneven, one-point and empty splits: each point is blended on its own."""
        run = _both_grid_kernels(np.random.default_rng(33), n)
        monkeypatch.setattr(artikit, "_thread_budget", lambda: 1)
        serial = run()
        parts = []  # calls handed to each fan-out
        fan_out = artikit._fan_out

        def recording(calls):
            parts.append(len(calls))
            return fan_out(calls)

        monkeypatch.setattr(artikit, "_fan_out", recording)
        monkeypatch.setattr(artikit, "_thread_budget", lambda: budget)
        split = run()
        assert parts == [min(n, budget)] * 2
        assert _same_bytes(split, serial)

    def test_more_threads_than_cores_switching_fast(self, monkeypatch):
        """Seven threads write their rows of one output while the interpreter
        switches between them every microsecond."""
        run = _both_grid_kernels(np.random.default_rng(34), 608)
        monkeypatch.setattr(artikit, "_thread_budget", lambda: 1)
        serial = run()
        monkeypatch.setattr(artikit, "_thread_budget", lambda: 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = [run() for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert all(_same_bytes(got, serial) for got in split)


def _grid_of(rng, resolution, n_cells, dim=3):
    """A grid of up to ``n_cells`` distinct random cells with float32 features."""
    keys = np.unique(np.floor(rng.random(n_cells) * resolution**3).astype(np.int64))
    ijk = np.stack([keys // resolution**2, keys // resolution % resolution,
                    keys % resolution], axis=1)
    return SparseVoxelGrid(resolution, ijk, rng.standard_normal((len(keys), dim)))


class TestOrderInvariance:
    """Each point is blended on its own: permuting the points permutes the
    output rows, bit for bit, whatever the visit order and thread count."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(resolution=st.integers(1, 70), n_cells=st.integers(0, 200),
           seed=st.integers(0, 2**32 - 1), budget=st.sampled_from([1, 3]))
    def test_permuting_points_permutes_rows(self, resolution, n_cells, seed, budget):
        rng = np.random.default_rng(seed)
        grid = _grid_of(rng, resolution, n_cells)
        pts = _kernel_points(rng, (resolution,))
        stack = triplane_scatter(rng.random((50, 3)) - 0.5, rng.random((50, 2)) - 0.5,
                                 resolution)
        perm = rng.permutation(len(pts))
        with mock.patch.object(artikit, "_thread_budget", lambda: budget):
            for kernel, source in ((trilinear_interpolate, grid), (triplane_gather, stack)):
                got, want = kernel(source, pts[perm]), kernel(source, pts)[perm]
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("budget", [1, 3])
    def test_blocks_give_the_bytes_of_one_point_at_a_time(self, monkeypatch, budget):
        """Far more points than one block holds, against small separate calls."""
        rng = np.random.default_rng(35)
        grid = _grid_of(rng, 16, 1500)
        stack = triplane_scatter(rng.random((300, 3)) - 0.5, rng.random((300, 2)) - 0.5, 16)
        pts = rng.random((2 * geometry._BLOCK_ROWS + 7, 3)) - 0.5
        monkeypatch.setattr(artikit, "_thread_budget", lambda: budget)
        for kernel, source in ((trilinear_interpolate, grid), (triplane_gather, stack)):
            pieces = [kernel(source, pts[lo : lo + 999]) for lo in range(0, len(pts), 999)]
            assert kernel(source, pts).tobytes() == np.concatenate(pieces).tobytes()


class TestFanOut:
    def test_results_come_back_in_call_order(self, monkeypatch):
        monkeypatch.setattr(artikit, "_thread_budget", lambda: 3)
        ran_on = {}

        def call(i):
            ran_on[i] = threading.get_ident()
            return i * i

        assert artikit._fan_out([lambda i=i: call(i) for i in range(5)]) == [0, 1, 4, 9, 16]
        assert ran_on[0] == threading.get_ident()
        assert set(ran_on.values()) - {threading.get_ident()}

    def test_an_error_in_a_helper_call_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(artikit, "_thread_budget", lambda: 2)
        callers = []

        def fail(message):
            callers.append(threading.get_ident())
            raise GeometryError(message)

        with pytest.raises(GeometryError, match="first"):
            artikit._fan_out([lambda: 1, lambda: fail("first"), lambda: fail("second")])
        assert callers and threading.get_ident() not in callers

    def test_a_budget_of_one_runs_the_calls_here(self, monkeypatch):
        monkeypatch.setattr(artikit, "_thread_budget", lambda: 1)
        assert artikit._fan_out([threading.get_ident] * 3) == [threading.get_ident()] * 3


# ---------------------------------------------------------------------------
# nearest neighbors and pooling


class TestNearestNeighbor:
    def test_identical_clouds_give_zero(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(50, 3))
        assert nearest_neighbor_distances(pts, pts).max() == 0.0

    def test_documented_example(self):
        d = nearest_neighbor_distances([[0, 0, 0]], [[0.3, 0, 0], [0, 0.4, 0]])
        np.testing.assert_allclose(d, [0.3], atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(100, 3))
        b = rng.normal(size=(80, 3))
        np.testing.assert_allclose(
            nearest_neighbor_distances(a, b), nn_brute_force(a, b), atol=1e-12
        )

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            nearest_neighbor_distances([[0, 0, 0]], np.zeros((0, 3)))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_split_query_equals_serial_on_exact_ties(self, monkeypatch, threads):
        rng = np.random.default_rng(21)
        base = rng.uniform(-0.5, 0.5, size=(400, 3))
        targets = np.concatenate([base, base[::-1], base[:50]])  # every target repeated
        queries = np.concatenate([base, rng.uniform(-0.5, 0.5, size=(5000, 3)), base[::7]])
        monkeypatch.setattr(artikit, "_thread_budget", lambda: 1)
        serial = nearest_neighbors(queries, targets)
        monkeypatch.setattr(artikit, "_thread_budget", lambda: threads)
        split = nearest_neighbors(queries, targets)
        assert split[0].tobytes() == serial[0].tobytes()
        np.testing.assert_array_equal(split[1], serial[1])

    def test_query_workers_are_the_thread_budget(self, monkeypatch):
        seen = []
        build = geometry.cKDTree

        class Spy:
            def __init__(self, points):
                self.tree = build(points)

            def query(self, *args, **kwargs):
                seen.append(kwargs.get("workers"))
                return self.tree.query(*args, **kwargs)

        monkeypatch.setattr(geometry, "cKDTree", Spy)
        nearest_neighbors([[0.0, 0.0, 0.0]], [[0.1, 0.0, 0.0]])
        assert seen == [artikit._thread_budget()]


# ---------------------------------------------------------------------------
# sparse voxel grid construction


class TestSparseVoxelGrid:
    def test_cells_in_two_orders_build_equal_grids(self):
        rng = np.random.default_rng(4)
        flat = rng.choice(16**3, size=300, replace=False)
        ijk = np.stack([flat // 256, flat // 16 % 16, flat % 16], axis=1)
        feats = rng.normal(size=(300, 5))
        order = rng.permutation(300)
        grid = SparseVoxelGrid(16, ijk[order], feats[order])
        assert grid == SparseVoxelGrid(16, ijk, feats)
        assert grid.n_active == 300 and grid.feature_dim == 5

    def test_cell_and_feature_counts_must_agree(self):
        with pytest.raises(ValueError, match="cell/feature count mismatch: 2 vs 1"):
            SparseVoxelGrid(8, [[0, 0, 0], [1, 1, 1]], [[1.0]])

    @pytest.mark.parametrize(
        "resolution, ijk, dim, message",
        [
            (0, [], 1, r"resolution must be in \[1, 65535\]"),
            (8, [(0, 0, 0)], 0, "feature dimension must be positive"),
            (8, [(0, 0, 0), (1, 8, 2), (-1, 0, 0)], 1,
             r"cell \(1, 8, 2\) outside grid of resolution 8"),
            (8, [(3, 1, 4), (1, 5, 2), (3, 1, 4)], 1, "duplicate cell keys"),
        ],
        ids=["resolution", "dim", "outside", "duplicate"],
    )
    def test_rejects_bad_cells(self, resolution, ijk, dim, message):
        ijk = np.array(ijk, dtype=np.int64).reshape(-1, 3)
        with pytest.raises(ValueError, match=message):
            SparseVoxelGrid(resolution, ijk, np.ones((len(ijk), dim)))


class TestFeaturesAt:
    """The cell lookup by flat key ``(i * R + j) * R + k`` that trilinear uses."""

    CELLS = [[1, 2, 3], [0, 0, 1], [3, 4, 4]]  # keys 38, 1 and 99 at R = 5
    FEATURES = np.array([[0.1, -2.5], [1e-3, 3.0], [-0.7, 7.25]], dtype=np.float32)

    @pytest.fixture
    def grid(self):
        return SparseVoxelGrid(5, self.CELLS, self.FEATURES)

    def test_absent_cells_give_positive_zero(self, grid):
        # below the first key, between keys, and past the last key: cells
        # (0, 0, 0), (0, 0, 2), (2, 0, 0), (3, 4, 3) and (4, 4, 4)
        got = grid._at_keys(np.array([0, 2, 50, 98, 124]))
        assert got.shape == (5, 2)
        assert (got == 0.0).all() and not np.signbit(got).any()

    def test_present_cells_are_their_float32_features_upcast(self, grid):
        got = grid._at_keys(np.array([38, 1, 99]))
        assert got.tobytes() == self.FEATURES.astype(np.float64).tobytes()
        assert got[0, 0] != 0.1  # the float32 value, not the float64 literal

    def test_empty_grid_gives_zeros(self):
        grid = SparseVoxelGrid(3, np.zeros((0, 3)), np.zeros((0, 4)))
        got = grid._at_keys(np.array([0, 26]))  # cells (0, 0, 0) and (2, 2, 2)
        assert got.shape == (2, 4) and got.dtype == np.float64
        assert (got == 0.0).all() and not np.signbit(got).any()


# ---------------------------------------------------------------------------
# interchange formats


class TestFormats:
    def test_grid_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        cells = {
            (int(i), int(j), int(k)): rng.normal(size=6).astype(np.float32)
            for i, j, k in rng.integers(0, 64, size=(200, 3))
        }
        grid = SparseVoxelGrid(64, list(cells), list(cells.values()))
        path = tmp_path / "grid.bin"
        save_grid(grid, path)
        assert load_grid(path) == grid

    def test_grid_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTAVOXELGRIDFIL" + b"\x00" * 32)
        with pytest.raises(ParseError, match="magic"):
            load_grid(path)

    def test_grid_truncated(self, tmp_path):
        grid = SparseVoxelGrid(8, [[1, 2, 3]], [[1.0, 2.0]])
        path = tmp_path / "g.bin"
        save_grid(grid, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError, match="truncated"):
            load_grid(path)

    @pytest.mark.parametrize("n_active, tail", [(1, b""), (2, b"\x00" * 3)],
                             ids=["count-too-small", "trailing-bytes"])
    def test_grid_size_must_match_header(self, tmp_path, n_active, tail):
        grid = SparseVoxelGrid(8, [[1, 2, 3], [4, 5, 6]], [[1.0], [2.0]])
        path = tmp_path / "g.bin"
        save_grid(grid, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:24] + struct.pack("<Q", n_active) + blob[32:] + tail)
        with pytest.raises(ParseError, match="truncated or overlong"):
            load_grid(path)

    def test_grid_repeated_cell_rejected(self, tmp_path):
        grid = SparseVoxelGrid(8, [[1, 2, 3], [4, 5, 6]], [[1.0], [2.0]])
        path = tmp_path / "g.bin"
        save_grid(grid, path)
        blob = bytearray(path.read_bytes())
        header = len(blob) - 2 * 10  # two records of 3 x u16 + 1 x f32
        blob[header + 10 : header + 16] = blob[header : header + 6]
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="duplicate cell keys"):
            load_grid(path)

    @pytest.mark.parametrize("sizes, message", [
        ((0, 2**32), r"dim must be in \[0, 4294967295\]"),
        ((2**70, 0), "M must be integers"),
    ], ids=["huge-dim", "huge-M"])
    def test_features_sidecar_huge_size_with_empty_payload(self, tmp_path, sizes, message):
        # the payload holds 4 * M * dim = 0 bytes, but no array has such a side
        path = tmp_path / "h.f32"
        path.write_bytes(b"")
        (tmp_path / "h.f32.json").write_text(json.dumps({"M": sizes[0], "dim": sizes[1]}))
        with pytest.raises(ParseError, match=message):
            load_features(path)

    def test_features_missing_sidecar_names_it(self, tmp_path):
        path = tmp_path / "h.f32"
        path.write_bytes(bytes(8))
        with pytest.raises(ParseError, match=r"h\.f32\.json: file not found"):
            load_features(path)

    def test_features_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(40, 6)).astype(np.float32).astype(np.float64)
        path = tmp_path / "h.f32"
        save_features(feats, path)
        np.testing.assert_array_equal(load_features(path), feats)
        assert (tmp_path / "h.f32.json").exists()

    def test_features_sidecar_mismatch(self, tmp_path):
        path = tmp_path / "h.f32"
        save_features(np.zeros((2, 3)), path)
        (tmp_path / "h.f32.json").write_text('{"M": 5, "dim": 3}')
        with pytest.raises(ParseError, match="bytes"):
            load_features(path)

    def test_features_sidecar_negative_sizes(self, tmp_path):
        # 4 * (-2) * (-2) = 16 bytes would match the payload size
        path = tmp_path / "h.f32"
        path.write_bytes(bytes(16))
        (tmp_path / "h.f32.json").write_text('{"M": -2, "dim": -2}')
        with pytest.raises(ParseError, match=r"M must be in \[0, 4294967295\]"):
            load_features(path)
