"""Tests for unit-disk graph construction and edge encoding."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import DiscRegion
from repro.radio import encode_edges, unit_disk_edges

from .edge_keys import decode_edges


class TestUnitDiskEdges:
    def test_simple_chain(self):
        pts = [[0, 0], [1, 0], [2, 0], [10, 0]]
        e = unit_disk_edges(pts, 1.5)
        assert e.tolist() == [[0, 1], [1, 2]]

    def test_canonical_form(self):
        rng = np.random.default_rng(0)
        pts = rng.random((50, 2)) * 10
        e = unit_disk_edges(pts, 2.0)
        assert (e[:, 0] < e[:, 1]).all()
        keys = e[:, 0] * 50 + e[:, 1]
        assert (np.diff(keys) > 0).all()  # strictly sorted, no duplicates

    def test_empty_cases(self):
        assert unit_disk_edges(np.empty((0, 2)), 1.0).shape == (0, 2)
        assert unit_disk_edges([[0.0, 0.0]], 1.0).shape == (0, 2)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            unit_disk_edges([[0, 0], [1, 1]], 0.0)

    @pytest.mark.parametrize("r", [float("nan"), np.nan, -1.0, -np.inf])
    def test_nan_or_negative_radius_is_named(self, r):
        """NaN passes ``r <= 0``; it used to return no links at all."""
        with pytest.raises(ValueError,
                           match="radius must be positive, got (nan|-)"):
            unit_disk_edges([[0, 0], [1, 1]], r)

    def test_infinite_radius_links_every_pair(self):
        pts = np.random.default_rng(3).random((25, 2)) * 1e6
        i, j = np.triu_indices(25, k=1)
        e = unit_disk_edges(pts, np.inf)
        assert e.tolist() == np.stack([i, j], axis=1).tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_are_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            unit_disk_edges([[0, 0], [1, bad], [2, 2]], 1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        pts = rng.random((40, 2)) * 5
        r = 1.2
        e = unit_disk_edges(pts, r)
        d = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        expected = {(i, j) for i in range(40) for j in range(i + 1, 40) if d[i, j] <= r}
        assert set(map(tuple, e.tolist())) == expected


def _brute_force_edges(pts, r):
    """O(n^2) oracle: every i < j within ``r``, in lexicographic order,
    on the float64 squared distances the grid and the k-d tree compare."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    i, j = np.triu_indices(len(pts), k=1)
    dx, dy = (pts[i] - pts[j]).T
    keep = dx * dx + dy * dy <= r * r
    return np.stack([i[keep], j[keep]], axis=1).astype(np.int32)


def _clustered(n, seed):
    """A group-mobility snapshot: members packed around a few reference
    points that have moved for a while."""
    from repro.mobility.group import ReferencePointGroup

    model = ReferencePointGroup(n, DiscRegion(60.0), 2.0,
                                np.random.default_rng(seed), n_groups=4,
                                group_radius=8.0)
    for _ in range(5):
        model.step(1.0)
    return model.positions


def _collinear(n, seed):
    """Points on one slanted line, some of them repeated."""
    t = np.random.default_rng(seed).uniform(0, 40, size=n).round(1)
    return np.stack([t, 0.5 * t + 3.0], axis=1)


def _axis_aligned(n, seed):
    """Points on one horizontal line: a tree dimension of zero width."""
    x = np.random.default_rng(seed).uniform(0, 40, size=n)
    return np.stack([x, np.full(n, 7.25)], axis=1)


def _coincident(n, seed):
    """Every point in one place."""
    return np.full((n, 2), 3.5)


class TestBruteForceOracle:
    """``unit_disk_edges`` bins points into cells, pairs each with its
    own and forward neighbour cells and orders the kept pairs by one sort
    of scalar keys; the output must still be the canonical array, byte
    for byte."""

    # Integer grid points and radii: coincident points and pairs at
    # exactly r_tx (3-4-5 triangles) are common, and both the oracle's
    # and the tree's squared distances are exact.
    @settings(max_examples=120, deadline=None)
    @given(
        pts=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)),
            min_size=0, max_size=40),
        r=st.sampled_from([1, 2, 5, 13]),
    )
    def test_matches_brute_force_exactly(self, pts, r):
        pts = np.array(pts, dtype=np.float64).reshape(-1, 2)
        e = unit_disk_edges(pts, float(r))
        expected = _brute_force_edges(pts, float(r))
        assert e.dtype == np.int32 and e.flags["C_CONTIGUOUS"]
        assert e.shape == expected.shape
        assert e.tobytes() == expected.tobytes()

    def test_pair_at_exactly_r_tx_is_linked(self):
        pts = [[0, 0], [3, 4], [6, 8.5]]
        assert unit_disk_edges(pts, 5.0).tolist() == [[0, 1]]

    def test_coincident_points_are_linked(self):
        pts = [[1, 1], [1, 1], [1, 1], [9, 9]]
        assert unit_disk_edges(pts, 0.5).tolist() == [[0, 1], [0, 2], [1, 2]]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_inputs(self, n):
        pts = np.zeros((n, 2))
        e = unit_disk_edges(pts, 1.0)
        assert e.dtype == np.int32
        assert e.tolist() == ([[0, 1]] if n == 2 else [])

    @pytest.mark.parametrize("scale", [1.0, 1.5])
    @pytest.mark.parametrize("points", [_clustered, _collinear,
                                        _axis_aligned, _coincident])
    @pytest.mark.parametrize("seed", range(3))
    def test_degenerate_layouts(self, points, scale, seed):
        """Dense clusters (crowded cells), one line, one coordinate and
        one point (a single cell), at the radio radius and at 1.5 r_tx."""
        pts = points(300, seed)
        r = 2.5 * scale
        e = unit_disk_edges(pts, r)
        expected = _brute_force_edges(pts, r)
        assert e.shape[0] > 0 and e.tobytes() == expected.tobytes()

    def test_integer_grid_boundary_walk(self):
        """A 12 x 12 integer grid with four coincident copies at r = 5:
        pairs at exactly r (axis-aligned and 3-4-5) and at distance 0
        sit on the boundary of the ``<=`` on every step of a walk that
        moves one node by whole units, back onto a coincident spot at
        the end."""
        r = 5.0
        xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        pts = np.vstack([pts, pts[[0, 13, 77, 143]]])
        walk = [(None, (0, 0)), (0, (1, 0)), (0, (1, 0)), (5, (0, 2)),
                (7, (0, -1)), (20, (-1, 0))]
        for node, move in walk:
            if node is not None:
                pts = pts.copy()
                pts[node] += move
            e = unit_disk_edges(pts, r)
            expected = _brute_force_edges(pts, r)
            assert e.dtype == np.int32 and e.flags["C_CONTIGUOUS"]
            assert e.shape == expected.shape
            assert e.tobytes() == expected.tobytes()
            d2 = ((pts[e[:, 0]] - pts[e[:, 1]]) ** 2).sum(axis=1)
            assert (d2 == r * r).any() and (d2 == 0).any()

    def test_query_pairs_returns_i_less_than_j(self):
        """The contract the k-d tree oracle below relies on instead of
        row-sorting each pair; a scipy that breaks it must fail here,
        loudly."""
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(5)
        pts = rng.random((400, 2))
        pairs = cKDTree(pts).query_pairs(0.12, output_type="ndarray")
        assert pairs.shape[0] > 400
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert np.unique(pairs, axis=0).shape == pairs.shape


def _kdtree_edges(pts, r):
    """The k-d tree oracle (the implementation before the cell grid):
    ``cKDTree.query_pairs`` (``i < j``, see the test above), one key
    sort."""
    from scipy.spatial import cKDTree

    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    n = len(pts)
    if n < 2:
        return np.empty((0, 2), dtype=np.int32)
    tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)
    pairs = tree.query_pairs(r, output_type="ndarray").astype(np.int64)
    keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
    return np.stack(np.divmod(keys, n), axis=1).astype(np.int32)


def _uniform(n, seed):
    """The engine's placement: uniform on a disc at unit density."""
    from repro.geometry.region import disc_for_density

    return disc_for_density(n, 1.0).sample(n, np.random.default_rng(seed))


def _integer_grid(n, seed):
    """Integer points: coincident points and pairs at exactly r (3-4-5
    triangles) everywhere."""
    return np.random.default_rng(seed).integers(0, 12, size=(n, 2)).astype(float)


def _exact_pairs(n, seed):
    """Pairs at exactly r = 5 along both axes and the diagonal, from
    every cell boundary the grid could draw."""
    base = np.random.default_rng(seed).integers(-20, 20, size=(n // 4 + 1, 2))
    steps = np.array([[0, 0], [5, 0], [0, 5], [3, 4]])
    return (base[:, None, :] + steps).reshape(-1, 2)[:n].astype(float)


class TestGridAgainstKdTree:
    """The cell grid returns the k-d tree's edge array byte for byte,
    and the O(n^2) oracle's, on every layout the simulator and the
    tests produce."""

    LAYOUTS = [_uniform, _integer_grid, _exact_pairs, _clustered,
               _collinear, _axis_aligned, _coincident]

    @staticmethod
    def _check(pts, r):
        e = unit_disk_edges(pts, r)
        assert e.dtype == np.int32 and e.flags["C_CONTIGUOUS"]
        assert e.shape[1:] == (2,)
        want = _kdtree_edges(pts, r)
        assert e.shape == want.shape and e.tobytes() == want.tobytes()
        if len(pts) <= 400:
            brute = _brute_force_edges(pts, r)
            assert e.shape == brute.shape and e.tobytes() == brute.tobytes()
        return e

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 20, 300])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_layouts(self, layout, n, scale):
        r = {_uniform: 1.7, _integer_grid: 2.0, _exact_pairs: 5.0}.get(
            layout, 2.5) * scale
        self._check(layout(max(n, 4), n)[:n], r)

    def test_level_radii(self):
        """The radio level graphs: head subsets of a uniform snapshot at
        r0 * sqrt(n / |heads|), down to a handful of heads."""
        from repro.radio import radius_for_degree

        n = 2000
        pts = _uniform(n, 7)
        r0 = radius_for_degree(9.0, 1.0)
        rng = np.random.default_rng(8)
        for heads in (600, 150, 40, 12, 3, 2):
            at = np.sort(rng.choice(n, size=heads, replace=False))
            self._check(pts[at], r0 * np.sqrt(n / heads))

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_candidate_passes(self, monkeypatch, chunk):
        """Passes smaller than one point's candidates, and passes that
        end anywhere inside a point's runs, change nothing."""
        import repro.radio.unit_disk as ud

        monkeypatch.setattr(ud, "PAIR_CHUNK", chunk)
        for layout in (_uniform, _coincident, _integer_grid):
            self._check(layout(150, 2), 2.0)

    def test_many_passes_at_scale(self):
        pts = _uniform(20_000, 9)
        e = self._check(pts, 1.5 * 1.7)
        assert e.shape[0] > 10 * (1 << 14)  # more than ten default passes

    @pytest.mark.parametrize("r", [1e-12, 1e6, 1e300])
    def test_extreme_radii(self, r):
        """Radii far below the extent (cells widened to keep cell numbers
        in range) and far above it (one cell: all pairs)."""
        pts = _uniform(200, 4) * 1e3
        self._check(pts, r)
        self._check(np.vstack([pts, pts[:5]]), r)  # coincident pairs too

    def test_any_memory_layout(self):
        pts = _uniform(120, 5)
        want = _kdtree_edges(pts, 1.7)
        for view in (np.asfortranarray(pts), np.repeat(pts, 2, axis=0)[::2],
                     pts.tolist()):
            assert unit_disk_edges(view, 1.7).tobytes() == want.tobytes()


class TestGraphView:
    def test_graph_equivalence_with_nx_rgg(self):
        """Cross-check against networkx's random geometric graph."""
        rng = np.random.default_rng(2)
        pts = rng.random((30, 2))
        r = 0.3
        ours = unit_disk_edges(pts, r)
        ref = nx.random_geometric_graph(30, r, pos={i: pts[i] for i in range(30)})
        assert set(map(tuple, ours.tolist())) == {tuple(sorted(e)) for e in ref.edges()}


class TestEdgeEncoding:
    def test_roundtrip(self):
        e = np.array([[0, 1], [2, 7], [3, 4]], dtype=np.int64)
        keys = encode_edges(e, 10)
        assert np.array_equal(decode_edges(keys, 10), e)

    def test_empty_roundtrip(self):
        keys = encode_edges(np.empty((0, 2), dtype=np.int64), 10)
        assert keys.size == 0
        assert decode_edges(keys, 10).shape == (0, 2)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=1000),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, 20))
        if m:
            a = rng.integers(0, n - 1, size=m)
            b = rng.integers(a + 1, n)
            e = np.sort(np.stack([a, b], axis=1), axis=1).astype(np.int64)
        else:
            e = np.empty((0, 2), dtype=np.int64)
        assert np.array_equal(decode_edges(encode_edges(e, n), n), e)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    r=st.floats(min_value=0.05, max_value=2.0),
)
def test_unit_disk_symmetry_property(seed, r):
    """Edge set must equal brute-force thresholding of the distance matrix."""
    rng = np.random.default_rng(seed)
    pts = DiscRegion(1.0).sample(20, rng)
    e = unit_disk_edges(pts, r)
    d = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    brute = {(i, j) for i in range(20) for j in range(i + 1, 20) if d[i, j] <= r}
    assert set(map(tuple, e.tolist())) == brute
