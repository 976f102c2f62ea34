"""Tests for unit-disk graph construction and edge encoding."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import DiscRegion
from repro.radio import decode_edges, encode_edges, unit_disk_edges


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
    on the float64 squared distances the k-d tree compares."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    i, j = np.triu_indices(len(pts), k=1)
    dx, dy = (pts[i] - pts[j]).T
    keep = dx * dx + dy * dy <= r * r
    return np.stack([i[keep], j[keep]], axis=1).astype(np.int64)


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
    """``unit_disk_edges`` orders its pairs by one sort of scalar keys
    and trusts ``query_pairs`` for ``i < j``; the output must still be
    the canonical array, byte for byte."""

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
        assert e.dtype == np.int64 and e.flags["C_CONTIGUOUS"]
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
        assert e.dtype == np.int64
        assert e.tolist() == ([[0, 1]] if n == 2 else [])

    @pytest.mark.parametrize("scale", [1.0, 1.5])
    @pytest.mark.parametrize("points", [_clustered, _collinear,
                                        _axis_aligned, _coincident])
    @pytest.mark.parametrize("seed", range(3))
    def test_degenerate_layouts(self, points, scale, seed):
        """The unbalanced tree's sliding-midpoint splits on dense
        clusters, one line, one coordinate and one point, at the radio
        radius and at the Verlet candidate radius 1.5 r_tx."""
        pts = points(300, seed)
        r = 2.5 * scale
        e = unit_disk_edges(pts, r)
        expected = _brute_force_edges(pts, r)
        assert e.shape[0] > 0 and e.tobytes() == expected.tobytes()

    def test_query_pairs_returns_i_less_than_j(self):
        """The contract the key sort relies on instead of row-sorting
        each pair; a scipy that breaks it must fail here, loudly."""
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(5)
        pts = rng.random((400, 2))
        pairs = cKDTree(pts).query_pairs(0.12, output_type="ndarray")
        assert pairs.shape[0] > 400
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert np.unique(pairs, axis=0).shape == pairs.shape


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
