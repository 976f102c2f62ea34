"""Tests for strict hierarchical routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import DiscRegion, disc_for_density
from repro.graphs import CompactGraph, bfs_path
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges
from repro.routing import FlatRouter, HierarchicalRouter


def make_network(n, density=0.02, degree=9.0, seed=0):
    region = disc_for_density(n, density)
    rng = np.random.default_rng(seed)
    pts = region.sample(n, rng)
    edges = unit_disk_edges(pts, radius_for_degree(degree, density))
    g = CompactGraph(np.arange(n), edges)
    h = build_hierarchy(np.arange(n), edges)
    return g, h


class TestSmallNetworks:
    def test_trivial_same_node(self):
        g = CompactGraph([1, 2], [[1, 2]])
        h = build_hierarchy([1, 2], [[1, 2]])
        r = HierarchicalRouter(h, g)
        assert r.path(1, 1) == [1]
        assert r.hop_count(1, 1) == 0

    def test_pair(self):
        g = CompactGraph([1, 2], [[1, 2]])
        h = build_hierarchy([1, 2], [[1, 2]])
        r = HierarchicalRouter(h, g)
        assert r.path(1, 2) == [1, 2]
        assert r.hop_count(1, 2) == 1

    def test_disconnected_returns_none(self):
        edges = [[0, 1], [2, 3]]
        g = CompactGraph(range(4), edges)
        h = build_hierarchy(range(4), edges)
        r = HierarchicalRouter(h, g)
        assert r.path(0, 3) is None
        assert r.hop_count(0, 3) == -1

    def test_node_set_mismatch_raises(self):
        g = CompactGraph([1, 2, 3], [[1, 2]])
        h = build_hierarchy([1, 2], [[1, 2]])
        with pytest.raises(ValueError):
            HierarchicalRouter(h, g)

    def test_common_level(self):
        edges = [[0, 1], [1, 2], [2, 3]]
        g = CompactGraph(range(4), edges)
        h = build_hierarchy(range(4), edges)
        r = HierarchicalRouter(h, g)
        # Same node -> level 0; anything else >= 1.
        assert r.common_level(0, 0) == 0
        assert r.common_level(0, 3) >= 1


class TestRealisticNetworks:
    def test_paths_are_valid_walks(self):
        g, h = make_network(150, seed=1)
        r = HierarchicalRouter(h, g)
        flat = FlatRouter(g)
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(40):
            s, d = rng.integers(0, 150, size=2)
            p = r.path(int(s), int(d))
            if p is None:
                assert flat.hop_count(int(s), int(d)) == -1
                continue
            checked += 1
            assert p[0] == s and p[-1] == d
            for a, b in zip(p, p[1:]):
                assert b in g.neighbors(a).tolist(), f"{a}->{b} not a link"
        assert checked > 20

    def test_intra_cluster_routes_stay_in_the_cluster(self):
        """Strictness: a route between two members of one level-1 cluster
        uses only that cluster's members wherever they connect the pair,
        even when an unrestricted shortest path leaves the cluster."""
        g, h = make_network(150, seed=1)
        r = HierarchicalRouter(h, g)
        anc = h.ancestry(1)
        confined = escapes = 0
        for c in np.unique(anc).tolist():
            members = np.flatnonzero(anc == c).tolist()  # IDs are indices
            for s in members:
                for d in members:
                    if s == d or bfs_path(g, s, d, restrict_idx=anc == c) is None:
                        continue
                    p = r.path(s, d)
                    assert set(p) <= set(members), (s, d, p)
                    confined += 1
                    escapes += not set(bfs_path(g, s, d)) <= set(members)
        assert confined > 100 and escapes > 0
    def test_stretch_bounded(self):
        """Hierarchical routes may be longer than shortest paths but the
        stretch should be modest on average (constant-factor)."""
        g, h = make_network(200, seed=3)
        r = HierarchicalRouter(h, g)
        flat = FlatRouter(g)
        rng = np.random.default_rng(4)
        stretches = []
        for _ in range(60):
            s, d = rng.integers(0, 200, size=2)
            if s == d:
                continue
            hp = r.hop_count(int(s), int(d))
            fp = flat.hop_count(int(s), int(d))
            if fp <= 0:
                continue
            assert hp >= fp  # can't beat the shortest path
            stretches.append(hp / fp)
        # Hierarchical routing pays a constant-factor stretch (large for
        # nearby pairs split across high-level cluster boundaries); the
        # bound here just pins it to a constant, per Kleinrock-Kamoun.
        assert np.mean(stretches) < 3.5
        assert np.median(stretches) < 2.5

    def test_deterministic(self):
        g, h = make_network(120, seed=5)
        r1 = HierarchicalRouter(h, g)
        r2 = HierarchicalRouter(h, g)
        for s, d in [(0, 100), (5, 77), (30, 31)]:
            assert r1.path(s, d) == r2.path(s, d)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_hierarchical_route_validity_property(seed):
    """On random connected-ish graphs every returned route is a real walk
    from s to d, and unreachable pairs match flat routing's verdict."""
    rng = np.random.default_rng(seed)
    n = 60
    pts = DiscRegion(5.0).sample(n, rng)
    edges = unit_disk_edges(pts, 1.6)
    g = CompactGraph(np.arange(n), edges)
    h = build_hierarchy(np.arange(n), edges)
    r = HierarchicalRouter(h, g)
    flat = FlatRouter(g)
    for _ in range(10):
        s, d = rng.integers(0, n, size=2)
        p = r.path(int(s), int(d))
        fp = flat.hop_count(int(s), int(d))
        if p is None:
            assert fp == -1
        else:
            assert p[0] == s and p[-1] == d
            for a, b in zip(p, p[1:]):
                assert b in g.neighbors(a).tolist()
            assert len(p) - 1 >= fp
