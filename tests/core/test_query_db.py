"""Tests for CHLM queries (the scalar oracle climb)."""

import numpy as np
import pytest

from repro.core import full_assignment
from repro.geometry import disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges
from repro.sim import BfsHops

from .descent_oracle import resolve


@pytest.fixture(scope="module")
def net():
    density = 0.02
    n = 250
    region = disc_for_density(n, density)
    rng = np.random.default_rng(2)
    pts = region.sample(n, rng)
    edges = unit_disk_edges(pts, radius_for_degree(9.0, density))
    h = build_hierarchy(np.arange(n), edges)
    assert h.num_levels >= 2
    g = CompactGraph(np.arange(n), edges)
    return h, g, full_assignment(h)


class TestResolve:
    def test_self_query(self, net):
        h, g, a = net
        hops = BfsHops(g)
        res = resolve(h, a, 5, 5, hops)
        assert res.hit_level == 0
        assert res.packets == 0
        assert res.address == h.address(5)

    def test_random_pairs_resolve(self, net):
        h, g, a = net
        hops = BfsHops(g)
        rng = np.random.default_rng(3)
        resolved = 0
        for _ in range(40):
            s, d = (int(x) for x in rng.integers(0, 250, size=2))
            if hops(s, d) < 0:
                continue  # different components: legitimately unresolvable
            res = resolve(h, a, s, d, hops)
            assert res.hit_level >= 0, (s, d)
            assert res.address == h.address(d)
            resolved += 1
        assert resolved > 20

    def test_hit_level_is_lowest_common(self, net):
        h, g, a = net
        hops = BfsHops(g)
        rng = np.random.default_rng(4)
        for _ in range(20):
            s, d = (int(x) for x in rng.integers(0, 250, size=2))
            if s == d or hops(s, d) < 0:
                continue
            res = resolve(h, a, s, d, hops)
            if res.hit_level <= 1:
                assert h.cluster_of(s, max(res.hit_level, 1)) == h.cluster_of(
                    d, max(res.hit_level, 1)
                )
            else:
                m = res.hit_level
                assert h.cluster_of(s, m) == h.cluster_of(d, m)
                assert h.cluster_of(s, m - 1) != h.cluster_of(d, m - 1)

    def test_query_cost_scales_with_distance(self, net):
        """Probe cost should be bounded and related to the s-d distance
        scale (the paper: absorbed in the session)."""
        h, g, a = net
        hops = BfsHops(g)
        rng = np.random.default_rng(5)
        ratios = []
        for _ in range(40):
            s, d = (int(x) for x in rng.integers(0, 250, size=2))
            dist = hops(s, d)
            if s == d or dist <= 0:
                continue
            res = resolve(h, a, s, d, hops)
            if res.hit_level >= 2:
                ratios.append(res.packets / dist)
        assert ratios
        assert np.median(ratios) < 12.0
