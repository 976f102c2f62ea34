"""Tests for hop-by-hop hierarchical forwarding.

These validate the paper's Section 2.1 claim operationally: the
hierarchical address plus O(log n)-scale per-node state suffice to
deliver packets, loop-free, without any centralized path computation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import DiscRegion, disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges
from repro.routing import ForwardingFabric
from repro.sim import BfsHops


DENSITY = 0.02
R_TX = radius_for_degree(9.0, DENSITY)


def make_fabric(n, seed=0):
    region = disc_for_density(n, DENSITY)
    rng = np.random.default_rng(seed)
    pts = region.sample(n, rng)
    edges = unit_disk_edges(pts, R_TX)
    g = CompactGraph(np.arange(n), edges)
    h = build_hierarchy(np.arange(n), edges, max_levels=3,
                        level_mode="radio", positions=pts, r0=R_TX)
    return g, h, ForwardingFabric(h, g)


@pytest.fixture(scope="module")
def fabric200():
    return make_fabric(200, seed=1)


class TestConstruction:
    def test_node_set_mismatch(self):
        g = CompactGraph([1, 2, 3], [[1, 2]])
        h = build_hierarchy([1, 2], [[1, 2]])
        with pytest.raises(ValueError):
            ForwardingFabric(h, g)

    def test_table_sizes_sublinear(self, fabric200):
        g, h, fab = fabric200
        sizes = fab.table_sizes()
        assert sizes.mean() < 200 / 4
        assert (sizes >= 0).all()

    def test_table_structure(self, fabric200):
        g, h, fab = fabric200
        t = fab.table(0)
        assert t.node == 0
        # Intra entries target level-1 cluster peers.
        c1 = h.cluster_of(0, 1)
        peers = set(h.members0(1, c1).tolist()) - {0}
        assert set(t.intra) <= peers
        # Next hops are physical neighbors.
        nbrs = set(g.neighbors(0).tolist())
        for nh in t.intra.values():
            assert nh in nbrs
        for nh in t.clusters.values():
            assert nh in nbrs
        assert t.size == len(t.intra) + len(t.clusters)


class TestResolvedAddresses:
    """A session forwards on an address resolved from a lagged location
    database, which may come from a shallower or deeper hierarchy."""

    def test_stale_address_alignment(self, fabric200):
        """forward() accepts addresses from a shallower/deeper snapshot."""
        _, h, fab = fabric200
        d = 40
        addr = h.address(d)
        # Truncated and extended variants must not crash.
        short = addr[1:]
        long = (addr[0],) + addr
        for variant in (short, long):
            res = fab.forward(0, d, address=tuple(variant))
            assert res.path[0] == 0

    def test_wrong_terminal_rejected(self, fabric200):
        _, _, fab = fabric200
        with pytest.raises(ValueError):
            fab.forward(0, 40, address=(1, 2, 3))


class TestDelivery:
    def test_full_delivery_on_connected_pairs(self, fabric200):
        g, h, fab = fabric200
        flat = BfsHops(g)
        rng = np.random.default_rng(2)
        delivered = 0
        for _ in range(80):
            s, d = (int(x) for x in rng.integers(0, 200, size=2))
            res = fab.forward(s, d)
            if flat(s, d) < 0:
                assert not res.delivered
                continue
            assert res.delivered, (s, d, res.reason)
            delivered += 1
            assert res.path[0] == s and res.path[-1] == d
            for a, b in zip(res.path, res.path[1:]):
                assert b in g.neighbors(a).tolist()
        assert delivered > 50

    def test_no_livelock(self, fabric200):
        """The descent is livelock-free: a relay can be crossed by more
        than one segment (descending can geographically backtrack), but
        never many times — and never twice within the same segment, so
        there is no A-B ping-pong."""
        g, h, fab = fabric200
        flat = BfsHops(g)
        rng = np.random.default_rng(3)
        for _ in range(60):
            s, d = (int(x) for x in rng.integers(0, 200, size=2))
            if flat(s, d) < 0:
                continue
            res = fab.forward(s, d)
            counts = {}
            for x in res.path:
                counts[x] = counts.get(x, 0) + 1
            assert max(counts.values()) <= 3, res.path
            # Immediate ping-pong (A-B-A-B) never occurs.
            for a, b, c, e in zip(res.path, res.path[1:], res.path[2:],
                                  res.path[3:]):
                assert not (a == c and b == e), res.path

    def test_self_delivery(self, fabric200):
        _, _, fab = fabric200
        res = fab.forward(5, 5)
        assert res.delivered and res.path == [5] and res.hops == 0

    def test_stretch_modest(self, fabric200):
        g, h, fab = fabric200
        flat = BfsHops(g)
        rng = np.random.default_rng(4)
        stretches = []
        for _ in range(60):
            s, d = (int(x) for x in rng.integers(0, 200, size=2))
            fp = flat(s, d)
            if fp <= 0:
                continue
            res = fab.forward(s, d)
            stretches.append(res.hops / fp)
        assert np.mean(stretches) < 1.6

    def test_ttl_respected(self, fabric200):
        g, h, fab = fabric200
        flat = BfsHops(g)
        rng = np.random.default_rng(5)
        for _ in range(20):
            s, d = (int(x) for x in rng.integers(0, 200, size=2))
            if flat(s, d) < 2:
                continue
            res = fab.forward(s, d, ttl=1)
            assert not res.delivered
            assert len(res.path) <= 2
            break


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_forwarding_delivery_property(seed):
    """On random deployments, every flat-reachable pair is delivered,
    loop-free."""
    rng = np.random.default_rng(seed)
    n = 80
    pts = DiscRegion(35.0).sample(n, rng)
    edges = unit_disk_edges(pts, R_TX)
    g = CompactGraph(np.arange(n), edges)
    h = build_hierarchy(np.arange(n), edges, max_levels=3,
                        level_mode="radio", positions=pts, r0=R_TX)
    fab = ForwardingFabric(h, g)
    flat = BfsHops(g)
    for _ in range(15):
        s, d = (int(x) for x in rng.integers(0, n, size=2))
        res = fab.forward(s, d)
        if flat(s, d) < 0:
            assert not res.delivered
        else:
            assert res.delivered, (seed, s, d, res.reason)
            counts = {}
            for x in res.path:
                counts[x] = counts.get(x, 0) + 1
            assert max(counts.values()) <= 3, res.path
