"""Tests for cross-step forwarding-fabric reuse.

The cache's contract is absolute: however much flood state it carries
across a step, the resulting fabric must be bit-identical — tables,
sizes, and forward paths — to one built from scratch on the new
snapshot by the deque-BFS oracle (``fabric_oracle.py``).  These tests
drive it with drifting deployments, crafted link events, and
end-to-end sessions on the simulator.
"""

import numpy as np
import pytest

from repro.experiments.e_a9_end_to_end import SessionCollector
from repro.geometry import disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges
from repro.radio.linkevents import LinkTracker
from repro.routing import FabricCache, ForwardingFabric, fabric_cache
from repro.sim import Scenario, Simulator

from .fabric_oracle import ReferenceFabric

DENSITY = 0.02
R_TX = radius_for_degree(9.0, DENSITY)


def snapshot(n, pts, L=3):
    edges = unit_disk_edges(pts, R_TX)
    g = CompactGraph(np.arange(n), edges)
    h = build_hierarchy(np.arange(n), edges, max_levels=L,
                        level_mode="radio", positions=pts, r0=R_TX)
    return h, g, edges


def assert_fabrics_equal(fab, ref, n, seed):
    assert np.array_equal(fab.table_sizes(), ref.table_sizes())
    for v in range(n):
        tr, tv = ref.table(v), fab.table(v)
        assert tr.intra == tv.intra and tr.clusters == tv.clusters, v
    rng = np.random.default_rng(seed)
    for _ in range(30):
        s, d = (int(x) for x in rng.integers(0, n, size=2))
        rr, rv = ref.forward(s, d), fab.forward(s, d)
        assert rr.delivered == rv.delivered and rr.path == rv.path, (s, d)


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("seed,drift", [(0, 0.15), (3, 0.5)])
    def test_drifting_snapshots_match_fresh_reference(self, seed, drift):
        n = 130
        rng = np.random.default_rng(seed)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        tracker = LinkTracker(n)
        cache = FabricCache()
        for step in range(5):
            h, g, edges = snapshot(n, pts)
            fab = cache.update(h, g, tracker.observe(edges))
            ref = ReferenceFabric(h, g)
            assert_fabrics_equal(fab, ref, n, 1000 + step)
            pts = pts + rng.normal(scale=drift, size=pts.shape)
        assert cache.stats.updates == 5
        assert cache.stats.full_rebuilds == 1  # only the baseline step

    def test_low_drift_reuses_flood_rows(self):
        n = 150
        rng = np.random.default_rng(9)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        tracker = LinkTracker(n)
        cache = FabricCache()
        for _ in range(4):
            h, g, edges = snapshot(n, pts)
            cache.update(h, g, tracker.observe(edges)).table_sizes()
            pts = pts + rng.normal(scale=0.1, size=pts.shape)
        assert cache.stats.records_reused > 0
        assert cache.stats.rows_reused > 0

    def test_crafted_single_link_events(self):
        """Remove then restore one specific far link; the cache must
        stay exact through both transitions."""
        n = 120
        rng = np.random.default_rng(4)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        _, _, edges = snapshot(n, pts)
        tracker = LinkTracker(n)
        cache = FabricCache()
        drop = tuple(edges[len(edges) // 2])
        keep = np.array([e for e in edges.tolist() if tuple(e) != drop])
        for step_edges in (edges, keep, edges):
            g = CompactGraph(np.arange(n), step_edges)
            h = build_hierarchy(np.arange(n), step_edges, max_levels=3,
                                level_mode="radio", positions=pts, r0=R_TX)
            diff = tracker.observe(step_edges)
            fab = cache.update(h, g, diff)
            ref = ReferenceFabric(h, g)
            assert_fabrics_equal(fab, ref, n, 7)


class TestRebuildTriggers:
    def make(self, n=100, seed=0):
        rng = np.random.default_rng(seed)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        return pts, snapshot(n, pts)

    def test_first_update_is_full_rebuild(self):
        _, (h, g, edges) = self.make()
        cache = FabricCache()
        cache.update(h, g, LinkTracker(100).observe(edges))
        assert cache.stats.full_rebuilds == 1

    def test_none_diff_forces_rebuild(self):
        _, (h, g, edges) = self.make()
        cache = FabricCache()
        cache.update(h, g, LinkTracker(100).observe(edges))
        cache.update(h, g, None)
        assert cache.stats.full_rebuilds == 2

    def test_depth_change_forces_rebuild(self):
        pts, (h, g, edges) = self.make()
        cache = FabricCache()
        tracker = LinkTracker(100)
        cache.update(h, g, tracker.observe(edges))
        h2 = build_hierarchy(np.arange(100), edges, max_levels=1,
                             level_mode="radio", positions=pts, r0=R_TX)
        fab = cache.update(h2, g, tracker.observe(edges))
        if h.num_levels != h2.num_levels:
            assert cache.stats.full_rebuilds == 2
        ref = ReferenceFabric(h2, g)
        assert_fabrics_equal(fab, ref, 100, 3)

    def test_explicit_invalidate_forces_rebuild(self):
        _, (h, g, edges) = self.make()
        cache = FabricCache()
        tracker = LinkTracker(100)
        cache.update(h, g, tracker.observe(edges))
        cache.invalidate()
        assert cache.stats.explicit_invalidations == 1
        assert cache.fabric is None
        fab = cache.update(h, g, tracker.observe(edges))
        assert cache.stats.full_rebuilds == 2
        assert_fabrics_equal(fab, ReferenceFabric(h, g),
                             100, 5)
        # Invalidating an already-empty cache is a silent no-op.
        FabricCache().invalidate()

    def test_massive_diff_abandons_carry(self, monkeypatch):
        """A partition severing (then healing) the whole deployment at
        once floods the diff with more events than carry is worth; the
        cache must fall back to a full rebuild — and stay exact."""
        n = 100
        rng = np.random.default_rng(2)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        edges = unit_disk_edges(pts, R_TX)
        side = pts[:, 0] > 0
        cut = edges[side[edges[:, 0]] == side[edges[:, 1]]]
        tracker = LinkTracker(n)
        monkeypatch.setattr(fabric_cache, "MASS_INVALIDATE_FRACTION", 0.25)
        cache = FabricCache()
        for step_edges in (edges, cut, edges):
            g = CompactGraph(np.arange(n), step_edges)
            h = build_hierarchy(np.arange(n), step_edges, max_levels=3,
                                level_mode="radio", positions=pts, r0=R_TX)
            fab = cache.update(h, g, tracker.observe(step_edges))
            assert_fabrics_equal(
                fab, ReferenceFabric(h, g), n, 9)
        assert cache.stats.mass_invalidations == 2  # sever + heal
        assert cache.stats.full_rebuilds == 3

    def test_mass_threshold_inf_always_carries(self, monkeypatch):
        n = 100
        rng = np.random.default_rng(2)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        edges = unit_disk_edges(pts, R_TX)
        side = pts[:, 0] > 0
        cut = edges[side[edges[:, 0]] == side[edges[:, 1]]]
        tracker = LinkTracker(n)
        monkeypatch.setattr(fabric_cache, "MASS_INVALIDATE_FRACTION", float("inf"))
        cache = FabricCache()
        for step_edges in (edges, cut, edges):
            g = CompactGraph(np.arange(n), step_edges)
            h = build_hierarchy(np.arange(n), step_edges, max_levels=3,
                                level_mode="radio", positions=pts, r0=R_TX)
            fab = cache.update(h, g, tracker.observe(step_edges))
            assert_fabrics_equal(
                fab, ReferenceFabric(h, g), n, 13)
        assert cache.stats.mass_invalidations == 0
        assert cache.stats.full_rebuilds == 1


class _RebuildEveryStep:
    """Stands in for a FabricCache: a fresh fabric every step."""

    def update(self, h, g, diff=None):
        return ForwardingFabric(h, g)


class TestMessagingIntegration:
    def test_incremental_service_matches_rebuild_service(self):
        """Sessions forwarded on a fabric the engine's own per-step
        ``link_diff`` carries forward must have exactly the outcomes of
        sessions forwarded on a fabric rebuilt from scratch each step."""
        sc = Scenario(n=120, speed=0.5, steps=8, warmup=2, seed=11,
                      max_levels=3, hop_mode="euclidean",
                      hop_sample_every=10_000)
        carried = SessionCollector(per_step=15)
        rebuilt = SessionCollector(per_step=15)
        rebuilt.fabric_cache = _RebuildEveryStep()
        Simulator(sc, collectors=[carried, rebuilt]).run()
        assert len(carried.sessions) > 100
        assert carried.sessions == rebuilt.sessions
        stats = carried.fabric_cache.stats
        assert stats.full_rebuilds == 1 and stats.updates == sc.steps
        # Delivery-only workloads never materialize flood records (lazy
        # tables), but the forward()-path flood caches do carry over.
        assert stats.floods_reused > 0
