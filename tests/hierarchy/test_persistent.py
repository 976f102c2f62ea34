"""Tests for cluster-identity persistence (EXP-A5 substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import DiscRegion, disc_for_density
from repro.hierarchy import HierarchyMaintainer, PersistentLevelMaintainer
from repro.radio import radius_for_degree, unit_disk_edges
from tests.core.descent_oracle import server_map

DENSITY = 0.02
R_TX = radius_for_degree(9.0, DENSITY)


def E(pairs):
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


class TestLevelMaintainer:
    def test_formation(self):
        m = PersistentLevelMaintainer(cid_start=1000)
        snap = m.update([1, 2, 3], E([[1, 2], [2, 3]]))
        # Everyone belongs to some cluster; cids in the allocated range.
        assert (snap.member_of >= 1000).all()
        members = sorted(x for ms in snap.clusters().values() for x in ms)
        assert members == [1, 2, 3]

    def test_cid_survives_head_handover(self):
        """THE property: the head leaves the level, the cid persists."""
        m = PersistentLevelMaintainer(cid_start=1000)
        m.update([1, 2, 9], E([[1, 9], [2, 9], [1, 2]]))
        cid_before = m._m2c[1]
        assert m._m2c[2] == cid_before and m._m2c[9] == cid_before
        # Node 9 (whatever role it has) leaves the level entirely.
        m.update([1, 2], E([[1, 2]]))
        assert m._m2c[1] == cid_before
        assert m._m2c[2] == cid_before
        # A member took over the head role.
        assert m._head[cid_before] in (1, 2)

    def test_cluster_death_on_empty(self):
        m = PersistentLevelMaintainer(cid_start=1000)
        m.update([1], np.empty((0, 2), dtype=np.int64))
        cid = m._m2c[1]
        # Node 1 leaves; new node 2 arrives isolated: old cid must die.
        m.update([2], np.empty((0, 2), dtype=np.int64))
        assert cid not in m._head
        assert m._m2c[2] != cid

    def test_member_rehomes_to_senior_cluster(self):
        m = PersistentLevelMaintainer(cid_start=1000)
        # Two separate clusters.
        m.update([1, 5, 2, 9], E([[1, 5], [2, 9]]))
        cid_a = m._m2c[5]
        cid_b = m._m2c[9]
        senior = min(cid_a, cid_b)
        # 1 loses its head, lands next to the other head.
        if m._head[cid_a] == 5:
            snap = m.update([1, 5, 2, 9], E([[2, 9], [1, 9]]))
            assert m._m2c[1] in (cid_b, cid_a)
        # Whatever the topology details, every member has a live cluster.
        for v, c in m._m2c.items():
            assert c in m._head

    def test_merge_retires_younger_cid(self):
        m = PersistentLevelMaintainer(cid_start=1000)
        m.update([5], np.empty((0, 2), dtype=np.int64))
        old_cid = m._m2c[5]
        m.update([5, 9], np.empty((0, 2), dtype=np.int64))
        young_cid = m._m2c[9]
        assert young_cid > old_cid
        # Heads meet: the younger cluster dissolves into the senior one.
        m.update([5, 9], E([[5, 9]]))
        assert m._m2c[9] == old_cid
        assert young_cid not in m._head

    def test_validation(self):
        m = PersistentLevelMaintainer(cid_start=1000)
        with pytest.raises(ValueError):
            m.update([], np.empty((0, 2)))
        with pytest.raises(ValueError):
            m.update([1, 2], E([[1, 1]]))
        with pytest.raises(ValueError):
            m.update([1, 2], E([[1, 7]]))


class TestHierarchyMaintainer:
    def test_requires_r0(self):
        with pytest.raises(ValueError):
            HierarchyMaintainer(10, None, election_mode="persistent")

    def test_node_ids_must_be_below_block(self):
        big = HierarchyMaintainer.CID_BLOCK + 1
        with pytest.raises(ValueError):
            HierarchyMaintainer(big + 1, R_TX, max_levels=2,
                                election_mode="persistent")

    def test_produces_consistent_hierarchy(self):
        n = 120
        region = disc_for_density(n, DENSITY)
        rng = np.random.default_rng(0)
        pts = region.sample(n, rng)
        m = HierarchyMaintainer(n, R_TX, max_levels=3, election_mode="persistent")
        edges = unit_disk_edges(pts, R_TX)
        h = m.update(edges, positions=pts)
        assert h.num_levels >= 1
        # Refinement invariant.
        for k in range(h.num_levels):
            a_k, a_k1 = h.ancestry(k), h.ancestry(k + 1)
            for cid in np.unique(a_k)[:10]:
                assert np.unique(a_k1[a_k == cid]).size == 1
        # Addresses terminate in the node itself.
        assert h.address(7)[-1] == 7

    def test_identity_stability_vs_head_naming(self):
        """Level-1 identities flip far less often than under memoryless
        head naming on the same jittered trajectory."""
        from repro.hierarchy import build_hierarchy

        n = 150
        region = disc_for_density(n, DENSITY)
        rng = np.random.default_rng(1)
        pts = region.sample(n, rng)
        m = HierarchyMaintainer(n, R_TX, max_levels=3, election_mode="persistent")
        flips_persistent = flips_named = 0
        prev_p = prev_n = None
        for _ in range(15):
            pts = region.clamp(pts + rng.normal(scale=0.8, size=pts.shape))
            edges = unit_disk_edges(pts, R_TX)
            hp = m.update(edges, positions=pts)
            hn = build_hierarchy(np.arange(n), edges, max_levels=3,
                                 level_mode="radio", positions=pts, r0=R_TX)
            ids_p = set(np.unique(hp.ancestry(2)).tolist())
            ids_n = set(np.unique(hn.ancestry(2)).tolist())
            if prev_p is not None:
                flips_persistent += len(ids_p ^ prev_p)
                flips_named += len(ids_n ^ prev_n)
            prev_p, prev_n = ids_p, ids_n
        assert flips_persistent < flips_named

    def test_lm_stack_runs_on_persistent_ids(self):
        """full_assignment / handoff work unchanged on cid hierarchies."""
        from repro.core import HandoffEngine, full_assignment, lm_levels

        n = 100
        region = disc_for_density(n, DENSITY)
        rng = np.random.default_rng(2)
        pts = region.sample(n, rng)
        m = HierarchyMaintainer(n, R_TX, max_levels=3, election_mode="persistent")
        engine = HandoffEngine()

        def hop(u, v):
            return 0 if u == v else 1

        for _ in range(4):
            pts = region.clamp(pts + rng.normal(scale=1.0, size=pts.shape))
            edges = unit_disk_edges(pts, R_TX)
            h = m.update(edges, positions=pts)
            a = full_assignment(h)
            # Servers are physical nodes, never cids.
            servers = server_map(a)
            assert all(0 <= srv < n for srv in servers.values())
            assert len(servers) == n * (lm_levels(h) - 1)
            engine.observe(h, hop)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_persistent_partition_property(seed):
    """Across random mobile sequences, the level maintainer keeps a
    valid partition: every id belongs to a live cluster whose head is in
    the id's closed neighborhood."""
    rng = np.random.default_rng(seed)
    region = DiscRegion(30.0)
    pts = region.sample(40, rng)
    m = PersistentLevelMaintainer(cid_start=10_000)
    for _ in range(6):
        pts = region.clamp(pts + rng.normal(scale=2.0, size=pts.shape))
        edges = unit_disk_edges(pts, 12.0)
        snap = m.update(np.arange(40), edges)
        adj = {v: set() for v in range(40)}
        for a, b in edges.tolist():
            adj[a].add(b)
            adj[b].add(a)
        for v in range(40):
            cid = m._m2c[v]
            assert cid in m._head
            h = m._head[cid]
            assert h == v or h in adj[v]
        members = sorted(x for ms in snap.clusters().values() for x in ms)
        assert members == list(range(40))
