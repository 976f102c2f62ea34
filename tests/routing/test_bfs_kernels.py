"""Equivalence suite for the batched CSR BFS kernels.

The vectorized forwarding fabric is only admissible because it is
*bit-identical* to the deque-BFS reference (``fabric_oracle.py``): same
next-hop arrays, same ``ForwardingTable`` contents, same ``forward()``
paths.  These tests pin
that equivalence over randomized topologies (including disconnected
ones), hierarchy depths, confinement masks, scoped early stops, and the
disconnected-parent fallback path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.lca import Election
from repro.geometry import DiscRegion, disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import build_hierarchy
from repro.hierarchy.levels import ClusteredHierarchy, LevelTopology
from repro.radio import radius_for_degree, unit_disk_edges
from repro.routing import ForwardingFabric, forwarding
from repro.routing.bfs_kernels import labeled_next_hop, single_next_hop

from .fabric_oracle import ReferenceFabric, deque_next_hop

DENSITY = 0.02


def random_graph(n, seed, degree=9.0):
    r_tx = radius_for_degree(degree, DENSITY)
    rng = np.random.default_rng(seed)
    pts = disc_for_density(n, DENSITY).sample(n, rng)
    edges = unit_disk_edges(pts, r_tx)
    return CompactGraph(np.arange(n), edges), pts, r_tx, rng


def make_stack(n, seed, L=3, degree=9.0):
    r_tx = radius_for_degree(degree, DENSITY)
    rng = np.random.default_rng(seed)
    pts = disc_for_density(n, DENSITY).sample(n, rng)
    edges = unit_disk_edges(pts, r_tx)
    g = CompactGraph(np.arange(n), edges)
    h = build_hierarchy(np.arange(n), edges, max_levels=L,
                        level_mode="radio", positions=pts, r0=r_tx)
    return g, h


class TestKernelVsOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("degree", [3.0, 9.0])
    def test_single_flood_matches_deque(self, seed, degree):
        # degree 3 is subcritical: disconnected components exercised.
        g, _, _, rng = random_graph(90, seed, degree)
        targets = np.sort(rng.choice(90, size=3, replace=False))
        nh_ref, d_ref = deque_next_hop(g, targets)
        nh_vec, d_vec = single_next_hop(g, targets)
        assert np.array_equal(nh_ref, nh_vec)
        assert np.array_equal(d_ref, d_vec)

    @pytest.mark.parametrize("seed", range(4))
    def test_masked_flood_matches_deque(self, seed):
        g, _, _, rng = random_graph(90, seed)
        mask = rng.random(90) < 0.5
        targets = np.sort(rng.choice(90, size=2, replace=False))
        nh_ref, d_ref = deque_next_hop(g, targets, restrict_mask=mask)
        nh_vec, d_vec = single_next_hop(g, targets, restrict_mask=mask)
        assert np.array_equal(nh_ref, nh_vec)
        assert np.array_equal(d_ref, d_vec)

    @pytest.mark.parametrize("seed", range(3))
    def test_labeled_flood_matches_per_label_deque(self, seed):
        g, _, _, rng = random_graph(80, seed)
        # Several labels with multi-source target sets and per-label masks.
        n_labels = 5
        sources, labels, masks = [], [], []
        for j in range(n_labels):
            srcs = rng.choice(80, size=int(rng.integers(1, 4)), replace=False)
            sources.append(np.sort(srcs))
            labels.append(np.full(srcs.size, j, dtype=np.int64))
            masks.append(rng.random(80) < 0.7)
        nh, dist = labeled_next_hop(
            g, np.concatenate(sources), np.concatenate(labels), n_labels,
            restrict_mask=np.array(masks))
        for j in range(n_labels):
            nh_ref, d_ref = deque_next_hop(
                g, g.node_ids[sources[j]], restrict_mask=masks[j])
            assert np.array_equal(nh[j], nh_ref), j
            assert np.array_equal(dist[j], d_ref), j

    def test_scoped_early_stop_valid_at_needed_columns(self):
        g, _, _, rng = random_graph(120, 7)
        n_labels = 4
        sources = rng.choice(120, size=n_labels, replace=False).astype(np.int64)
        labels = np.arange(n_labels, dtype=np.int64)
        needed = np.zeros(n_labels * 120, dtype=bool)
        needed_cols = []
        for j in range(n_labels):
            cols = rng.choice(120, size=6, replace=False)
            needed_cols.append(cols)
            needed[j * 120 + cols] = True
        nh, dist = labeled_next_hop(g, sources, labels, n_labels, needed=needed)
        for j in range(n_labels):
            nh_ref, d_ref = deque_next_hop(g, g.node_ids[sources[j : j + 1]])
            cols = needed_cols[j]
            assert np.array_equal(nh[j][cols], nh_ref[cols]), j
            assert np.array_equal(dist[j][cols], d_ref[cols]), j
            # Everything the scoped flood skipped lies strictly beyond
            # the farthest needed node (the safety-rule invariant).
            if (dist[j] >= 0).any() and (d_ref[dist[j] < 0] >= 0).any():
                assert d_ref[dist[j] < 0][d_ref[dist[j] < 0] >= 0].min() \
                    > d_ref[cols][d_ref[cols] >= 0].max()

    def test_empty_sources(self):
        g, _, _, _ = random_graph(30, 0)
        nh, dist = labeled_next_hop(
            g, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 2)
        assert nh.shape == (2, 30) and (nh == -1).all() and (dist == -1).all()


class TestFabricEquivalence:
    @pytest.mark.parametrize("n,L,seed", [(80, 1, 0), (80, 3, 1), (150, 2, 2),
                                          (150, 4, 3)])
    def test_tables_sizes_paths_match_reference(self, n, L, seed):
        g, h = make_stack(n, seed, L=L)
        ref = ReferenceFabric(h, g)
        vec = ForwardingFabric(h, g)
        assert np.array_equal(ref.table_sizes(), vec.table_sizes())
        for v in range(n):
            tr, tv = ref.table(v), vec.table(v)
            assert tr.intra == tv.intra, v
            assert tr.clusters == tv.clusters, v
        rng = np.random.default_rng(seed + 100)
        for _ in range(40):
            s, d = (int(x) for x in rng.integers(0, n, size=2))
            rr, rv = ref.forward(s, d), vec.forward(s, d)
            assert rr.delivered == rv.delivered and rr.path == rv.path, (s, d)

    def test_sparse_disconnected_deployment(self):
        # Subcritical degree: disconnected parent subgraphs abound, so
        # the sibling-route fallback path is exercised heavily.
        g, h = make_stack(120, 5, L=3, degree=4.0)
        ref = ReferenceFabric(h, g)
        vec = ForwardingFabric(h, g)
        assert np.array_equal(ref.table_sizes(), vec.table_sizes())
        for v in range(120):
            assert ref.table(v).clusters == vec.table(v).clusters, v

    def test_handbuilt_disconnected_parent_fallback(self):
        """Deterministic fallback: two sibling clusters that share a
        parent but have no intra-parent connecting path, so carrier
        routes must come from the unrestricted fallback flood."""
        ids = np.arange(8)
        edges = np.array([[0, 1], [2, 3], [4, 5], [6, 7],
                          [1, 4], [5, 2], [3, 6]])
        e0 = Election(
            node_ids=ids,
            elected_head=np.array([0, 0, 2, 2, 4, 4, 6, 6]),
            member_of=np.array([0, 0, 2, 2, 4, 4, 6, 6]),
            elector_count=np.zeros(8, dtype=np.int64),
            clusterheads=np.array([0, 2, 4, 6]),
        )
        l1_ids = np.array([0, 2, 4, 6])
        e1 = Election(
            node_ids=l1_ids,
            elected_head=np.array([0, 0, 4, 4]),
            member_of=np.array([0, 0, 4, 4]),
            elector_count=np.zeros(4, dtype=np.int64),
            clusterheads=np.array([0, 4]),
        )
        h = ClusteredHierarchy([
            LevelTopology(k=0, node_ids=ids, edges=edges, election=e0),
            LevelTopology(k=1, node_ids=l1_ids,
                          edges=np.array([[0, 4], [2, 4], [2, 6]]),
                          election=e1),
            LevelTopology(k=2, node_ids=np.array([0, 4]),
                          edges=np.array([[0, 4]]), election=None),
        ])
        g = CompactGraph(ids, edges)
        ref = ReferenceFabric(h, g)
        vec = ForwardingFabric(h, g)
        # Cluster A={0,1} and B={2,3} share parent P={0..3} but are only
        # connected via C={4,5}: confined floods cannot route A toward B.
        for fab in (ref, vec):
            assert fab.table(0).clusters[(1, 2)] == 1
            assert fab.table(1).clusters[(1, 2)] == 4
        assert np.array_equal(ref.table_sizes(), vec.table_sizes())
        for v in ids.tolist():
            assert ref.table(v).intra == vec.table(v).intra
            assert ref.table(v).clusters == vec.table(v).clusters
        for s in ids.tolist():
            for d in ids.tolist():
                rr, rv = ref.forward(s, d), vec.forward(s, d)
                assert rr.delivered and rv.delivered
                assert rr.path == rv.path


class TestLaziness:
    def test_forward_builds_no_tables(self):
        g, h = make_stack(100, 3)
        fab = ForwardingFabric(h, g)
        rng = np.random.default_rng(0)
        for _ in range(10):
            s, d = (int(x) for x in rng.integers(0, 100, size=2))
            fab.forward(s, d)
        assert fab._tables == {}  # delivery never materializes a table

    def test_table_builds_only_touched_records(self):
        g, h = make_stack(100, 3)
        fab = ForwardingFabric(h, g)
        fab.table(0)
        # One intra record, at most one sib record per intermediate
        # level, one top record — not the whole fabric.
        assert 0 < len(fab._records) <= 1 + h.num_levels
        before = len(fab._records)
        fab.table(0)  # memoized: no new records
        assert len(fab._records) == before

    def test_l0_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(forwarding, "L0_CACHE_ENTRIES", 8)
        g, h = make_stack(100, 3)
        fab = ForwardingFabric(h, g)
        rng = np.random.default_rng(1)
        for d in rng.integers(0, 100, size=50).tolist():
            fab.forward(0, int(d))
        assert len(fab._l0_cache) <= 8

    def test_nh_cache_bounded_under_mixed_level_stream(self, monkeypatch):
        # Regression: cluster-level (k >= 1) floods used to accumulate
        # without bound — only level 0 had the LRU.  A long message
        # stream crossing clusters at every level must stay inside both
        # budgets.
        monkeypatch.setattr(forwarding, "L0_CACHE_ENTRIES", 8)
        monkeypatch.setattr(forwarding, "NH_CACHE_ENTRIES", 4)
        g, h = make_stack(120, 3)
        fab = ForwardingFabric(h, g)
        rng = np.random.default_rng(3)
        for s, d in rng.integers(0, 120, size=(300, 2)).tolist():
            fab.forward(int(s), int(d))
        assert 0 < len(fab._nh_cache) <= 4
        assert len(fab._l0_cache) <= 8

    def test_nh_cache_eviction_does_not_change_delivery(self, monkeypatch):
        # LRU eviction is a cost, never a behavior change: a tightly
        # bounded fabric must forward exactly like a loosely bounded one.
        g, h = make_stack(100, 3)
        pairs = np.random.default_rng(4).integers(0, 100, size=(60, 2)).tolist()

        def run():
            fab = ForwardingFabric(h, g)
            return ([fab.forward(int(s), int(d)) for s, d in pairs],
                    fab.table_sizes())

        loose_paths, loose_sizes = run()
        monkeypatch.setattr(forwarding, "L0_CACHE_ENTRIES", 2)
        monkeypatch.setattr(forwarding, "NH_CACHE_ENTRIES", 1)
        tight_paths, tight_sizes = run()
        assert tight_paths == loose_paths
        assert np.array_equal(loose_sizes, tight_sizes)

    def test_unknown_node_raises(self):
        g, h = make_stack(50, 0)
        fab = ForwardingFabric(h, g)
        with pytest.raises(KeyError):
            fab.table(50)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_fabric_equivalence_property(seed):
    """Random deployments: vectorized == reference on tables and paths."""
    rng = np.random.default_rng(seed)
    n = 70
    r_tx = radius_for_degree(9.0, DENSITY)
    pts = DiscRegion(34.0).sample(n, rng)
    edges = unit_disk_edges(pts, r_tx)
    g = CompactGraph(np.arange(n), edges)
    h = build_hierarchy(np.arange(n), edges, max_levels=3,
                        level_mode="radio", positions=pts, r0=r_tx)
    ref = ReferenceFabric(h, g)
    vec = ForwardingFabric(h, g)
    assert np.array_equal(ref.table_sizes(), vec.table_sizes())
    for v in rng.integers(0, n, size=10).tolist():
        assert ref.table(int(v)).intra == vec.table(int(v)).intra
        assert ref.table(int(v)).clusters == vec.table(int(v)).clusters
    for _ in range(15):
        s, d = (int(x) for x in rng.integers(0, n, size=2))
        rr, rv = ref.forward(s, d), vec.forward(s, d)
        assert rr.delivered == rv.delivered and rr.path == rv.path
