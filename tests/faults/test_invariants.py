"""Tests for per-step hierarchy invariant checking."""

import numpy as np
import pytest

from repro.faults import (
    InvariantReport,
    InvariantViolationError,
    check_invariants,
)
from repro.hierarchy import build_hierarchy
from tests.core.descent_oracle import assignment_from_mapping

TRIANGLES = np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])


def two_triangles():
    """Two disconnected triangles {0,1,2} and {3,4,5}; heads 2 and 5."""
    return build_hierarchy(np.arange(6), TRIANGLES, max_levels=2)


def assignment(pairs):
    """One-level ServerAssignment over the six nodes: subject -> server."""
    return assignment_from_mapping(
        {(s, 2): srv for s, srv in pairs}, subjects=np.arange(6))


class TestReport:
    def test_violations_exclude_orphans(self):
        rep = InvariantReport(step=3, head_unreachable=2, broken_chain=1,
                              dead_servers=4, unreachable_servers=5,
                              orphaned=9)
        assert rep.violations == 12
        assert not rep.ok
        assert "12 invariant violation" in rep.describe()
        assert InvariantReport(step=0, orphaned=3).ok

    def test_strict_mode_raises_with_description(self):
        h = two_triangles()
        alive = np.ones(6, dtype=bool)
        alive[2] = False  # head of the first triangle is down
        with pytest.raises(InvariantViolationError, match="clusterhead"):
            check_invariants(h, TRIANGLES, alive=alive, strict=True)


class TestHealthyTopology:
    def test_connected_graph_is_clean(self):
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]])
        h = build_hierarchy(np.arange(6), edges, max_levels=3)
        rep = check_invariants(h, edges)
        assert rep.ok and rep.orphaned == 0

    def test_disconnected_clusters_are_still_coherent(self):
        # Each triangle's head is alive inside its own component: the
        # graph is split, but no *hierarchy* invariant is violated.
        rep = check_invariants(two_triangles(), TRIANGLES)
        assert rep.ok

    def test_alive_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="alive mask"):
            check_invariants(two_triangles(), TRIANGLES,
                             alive=np.ones(4, dtype=bool))


class TestHeadReachability:
    def test_dead_head_counts_members(self):
        alive = np.ones(6, dtype=bool)
        alive[5] = False  # second triangle loses its head
        rep = check_invariants(two_triangles(), TRIANGLES, alive=alive)
        # 3 and 4 point at a dead head (5 itself is not alive).
        assert rep.head_unreachable == 2

    def test_cross_component_head_counts(self):
        # Sever head 2 from its triangle: members 0 and 1 stay linked
        # to each other but lose their (alive) head to another
        # component.
        h = two_triangles()
        assert h.ancestry(1).tolist()[:3] == [2, 2, 2]
        cut = np.array([[0, 1], [3, 4], [4, 5], [3, 5]])
        rep = check_invariants(h, cut)
        assert rep.head_unreachable == 2
        assert rep.orphaned == 1  # head 2 itself is now linkless

    def test_orphans_reported_not_violating(self):
        edges = np.array([[0, 1], [1, 2], [0, 2]])  # nodes 3-5 isolated
        h = build_hierarchy(np.arange(6), edges, max_levels=2)
        rep = check_invariants(h, edges)
        assert rep.orphaned == 3
        # Isolated nodes become their own heads: no head violation.
        assert rep.ok


class TestServerInvariants:
    def test_dead_server_pointer_counts(self):
        alive = np.ones(6, dtype=bool)
        alive[4] = False
        rep = check_invariants(two_triangles(), TRIANGLES,
                               assignment=assignment([(0, 4), (1, 2)]),
                               alive=alive)
        assert rep.dead_servers == 1

    def test_unknown_server_id_counts_as_dead(self):
        rep = check_invariants(two_triangles(), TRIANGLES,
                               assignment=assignment([(0, 99)]))
        assert rep.dead_servers == 1

    def test_cross_partition_pointer_counts(self):
        # Subject 0 (first triangle) served by 5 (second): unreachable.
        rep = check_invariants(two_triangles(), TRIANGLES,
                               assignment=assignment([(0, 5), (3, 5)]))
        assert rep.unreachable_servers == 1
        assert rep.dead_servers == 0

    def test_dead_subject_not_counted(self):
        alive = np.ones(6, dtype=bool)
        alive[0] = False  # the stranded subject itself is down
        rep = check_invariants(two_triangles(), TRIANGLES,
                               assignment=assignment([(0, 5)]),
                               alive=alive)
        assert rep.unreachable_servers == 0


class TestPersistentCids:
    def test_synthetic_cid_cluster_coherence(self):
        """Persistent hierarchies use synthetic cluster ids that name no
        base node; the head check degrades to cluster coherence."""
        from repro.sim import Scenario
        from repro.sim.engine import Simulator

        sc = Scenario(n=60, steps=4, warmup=2, speed=1.0, seed=3,
                      max_levels=2, election_mode="persistent")
        sim = Simulator(sc)
        res = sim.run()
        h = sim._prev_hierarchy
        anc1 = h.ancestry(1)
        assert anc1.max() >= 10_000_000  # synthetic ids in play
        edges = np.empty((0, 2), dtype=np.int64)
        rep = check_invariants(h, edges)
        # With every link severed, any cluster of >= 2 members loses
        # coherence; total incoherent members = sum over clusters of
        # (size - 1).
        sizes = np.unique(anc1, return_counts=True)[1]
        assert rep.head_unreachable == int((sizes - 1).sum())
        assert res.phi >= 0.0


def _same_partition(a, b) -> bool:
    """Two label vectors name the same partition iff each label of one
    maps to exactly one label of the other and vice versa."""
    pairs = np.unique(np.stack([a, b], axis=1), axis=0)
    return (np.unique(pairs[:, 0]).size == pairs.shape[0]
            == np.unique(pairs[:, 1]).size)


class TestComponentLabels:
    """The checker's component labels come from the graph's own cached
    components; they must partition the nodes exactly like scipy's
    undirected ``connected_components`` over a fresh CSR."""

    @staticmethod
    def _oracle(ids, edges):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        e = np.searchsorted(ids, np.asarray(edges).reshape(-1, 2))
        adj = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])),
                         shape=(ids.size, ids.size))
        return connected_components(adj, directed=False)[1]

    @pytest.mark.parametrize("ids,edges", [
        (np.arange(6), TRIANGLES),
        (np.arange(4), np.empty((0, 2), dtype=np.int64)),   # no edges
        (np.array([2, 7, 9, 40, 41]), [[7, 40]]),           # isolated nodes
        (np.array([5]), np.empty((0, 2), dtype=np.int64)),
    ])
    def test_partition_equals_connected_components(self, ids, edges):
        from repro.faults.invariants import _components

        labels = _components(ids, np.asarray(edges, dtype=np.int64))
        assert labels.shape == ids.shape
        assert _same_partition(labels, self._oracle(ids, edges))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sparse_graphs(self, seed):
        from repro.faults.invariants import _components

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        ids = np.sort(rng.choice(4 * n, size=n, replace=False))
        pairs = ids[rng.integers(0, n, size=(int(n * rng.uniform(0.2, 1.2)), 2))]
        edges = pairs[pairs[:, 0] != pairs[:, 1]]
        labels = _components(ids, edges)
        oracle = self._oracle(ids, edges)
        assert np.unique(oracle).size > 1
        assert _same_partition(labels, oracle)
