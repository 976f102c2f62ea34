"""Fuzz harness for the incremental LCA election.

The contract under test is absolute: after *any* sequence of link-event
batches, :meth:`IncrementalElection.snapshot` must be bit-identical —
every field — to a from-scratch :func:`elect` on the current edge set.
The churn generator mixes random add/remove bursts with the two fault
shapes the simulator's chaos engine produces: **crashes** (one node
loses every incident link at once) and **partitions** (every edge
crossing a geometric cut goes down, then heals).
"""

import numpy as np
import pytest

from repro.clustering import IncrementalElection, elect


_NO_EDGES = np.empty((0, 2), dtype=np.int64)


def _edge_array(edge_set):
    if not edge_set:
        return np.empty((0, 2), dtype=np.int64)
    return np.array(sorted(edge_set), dtype=np.int64)


def _assert_matches_oracle(inc, edge_set, node_ids):
    snap = inc.snapshot()
    ref = elect(node_ids, _edge_array(edge_set))
    assert np.array_equal(snap.node_ids, ref.node_ids)
    assert np.array_equal(snap.elected_head, ref.elected_head)
    assert np.array_equal(snap.member_of, ref.member_of)
    assert np.array_equal(snap.elector_count, ref.elector_count)
    assert np.array_equal(snap.clusterheads, ref.clusterheads)


def _random_batch(rng, edge_set, node_ids, size):
    """Random ups/downs: removals from the live set, additions of fresh
    pairs (never overlapping, as a LinkDiff never reports both)."""
    n_down = min(int(rng.integers(0, size + 1)), len(edge_set))
    downs = []
    if n_down:
        live = sorted(edge_set)
        pick = rng.choice(len(live), size=n_down, replace=False)
        downs = [live[i] for i in pick]
        edge_set.difference_update(downs)
    ups = set()
    for _ in range(int(rng.integers(0, size + 1))):
        u, v = rng.choice(node_ids, size=2, replace=False)
        e = (min(int(u), int(v)), max(int(u), int(v)))
        if e not in edge_set:
            ups.add(e)
    edge_set.update(ups)
    return np.array(sorted(ups) or [], dtype=np.int64).reshape(-1, 2), \
        np.array(sorted(downs) or [], dtype=np.int64).reshape(-1, 2)


class TestRandomChurn:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle_over_churn(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 60))
        node_ids = np.arange(n, dtype=np.int64)
        edge_set = set()
        for _ in range(n):
            u, v = rng.choice(node_ids, size=2, replace=False)
            edge_set.add((min(int(u), int(v)), max(int(u), int(v))))
        inc = IncrementalElection(node_ids, _edge_array(edge_set))
        _assert_matches_oracle(inc, edge_set, node_ids)
        for _ in range(25):
            ups, downs = _random_batch(rng, edge_set, node_ids, size=6)
            inc.apply(ups, downs, _edge_array(edge_set))
            _assert_matches_oracle(inc, edge_set, node_ids)

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_ids_over_churn(self, seed):
        """Non-dense ID sets, as at hierarchy levels >= 1: rows are
        looked up by search, not by the id itself."""
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(20, 60))
        node_ids = np.sort(rng.choice(10_000, size=n, replace=False))
        if seed == 0:
            node_ids[0] = 0  # starts at zero but still has gaps
        edge_set = set()
        for _ in range(2 * n):
            u, v = rng.choice(node_ids, size=2, replace=False)
            edge_set.add((min(int(u), int(v)), max(int(u), int(v))))
        inc = IncrementalElection(node_ids, _edge_array(edge_set))
        _assert_matches_oracle(inc, edge_set, node_ids)
        for _ in range(25):
            ups, downs = _random_batch(rng, edge_set, node_ids, size=6)
            inc.apply(ups, downs, _edge_array(edge_set))
            _assert_matches_oracle(inc, edge_set, node_ids)

    def test_sparse_ids_and_empty_batches(self):
        node_ids = np.array([3, 17, 42, 99, 1000], dtype=np.int64)
        edge_set = {(3, 42), (17, 99)}
        inc = IncrementalElection(node_ids, _edge_array(edge_set))
        before = inc.snapshot()
        inc.apply(_NO_EDGES, _NO_EDGES, _edge_array(edge_set))
        inc.apply([], [], _edge_array(edge_set))
        _assert_matches_oracle(inc, edge_set, node_ids)
        assert np.array_equal(inc.snapshot().elected_head, before.elected_head)
        inc.apply(np.array([[42, 1000]]), np.array([[3, 42]]),
                  _edge_array({(17, 99), (42, 1000)}))
        _assert_matches_oracle(inc, {(17, 99), (42, 1000)}, node_ids)

    def test_edge_array_is_the_truth(self):
        """An edge named in both ``ups`` and ``downs`` of one batch (it
        flapped inside the step) only marks its endpoints; whether it
        exists afterwards is read from the edge array."""
        node_ids = np.arange(8, dtype=np.int64)
        flap = np.array([[2, 7]], dtype=np.int64)
        for present in (True, False):
            edge_set = {(0, 1), (2, 3), (4, 5)}
            inc = IncrementalElection(
                node_ids, _edge_array(edge_set if present
                                      else edge_set | {(2, 7)}))
            if present:
                edge_set.add((2, 7))
            inc.apply(flap, flap, _edge_array(edge_set))
            _assert_matches_oracle(inc, edge_set, node_ids)

    def test_single_batch_fuzz_10k_nodes(self):
        """One large batch on a 10^4-node graph: thousands of marked
        rows, duplicate endpoints across events, heads gaining and
        losing all support in the same pass."""
        rng = np.random.default_rng(2024)
        n = 10_000
        node_ids = np.arange(n, dtype=np.int64)
        pairs = rng.integers(0, n, size=(40_000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        keys = np.unique(np.sort(pairs, axis=1), axis=0)
        live = rng.random(keys.shape[0]) < 0.8
        before = keys[live]
        flip = rng.random(keys.shape[0]) < 0.1
        after = keys[live ^ flip]
        inc = IncrementalElection(node_ids, before)
        inc.apply(keys[flip & ~live], keys[flip & live], after)
        ref = elect(node_ids, after)
        snap = inc.snapshot()
        for name in ("elected_head", "member_of", "elector_count",
                     "clusterheads"):
            assert np.array_equal(getattr(snap, name), getattr(ref, name))


class TestFaultBursts:
    def test_crash_burst(self):
        """A crash removes every incident link of a node in one batch."""
        rng = np.random.default_rng(11)
        n = 40
        node_ids = np.arange(n, dtype=np.int64)
        edge_set = set()
        for _ in range(3 * n):
            u, v = rng.choice(node_ids, size=2, replace=False)
            edge_set.add((min(int(u), int(v)), max(int(u), int(v))))
        inc = IncrementalElection(node_ids, _edge_array(edge_set))
        for victim in (n - 1, 0, 17):  # includes the globally max ID
            downs = [e for e in edge_set if victim in e]
            edge_set.difference_update(downs)
            inc.apply(_NO_EDGES,
                      np.array(sorted(downs), dtype=np.int64).reshape(-1, 2),
                      _edge_array(edge_set))
            _assert_matches_oracle(inc, edge_set, node_ids)

    def test_partition_and_heal(self):
        """Sever every cut-crossing edge at once, then restore them."""
        rng = np.random.default_rng(5)
        n = 50
        node_ids = np.arange(n, dtype=np.int64)
        edge_set = set()
        for _ in range(4 * n):
            u, v = rng.choice(node_ids, size=2, replace=False)
            edge_set.add((min(int(u), int(v)), max(int(u), int(v))))
        inc = IncrementalElection(node_ids, _edge_array(edge_set))
        cut = [e for e in edge_set if (e[0] < n // 2) != (e[1] < n // 2)]
        assert cut  # the partition must actually sever something
        downs = np.array(sorted(cut), dtype=np.int64)
        edge_set.difference_update(cut)
        inc.apply(_NO_EDGES, downs, _edge_array(edge_set))
        _assert_matches_oracle(inc, edge_set, node_ids)
        edge_set.update(cut)
        inc.apply(downs, _NO_EDGES, _edge_array(edge_set))
        _assert_matches_oracle(inc, edge_set, node_ids)


class TestSnapshotSafety:
    def test_snapshots_are_independent(self):
        """Consecutive snapshots must be diffable: later apply() calls
        may not mutate an earlier snapshot's arrays."""
        node_ids = np.arange(10, dtype=np.int64)
        edges = np.array([[0, 1], [2, 3], [4, 9]], dtype=np.int64)
        inc = IncrementalElection(node_ids, edges)
        before = inc.snapshot()
        frozen = (before.elected_head.copy(), before.member_of.copy(),
                  before.elector_count.copy(), before.clusterheads.copy())
        inc.apply(np.array([[1, 9], [5, 6]]), np.array([[4, 9]]),
                  np.array([[0, 1], [1, 9], [2, 3], [5, 6]]))
        assert np.array_equal(before.elected_head, frozen[0])
        assert np.array_equal(before.member_of, frozen[1])
        assert np.array_equal(before.elector_count, frozen[2])
        assert np.array_equal(before.clusterheads, frozen[3])

    def test_edgeless_graph(self):
        node_ids = np.arange(6, dtype=np.int64)
        inc = IncrementalElection(node_ids, _NO_EDGES)
        _assert_matches_oracle(inc, set(), node_ids)

    def test_node_losing_every_link(self):
        """The last links of a node go down: it falls back to voting
        for itself, and the head it leaves may lose all support."""
        node_ids = np.array([5, 6, 40, 41], dtype=np.int64)
        inc = IncrementalElection(node_ids, np.array([[5, 40], [6, 41]]))
        inc.apply(_NO_EDGES, np.array([[5, 40]]), np.array([[6, 41]]))
        _assert_matches_oracle(inc, {(6, 41)}, node_ids)
        assert inc.snapshot().clusterheads.tolist() == [5, 40, 41]
        inc.apply(_NO_EDGES, np.array([[6, 41]]), _NO_EDGES)
        _assert_matches_oracle(inc, set(), node_ids)
