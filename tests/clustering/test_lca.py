"""Tests for LCA election (Section 2.2 semantics, Fig. 1 cases)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import elect
from repro.geometry import DiscRegion
from repro.radio import unit_disk_edges


class TestBasicElection:
    def test_single_node(self):
        r = elect([5], np.empty((0, 2)))
        assert r.clusterheads.tolist() == [5]
        assert r.head_of(5) == 5
        assert r.state_of(5) == 0

    def test_pair(self):
        r = elect([1, 2], [[1, 2]])
        assert r.clusterheads.tolist() == [2]
        assert r.head_of(1) == 2
        assert r.head_of(2) == 2
        # Node 1 elects 2; 2 also elects itself but self-election is not
        # counted in the ALCA state.
        assert r.state_of(2) == 1
        assert r.state_of(1) == 0

    def test_triangle(self):
        r = elect([1, 2, 3], [[1, 2], [2, 3], [1, 3]])
        assert r.clusterheads.tolist() == [3]
        assert r.state_of(3) == 2

    def test_chain_fig1_style(self):
        """Path 5-9-3-7: 9 is head (max in closed nbhd of 5, 9, 3); 7 is
        elected by 3 even though 7 < 9 — the 'node 68' case of Fig. 1?
        No: 3's closed neighborhood is {9, 3, 7}, max is 9, so 3 elects 9.
        7's closed nbhd is {3, 7} -> 7 elects itself."""
        r = elect([5, 9, 3, 7], [[5, 9], [9, 3], [3, 7]])
        assert r.head_of(5) == 9
        assert r.head_of(3) == 9
        assert r.head_of(9) == 9
        assert r.head_of(7) == 7
        assert set(r.clusterheads.tolist()) == {9, 7}

    def test_elected_by_neighbor_but_not_own_max(self):
        """The Fig. 1 'node 68' case: a node can be a clusterhead while a
        larger node sits in its own neighborhood.

        Topology: 63-68, 68-97.  68's closed nbhd max is 97, so 68 elects
        97 and *belongs* to 97's cluster... but 63's closed nbhd is
        {63, 68}, max 68 -> 63 elects 68.  So 68 is simultaneously a
        clusterhead (of 63's cluster) and affiliated with itself (heads
        anchor their own cluster).
        """
        r = elect([63, 68, 97], [[63, 68], [68, 97]])
        assert set(r.clusterheads.tolist()) == {68, 97}
        assert r.head_of(63) == 68
        assert r.head_of(68) == 68  # heads anchor their own cluster
        assert r.head_of(97) == 97
        assert r.elected_head[r.index_of([68])[0]] == 97  # raw election
        assert r.state_of(68) == 1  # elected by 63 only
        assert r.state_of(97) == 1  # elected by 68

    def test_clusters_partition(self):
        r = elect([63, 68, 97], [[63, 68], [68, 97]])
        clusters = r.clusters()
        assert sorted(clusters) == [68, 97]
        assert clusters[68].tolist() == [63, 68]
        assert clusters[97].tolist() == [97]


class TestValidation:
    def test_empty_nodes(self):
        with pytest.raises(ValueError):
            elect([], np.empty((0, 2)))

    def test_self_loop(self):
        with pytest.raises(ValueError):
            elect([1, 2], [[1, 1]])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(ValueError):
            elect([1, 2], [[1, 3]])

    def test_index_of_unknown(self):
        r = elect([1, 2], [[1, 2]])
        with pytest.raises(KeyError):
            r.index_of([7])

    def test_duplicate_ids_deduped(self):
        r = elect([1, 1, 2], [[1, 2]])
        assert r.node_ids.tolist() == [1, 2]

    def test_ids_outside_int32_are_refused(self):
        """IDs are int32: one past it is named, never wrapped."""
        with pytest.raises(ValueError, match="node ID 2147483648 is outside int32"):
            elect([1, 2**31], [[1, 2**31]])
        with pytest.raises(ValueError,
                           match="edge endpoint 4294967297 is outside int32"):
            elect([1, 2], [[1, 2**32 + 1]])

    def test_per_node_arrays_are_int32(self):
        """Every array of an election is int32, and int32 edges are read
        in place."""
        edges = np.array([[1, 2], [2, 9]], dtype=np.int32)
        r = elect(np.array([1, 2, 9]), edges)
        for a in (r.node_ids, r.elected_head, r.member_of, r.elector_count,
                  r.clusterheads):
            assert a.dtype == np.int32
        assert r.member_of.tolist() == [2, 2, 9]


class TestArbitraryIds:
    def test_noncontiguous_ids(self):
        r = elect([100, 7, 5000], [[100, 7], [100, 5000]])
        assert r.head_of(7) == 100
        # 100 is itself a head (elected by 7), so it anchors its own
        # cluster even though it elected 5000.
        assert r.head_of(100) == 100
        assert r.elected_head[r.index_of([100])[0]] == 5000
        assert r.head_of(5000) == 5000
        assert set(r.clusterheads.tolist()) == {100, 5000}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 25))
def test_election_matches_brute_force_on_gappy_unsorted_ids(data, n):
    """Every array of the outcome against a per-node loop, for IDs given
    in any order from a sparse range and edges in any orientation."""
    ids = data.draw(st.lists(st.integers(0, 10**8), min_size=n, max_size=n,
                             unique=True))
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    edges = [e for e in data.draw(st.lists(pairs, max_size=3 * n))
             if e[0] != e[1]]
    r = elect(ids, np.array(edges).reshape(-1, 2))

    adj = {v: {v} for v in ids}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    order = sorted(ids)
    elected = {v: max(adj[v]) for v in order}
    heads = sorted(set(elected.values()))
    assert r.node_ids.tolist() == order
    assert r.elected_head.tolist() == [elected[v] for v in order]
    assert r.clusterheads.tolist() == heads
    assert r.member_of.tolist() == [
        v if v in heads else elected[v] for v in order]
    # Parallel edges count once per listed edge, as the scatter does.
    votes = {v: 0 for v in order}
    for a, b in edges:
        votes[b] += elected[a] == b
        votes[a] += elected[b] == a
    assert r.elector_count.tolist() == [votes[v] for v in order]


def _closed_nbhd_max(n_ids, adj, u):
    return max([u] + list(adj[u]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(2, 60))
def test_election_invariants_property(seed, n):
    """On random geometric graphs the election must satisfy:

    1. elected_head(u) = max of u's closed neighborhood,
    2. every head is within 1 hop of all its members,
    3. member_of is a partition with heads anchoring their own cluster,
    4. clusterheads = image of elected_head.
    """
    rng = np.random.default_rng(seed)
    pts = DiscRegion(1.0).sample(n, rng)
    edges = unit_disk_edges(pts, 0.4)
    ids = np.arange(n)
    r = elect(ids, edges)

    adj = {int(i): set() for i in ids}
    for a, b in edges.tolist():
        adj[a].add(b)
        adj[b].add(a)

    for u in range(n):
        expected = _closed_nbhd_max(ids, adj, u)
        assert r.elected_head[u] == expected

    assert set(r.clusterheads.tolist()) == set(r.elected_head.tolist())

    clusters = r.clusters()
    all_members = sorted(int(m) for ms in clusters.values() for m in ms)
    assert all_members == list(range(n))
    for head, members in clusters.items():
        assert head in members
        for m in members.tolist():
            assert m == head or head in adj[m]

    # State = number of neighbors electing the node.
    for v in range(n):
        count = sum(1 for u in adj[v] if r.elected_head[u] == v)
        assert r.elector_count[v] == count
