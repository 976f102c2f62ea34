"""Tests for recursive hierarchy construction (Fig. 1 semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import DiscRegion, disc_for_density
from repro.clustering import Election
from repro.hierarchy import (
    ClusteredHierarchy,
    LevelTopology,
    build_hierarchy,
    canonical_edges,
    contract_edges,
    recurse_levels,
)
from repro.radio import radius_for_degree, unit_disk_edges


class TestCanonicalEdges:
    def test_dedup_and_sort(self):
        e = canonical_edges([[2, 1], [1, 2], [3, 1], [4, 4]])
        assert e.tolist() == [[1, 2], [1, 3]]

    def test_empty(self):
        assert canonical_edges(np.empty((0, 2))).shape == (0, 2)
        assert canonical_edges([[4, 4], [7, 7]]).shape == (0, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_row_unique(self, seed):
        """Key-encoded canonicalization == the row-wise ``np.unique`` it
        replaced, for canonical, shuffled, reversed and redundant input."""
        rng = np.random.default_rng(seed)
        pts = disc_for_density(200, 0.02).sample(200, rng)
        base = unit_disk_edges(pts, radius_for_degree(9.0, 0.02))
        ids = np.sort(rng.choice(10**7 + 10**4, size=200, replace=False))
        loops = np.stack([ids[:5], ids[:5]], axis=1)
        for e in (base, ids[base]):
            for variant in (e, rng.permutation(e), e[::-1, ::-1],
                            np.concatenate([e, e[:40, ::-1], loops])):
                got = canonical_edges(variant)
                assert got.dtype == np.int32
                assert np.array_equal(got, np.unique(np.sort(e, axis=1), axis=0))

    def test_canonical_input_is_a_read_only_view(self):
        e = unit_disk_edges(np.random.default_rng(0).random((50, 2)), 0.3)
        got = canonical_edges(e)
        assert np.shares_memory(got, e)
        assert not got.flags.writeable and e.flags.writeable


class TestContractEdges:
    def test_basic_contraction(self):
        # Nodes 1..4; clusters {1,2}->2 and {3,4}->4; edge 2-3 crosses.
        node_ids = np.array([1, 2, 3, 4])
        member_of = np.array([2, 2, 4, 4])
        e = contract_edges([[1, 2], [2, 3], [3, 4]], node_ids, member_of)
        assert e.tolist() == [[2, 4]]

    def test_all_internal(self):
        node_ids = np.array([1, 2])
        member_of = np.array([2, 2])
        e = contract_edges([[1, 2]], node_ids, member_of)
        assert e.shape == (0, 2)

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError):
            contract_edges([[1, 5]], np.array([1, 2]), np.array([2, 2]))


class PairUp:
    """Stub elector: sorted IDs pair off, the larger of each pair heads
    the cluster (a trailing odd one heads its own); halves every level,
    whatever the edges.  Records the levels it was asked to elect."""

    def __init__(self):
        self.asked = []

    def __call__(self, k, ids, edges):
        self.asked.append(k)
        head = ids[np.minimum(np.arange(ids.size) | 1, ids.size - 1)]
        return Election(node_ids=ids, elected_head=head, member_of=head,
                        elector_count=np.zeros_like(ids),
                        clusterheads=np.unique(head))


def everyone_a_head(k, ids, edges):
    return Election(node_ids=ids, elected_head=ids, member_of=ids,
                    elector_count=np.zeros_like(ids), clusterheads=ids)


PATH8 = [[i, i + 1] for i in range(8 - 1)]


class TestRecurseLevels:
    """The stop rules and link derivation, once, for every elector."""

    def test_recurses_until_one_node_is_left(self):
        elector = PairUp()
        h = recurse_levels(range(8), PATH8, elector)
        assert h.level_sizes() == [8, 4, 2, 1]
        assert elector.asked == [0, 1, 2]
        assert [lvl.k for lvl in h.levels] == [0, 1, 2, 3]
        assert [lvl.election is None for lvl in h.levels] == [
            False, False, False, True]
        # Contracted links: heads 1-3-5-7 stay a path.
        assert h.levels[1].edges.tolist() == [[1, 3], [3, 5], [5, 7]]

    @pytest.mark.parametrize("cap,sizes", [(0, [8]), (1, [8, 4]),
                                           (2, [8, 4, 2])])
    def test_max_levels_cap_ends_the_hierarchy(self, cap, sizes):
        elector = PairUp()
        h = recurse_levels(range(8), PATH8, elector, max_levels=cap)
        assert h.level_sizes() == sizes
        assert elector.asked == list(range(cap))  # the top is not elected
        assert h.levels[-1].election is None

    def test_single_node_is_its_own_top(self):
        elector = PairUp()
        h = recurse_levels([5], [], elector)
        assert h.level_sizes() == [1] and h.levels[0].election is None
        assert elector.asked == []

    def test_no_edges_ends_the_hierarchy(self):
        """Level 1 of two disjoint pairs has nodes but no links."""
        elector = PairUp()
        h = recurse_levels(range(4), [[0, 1], [2, 3]], elector)
        assert h.level_sizes() == [4, 2]
        assert h.levels[1].n_edges == 0 and h.levels[1].election is None
        assert elector.asked == [0]

    def test_no_aggregation_ends_the_hierarchy(self):
        """heads == ids: the election is discarded and the level is the
        top, not an infinite tower of identical levels."""
        h = recurse_levels(range(8), PATH8, everyone_a_head)
        assert h.level_sizes() == [8] and h.levels[0].election is None

    def test_ids_and_edges_normalised_once(self):
        seen = {}

        def elector(k, ids, edges):
            seen[k] = (ids, edges)
            return PairUp()(k, ids, edges)

        recurse_levels([3, 1, 2, 0], [[1, 0], [0, 1], [2, 3], [2, 1]],
                       elector, max_levels=1)
        ids, edges = seen[0]
        assert ids.dtype == np.int32 and ids.tolist() == [0, 1, 2, 3]
        assert edges.dtype == np.int32
        assert edges.tolist() == [[0, 1], [1, 2], [2, 3]]
        # Sorted unique int32 input (the engine's arange) is not copied.
        base = np.arange(6, dtype=np.int32)
        recurse_levels(base, PATH8[:5], elector, max_levels=1)
        assert np.shares_memory(seen[0][0], base)

    def test_radio_links_use_scaled_radius_and_located_at(self):
        """r_k = r0 * sqrt(n0 / |V_k|); ``located_at`` says where a
        level-k ID sits when it is not a base node ID itself."""
        pos = np.column_stack((np.arange(8.0), np.zeros(8)))
        h = recurse_levels(range(8), PATH8, PairUp(), max_levels=2,
                           level_mode="radio", positions=pos, r0=1.0)
        # Heads 1,3,5,7 are 2 apart; r_1 = sqrt(2) links none of them.
        assert h.levels[1].n_edges == 0
        h = recurse_levels(range(8), PATH8, PairUp(), max_levels=2,
                           level_mode="radio", positions=pos, r0=1.5)
        assert h.levels[1].edges.tolist() == [[1, 3], [3, 5], [5, 7]]
        # Same IDs, placed at nodes 0..3 instead: now 1 apart.
        asked = []

        def located_at(k, ids):
            asked.append((k, ids.tolist()))
            return ids // 2

        h = recurse_levels(range(8), PATH8, PairUp(), max_levels=2,
                           level_mode="radio", positions=pos, r0=1.0,
                           located_at=located_at)
        assert asked == [(1, [1, 3, 5, 7]), (2, [3, 7])]
        assert h.levels[1].edges.tolist() == [[1, 3], [3, 5], [5, 7]]

    def test_validation(self):
        with pytest.raises(ValueError, match="level_mode"):
            recurse_levels(range(4), PATH8[:3], PairUp(), level_mode="psychic")
        with pytest.raises(ValueError, match="r0"):
            recurse_levels(range(4), PATH8[:3], PairUp(), level_mode="radio",
                           positions=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="positions"):
            recurse_levels(range(4), PATH8[:3], PairUp(), level_mode="radio",
                           r0=1.0)
        with pytest.raises(ValueError, match="align"):
            recurse_levels(range(4), PATH8[:3], PairUp(), level_mode="radio",
                           positions=np.zeros((3, 2)), r0=1.0)


class TestBuildHierarchy:
    def test_single_node(self):
        h = build_hierarchy([7], np.empty((0, 2)))
        assert h.num_levels == 0
        assert h.level_sizes() == [1]
        assert h.address(7) == (7,)

    def test_pair_two_levels(self):
        h = build_hierarchy([1, 2], [[1, 2]])
        assert h.num_levels == 1
        assert h.level_sizes() == [2, 1]
        assert h.cluster_of(1, 1) == 2
        assert h.address(1) == (2, 1)
        assert h.address(2) == (2, 2)

    def test_level_sizes_strictly_decrease(self):
        rng = np.random.default_rng(0)
        pts = DiscRegion(10.0).sample(200, rng)
        edges = unit_disk_edges(pts, 1.5)
        h = build_hierarchy(np.arange(200), edges)
        sizes = h.level_sizes()
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_max_levels_cap(self):
        rng = np.random.default_rng(1)
        pts = DiscRegion(10.0).sample(300, rng)
        edges = unit_disk_edges(pts, 1.2)
        h = build_hierarchy(np.arange(300), edges, max_levels=2)
        assert h.num_levels <= 2

    def test_three_level_hierarchy_like_fig1(self):
        """A dense-enough 100-node network should produce >= 2 levels,
        with every address consistent with cluster_of."""
        density = 0.02
        region = disc_for_density(100, density)
        rng = np.random.default_rng(7)
        pts = region.sample(100, rng)
        edges = unit_disk_edges(pts, radius_for_degree(9.0, density))
        h = build_hierarchy(np.arange(100), edges)
        assert h.num_levels >= 2
        for v in range(0, 100, 7):
            addr = h.address(v)
            assert addr[-1] == v
            for k in range(h.num_levels + 1):
                assert addr[h.num_levels - k] == h.cluster_of(v, k)

    def test_ancestry_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        pts = DiscRegion(8.0).sample(60, rng)
        edges = unit_disk_edges(pts, 2.0)
        h = build_hierarchy(np.arange(60), edges)
        for k in range(h.num_levels + 1):
            anc = h.ancestry(k)
            for v in range(0, 60, 11):
                assert anc[v] == h.cluster_of(v, k)

    def test_ancestries_are_int32_and_level_0_is_the_base_ids(self):
        rng = np.random.default_rng(3)
        base = np.arange(60, dtype=np.int32)
        h = build_hierarchy(base, unit_disk_edges(
            DiscRegion(8.0).sample(60, rng), 2.0))
        assert h.num_levels >= 2
        assert h.ancestry(0) is h.levels[0].node_ids
        assert np.shares_memory(h.ancestry(0), base)
        assert all(a.dtype == np.int32 for a in h.ancestries)

    def test_ids_outside_int32_are_refused(self):
        """A hand-built snapshot whose base IDs do not fit int32 fails at
        construction, naming the ID, rather than wrapping (cluster IDs
        are refused by the elections that mint them)."""
        wide = np.array([0, 2**31], dtype=np.int64)
        with pytest.raises(ValueError, match="node ID 2147483648 is outside int32"):
            ClusteredHierarchy([LevelTopology(
                0, wide, np.empty((0, 2), dtype=np.int64), None)])

    def test_members0_roundtrip(self):
        rng = np.random.default_rng(4)
        pts = DiscRegion(8.0).sample(80, rng)
        edges = unit_disk_edges(pts, 2.0)
        h = build_hierarchy(np.arange(80), edges)
        k = h.num_levels
        total = 0
        for cid in np.unique(h.ancestry(k)):
            members = h.members0(k, int(cid))
            total += members.size
            assert all(h.cluster_of(int(m), k) == cid for m in members[:5])
        assert total == 80

    def test_highest_level_of(self):
        h = build_hierarchy([1, 2, 3], [[1, 2], [2, 3]])
        # 3 is the unique head -> appears at every level.
        assert h.highest_level_of(3) == h.num_levels
        assert h.highest_level_of(1) == 0

    def test_clusters_view(self):
        h = build_hierarchy([1, 2, 3], [[1, 2], [2, 3]])
        clusters = h.clusters(1)
        assert 3 in clusters
        members = sorted(int(x) for ms in clusters.values() for x in ms)
        assert members == [1, 2, 3]

    def test_bad_level_queries(self):
        h = build_hierarchy([1, 2], [[1, 2]])
        with pytest.raises(ValueError):
            h.cluster_of(1, 5)
        with pytest.raises(ValueError):
            h.clusters(0)
        with pytest.raises(KeyError):
            h.address(99)

    def test_disconnected_components(self):
        h = build_hierarchy([1, 2, 10, 11], [[1, 2], [10, 11]])
        assert h.cluster_of(1, 1) == 2
        assert h.cluster_of(10, 1) == 11
        # Top level: two isolated heads, no further aggregation.
        assert h.levels[-1].n_edges == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(2, 80))
def test_hierarchy_invariants_property(seed, n):
    """Partition, containment, and nesting invariants on random graphs."""
    rng = np.random.default_rng(seed)
    pts = DiscRegion(1.0).sample(n, rng)
    edges = unit_disk_edges(pts, 0.35)
    h = build_hierarchy(np.arange(n), edges)

    sizes = h.level_sizes()
    assert sizes[0] == n
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    # Nesting: V_{k+1} subset of V_k.
    for k in range(h.num_levels):
        upper = set(h.levels[k + 1].node_ids.tolist())
        lower = set(h.levels[k].node_ids.tolist())
        assert upper <= lower

    # Ancestry refinement: same level-k cluster implies same level-(k+1)
    # cluster.
    for k in range(h.num_levels):
        a_k = h.ancestry(k)
        a_k1 = h.ancestry(k + 1)
        for cid in np.unique(a_k):
            ups = np.unique(a_k1[a_k == cid])
            assert ups.size == 1

    # Every node's top ancestor is a top-level node.
    top_ids = set(h.levels[-1].node_ids.tolist())
    assert set(np.unique(h.ancestry(h.num_levels)).tolist()) <= top_ids
