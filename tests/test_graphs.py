"""Tests for the compact graph kernels."""

from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs
from repro.geometry import DiscRegion
from repro.graphs import (
    SOURCE_BLOCK,
    SWEEP_NODES,
    CompactGraph,
    IdIndex,
    bfs_distances,
    hop_dtype,
    hop_rows,
    sorted_unique_ids,
)
from repro.hierarchy import sample_hop_counts
from repro.radio import unit_disk_edges


class TestIdIndex:
    """Both lookup paths answer exactly like a sorted search."""

    @staticmethod
    def reference(ids, values):
        pos = np.searchsorted(ids, values)
        found = (pos < len(ids)) & (ids[np.minimum(pos, len(ids) - 1)] == values)
        return np.where(found, pos, -1)

    @pytest.mark.parametrize("ids,dense", [
        (np.arange(50), True),                          # rows are the ids
        (np.array([3, 9, 4000, 99_999]), True),         # few ids, inside the slack
        (np.array([5, 10**7 + 1, 10**7 + 2]), False),   # minted cluster ids
        (np.array([-4, 0, 7]), False),                  # negative id
        (np.arange(0, 9 * 2**18, 9), False),            # 9 slots per id > 8 + slack
        (np.arange(0, 7 * 2**18, 7), True),             # wide, but 7 slots per id
    ])
    def test_rows_and_contains(self, ids, dense):
        ids = ids.astype(np.int32)
        index = IdIndex(ids)
        assert (index._table is not None) == dense
        rng = np.random.default_rng(0)
        values = np.concatenate([
            rng.choice(ids, size=40), ids[[0, -1]], ids[:3] + 1,
            [ids[-1] + 1, ids[0] - 1, -1, 2**40],
        ])
        rows = index.rows(values)  # int64 queries, one past int32
        assert rows.dtype == np.int32
        assert index.rows(values[:40].astype(np.int32)).dtype == np.int32
        assert np.array_equal(rows, self.reference(ids, values))
        assert np.array_equal(index.contains(values), rows >= 0)
        inside = rng.choice(ids, size=25)
        assert np.array_equal(ids[index.rows(inside)], inside)

    @pytest.mark.parametrize("ids,span,size", [
        (np.array([3, 9]), 500, 500),                   # stretched to the span
        (np.array([3, 9]), 4, 10),                      # a span inside the ids
        (np.array([3, 9]), 2**18, None),                # past the budget: search
        (np.array([10**7 + 1, 10**7 + 2]), 10**7 + 9, None),  # minted ids
    ])
    def test_span_stretches_the_table(self, ids, span, size):
        """Values below ``span`` that miss answer -1 from the table."""
        index = IdIndex(ids.astype(np.int32), span)
        assert (None if index._table is None else index._table.size) == size
        values = np.arange(span - 40, span)
        assert np.array_equal(index.rows(values), self.reference(ids, values))
        assert index.rows(ids).tolist() == [0, 1]

    def test_shapes_and_empties(self):
        index = IdIndex(np.array([2, 5, 8]))
        assert int(index.rows(np.int64(5))) == 1
        assert int(index.rows(np.int64(6))) == -1
        assert index.rows(np.empty(0, dtype=np.int64)).shape == (0,)
        assert index.rows([[2, 8], [3, 5]]).tolist() == [[0, 2], [-1, 1]]
        empty = IdIndex(np.empty(0, dtype=np.int64))
        assert empty.rows([1, 2]).tolist() == [-1, -1]
        assert not empty.contains([0]).any()


class TestSortedUniqueIds:
    def test_ascending_input_is_returned_as_it_came(self):
        ids = np.array([3, 7, 8, 40], dtype=np.int32)
        out = sorted_unique_ids(ids)
        assert np.shares_memory(out, ids) and out.tolist() == [3, 7, 8, 40]

    def test_wider_input_is_narrowed_to_int32(self):
        out = sorted_unique_ids(np.array([-2**31, 3, 2**31 - 1], np.int64))
        assert out.dtype == np.int32
        assert out.tolist() == [-2**31, 3, 2**31 - 1]

    @pytest.mark.parametrize("bad", [2**31, -2**31 - 1, 2**40])
    def test_ids_outside_int32_are_refused(self, bad):
        with pytest.raises(ValueError, match=f"node ID {bad} is outside int32"):
            sorted_unique_ids([1, bad, 2])
        with pytest.raises(ValueError, match=f"node ID {bad} is outside int32"):
            sorted_unique_ids(np.array([1, bad], dtype=np.int64))

    @pytest.mark.parametrize("raw", [
        [5, 1, 3], [1, 1, 2], [2, 1, 1, 2], (9, 4), {4, 2}, range(3, 0, -1),
    ])
    def test_anything_else_is_sorted_and_deduplicated(self, raw):
        out = sorted_unique_ids(raw)
        assert out.dtype == np.int32
        assert out.tolist() == sorted(set(raw))

    def test_empty_and_single(self):
        assert sorted_unique_ids([]).shape == (0,)
        assert sorted_unique_ids(iter([4])).tolist() == [4]


def _coo_csr(node_ids, edges):
    """The COO-route construction ``CompactGraph`` used before it built
    its CSR from canonical edges, kept as the layout oracle: both
    directions of every edge, grouped by source with the input order
    kept inside a group (the CSR of a matrix whose column index is the
    entry's position)."""
    from scipy.sparse import csr_matrix

    ids = np.unique(np.asarray(list(node_ids), dtype=np.int64))
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    ui, vi = np.searchsorted(ids, e[:, 0]), np.searchsorted(ids, e[:, 1])
    src = np.concatenate([ui, vi])
    by_source = csr_matrix(
        (np.concatenate([vi, ui]), (src, np.arange(src.size))),
        shape=(ids.size, src.size),
    )
    by_source.sort_indices()
    return ids, by_source.data, by_source.indptr.astype(np.int64)


def _canonical(edges):
    """``edges`` as every ``src/`` caller passes them: each pair once as
    ``u < v``, self-loops dropped, in ascending order."""
    pairs = {(min(u, v), max(u, v)) for u, v in np.asarray(edges).tolist()
             if u != v}
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


class TestCsrLayoutOracle:
    """Neighbor order is observable (BFS tie-breaks, next hops): the
    one-transpose build must reproduce the COO route's layout value for
    value on canonical edges, and canonicalise anything else first.  The
    neighbor list and the IDs are int32; the offsets stay int64."""

    @staticmethod
    def _assert_same_layout(node_ids, edges):
        canonical = _canonical(edges)
        want = _coo_csr(node_ids, canonical)
        for g in (CompactGraph(node_ids, edges),
                  CompactGraph(node_ids, canonical)):
            got = (g.node_ids, g._nbr, g._offsets)
            assert [a.dtype for a in got] == [np.int32, np.int32, np.int64]
            for a, ref in zip(got, want):
                assert np.array_equal(a, ref)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30))
    def test_random_graphs(self, data, n):
        """Gappy IDs in any order, isolated nodes, edges in any order and
        orientation, parallel edges and self-loops included."""
        ids = data.draw(st.lists(st.integers(0, 10_000), min_size=n,
                                 max_size=n, unique=True))
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
        edges = data.draw(st.lists(pairs, max_size=3 * n))
        self._assert_same_layout(ids, np.array(edges).reshape(-1, 2))

    def test_canonical_unit_disk_edges(self):
        pts = DiscRegion(1.0).sample(300, np.random.default_rng(4))
        edges = unit_disk_edges(pts, 0.15)
        assert np.array_equal(_canonical(edges), edges)
        self._assert_same_layout(np.arange(300), edges)

    def test_isolated_nodes_at_both_ends(self):
        self._assert_same_layout([0, 5, 9, 12, 40], [[9, 5], [12, 9]])

    def test_no_edges(self):
        self._assert_same_layout([3, 1, 2], np.empty((0, 2)))

    def test_ids_that_are_their_own_rows(self):
        """IDs 0..n-1 skip the row lookup: same layout, and edges
        outside the range are still refused."""
        self._assert_same_layout(range(6), [[5, 0], [2, 1], [0, 5], [3, 3]])
        for bad in ([[0, 6]], [[-1, 2]]):
            with pytest.raises(ValueError, match="not in node_ids"):
                CompactGraph(range(6), bad)


class TestColumnSortAtScale:
    """The columns come from one sort of ``(v << 32 | u)`` keys; node
    indices past 16 bits, gappy IDs among them, keep the COO route's
    layout."""

    def test_more_nodes_than_sixteen_bits(self):
        n = 70_000
        pts = DiscRegion(1.0).sample(n, np.random.default_rng(6))
        ids = np.arange(n) * 3 + 5
        edges = ids[unit_disk_edges(pts, 0.009)]
        g = CompactGraph(ids, edges)
        for got, want in zip((g.node_ids, g._nbr, g._offsets),
                             _coo_csr(ids, edges)):
            assert np.array_equal(got, want)


class TestSharedNeighborList:
    """One int32 neighbor list: the scipy view indexes it, nothing
    writes it."""

    @staticmethod
    def _graph():
        pts = DiscRegion(1.0).sample(400, np.random.default_rng(3))
        return CompactGraph(np.arange(400), unit_disk_edges(pts, 0.12))

    def test_scipy_view_shares_the_read_only_list(self):
        g = self._graph()
        a = g.sparse()
        assert np.shares_memory(a.indices, g._nbr)
        assert not g._nbr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.indices[0] = 0

    def test_traversals_leave_the_list_unchanged(self):
        g = self._graph()
        before = g._nbr.tobytes()
        repro.graphs._bfs_depths(g, 0)
        assert np.unique(g.components()).size > 1
        bfs_distances(g, 399)
        assert g._nbr.tobytes() == before

    def test_a_restored_graph_is_read_only_too(self):
        import pickle

        g = self._graph()
        g.sparse()
        restored = pickle.loads(pickle.dumps(g))
        assert not restored._nbr.flags.writeable
        assert np.shares_memory(restored.sparse().indices, restored._nbr)
        assert restored._nbr.tobytes() == g._nbr.tobytes()

    def test_two_to_the_31_nodes_are_refused(self, monkeypatch):
        # A stand-in ID array reports the size, so nothing that large
        # is allocated.
        huge = SimpleNamespace(size=1 << 31)
        monkeypatch.setattr(repro.graphs, "sorted_unique_ids", lambda _: huge)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            CompactGraph(huge, [[0, 1]])


class TestCompactGraph:
    def test_ids_outside_int32_are_refused(self):
        """IDs are int32: a node ID or an edge endpoint past it is named,
        never wrapped."""
        with pytest.raises(ValueError, match="node ID 2147483648 is outside int32"):
            CompactGraph([0, 2**31], [[0, 2**31]])
        with pytest.raises(ValueError,
                           match="edge endpoint -2147483649 is outside int32"):
            CompactGraph([0, 1], [[0, -2**31 - 1]])

    def test_non_canonical_edges_past_46341_nodes(self):
        """Canonicalising keys ``u * n + v`` are formed in int64: with
        int32 rows they would wrap from n = 46 341 on."""
        n = 50_000
        g = CompactGraph(np.arange(n, dtype=np.int32),
                         [[n - 1, n - 2], [1, 0], [0, 1], [n - 2, 7]])
        assert g.neighbors(n - 2).tolist() == [n - 1, 7]
        assert g.neighbors(n - 1).tolist() == [n - 2]
        assert g.degree(0) == g.degree(1) == 1

    def test_neighbors(self):
        g = CompactGraph([1, 2, 3], [[1, 2], [2, 3]])
        assert sorted(g.neighbors(2).tolist()) == [1, 3]
        assert g.degree(2) == 2
        assert g.degree(1) == 1

    def test_arbitrary_ids(self):
        g = CompactGraph([10, 500, 77], [[10, 500]])
        assert g.neighbors(10).tolist() == [500]
        assert g.degree(77) == 0

    def test_unknown_id(self):
        g = CompactGraph([1, 2], [[1, 2]])
        with pytest.raises(KeyError):
            g.neighbors(9)

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            CompactGraph([1, 2], [[1, 5]])

    def test_index_lookups(self):
        g = CompactGraph([10, 500, 77], [[10, 500]])
        assert g.index_of(77) == 1
        assert g.index_of_many([500, 10, 500]).tolist() == [2, 0, 2]
        assert g.index_of_many([]).shape == (0,)
        with pytest.raises(KeyError):
            g.index_of_many([10, 11])

    def test_id_index_is_not_pickled(self):
        """Checkpointed collectors hold graphs: the pickled layout is
        the arrays only, and a restored graph rebuilds its index."""
        import pickle

        g = CompactGraph([10, 500, 77], [[10, 500]])
        assert g._index is not None
        restored = pickle.loads(pickle.dumps(g))
        assert "_index" not in restored.__dict__
        assert restored.neighbors(10).tolist() == [500]

    def test_empty_graph(self):
        g = CompactGraph([1, 2, 3], np.empty((0, 2)))
        assert g.n == 3
        assert g.degree(1) == 0


class TestBFS:
    def test_distances_chain(self):
        g = CompactGraph(range(5), [[0, 1], [1, 2], [2, 3], [3, 4]])
        d = bfs_distances(g, 0)
        assert d.tolist() == [0, 1, 2, 3, 4]

    def test_unreachable(self):
        g = CompactGraph(range(4), [[0, 1], [2, 3]])
        d = bfs_distances(g, 0)
        assert d.tolist() == [0, 1, -1, -1]


def _rows(g, sources):
    """Whole int64 distance rows from the node IDs ``sources``."""
    return hop_rows(g, g.index_of_many(sources), np.int64)


def _flood(g, sources, targets, labels=None):
    """:func:`repro.graphs._scoped_flood` by node ID, on the component
    labels unless ``labels`` is given."""
    return repro.graphs._scoped_flood(
        g, g.index_of_many(sources), [g.index_of_many(t) for t in targets],
        g.components() if labels is None else labels)


class TestScopedBFS:
    """``_scoped_flood`` must equal the full rows on every target column,
    whatever it leaves in the other columns, on either kind of labels."""

    @staticmethod
    def _assert_target_columns_equal(g, sources, targets, labels=None):
        full = _rows(g, sources)
        scoped = _flood(g, sources, targets, labels)
        assert scoped.shape == full.shape and scoped.dtype == np.int32
        for row_f, row_s, t in zip(full, scoped, targets):
            cols = g.index_of_many(t)
            assert np.array_equal(row_s[cols], row_f[cols])
        # Whatever else got filled on the way is exact too.
        assert np.array_equal(scoped[scoped >= 0], full[scoped >= 0])
        return scoped

    @pytest.mark.parametrize("seed", range(12))
    def test_random_disconnected_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 200))
        ids = np.sort(rng.choice(5 * n, size=n, replace=False))
        # Few enough edges that the graph falls into many components,
        # so most target sets contain unreachable ids.
        pairs = ids[rng.integers(0, n, size=(int(n * rng.uniform(0.4, 1.5)), 2))]
        g = CompactGraph(ids, pairs[pairs[:, 0] != pairs[:, 1]])
        comp = g.components()
        assert np.unique(comp).size > 1
        sources = rng.choice(ids, size=9, replace=True).tolist()
        sources[3] = sources[0]  # duplicate source, different targets
        targets = [
            rng.choice(ids, size=int(rng.integers(0, 25)), replace=False)
            for _ in sources
        ]
        scoped = self._assert_target_columns_equal(g, sources, targets)
        full = _rows(g, sources)
        assert any((full[i][g.index_of_many(t)] < 0).any()
                   for i, t in enumerate(targets))
        assert (scoped >= 0).sum() <= (full >= 0).sum()
        # The largest component's mask is constant on every component
        # too: sources outside it run until their own is exhausted.
        largest = comp == np.bincount(comp).argmax()
        self._assert_target_columns_equal(g, sources, targets, largest)

    def test_flood_stops_at_the_last_target(self):
        g = CompactGraph(range(10), [[i, i + 1] for i in range(9)])
        row = _flood(g, [0], [[1, 3]])[0]
        assert row.tolist() == [0, 1, 2, 3, -1, -1, -1, -1, -1, -1]

    def test_unreachable_target_does_not_flood_the_component(self):
        edges = [[i, i + 1] for i in range(9)]  # path 0..9; node 10 isolated
        g = CompactGraph(range(11), edges)
        row = _flood(g, [0], [[2, 10]])[0]
        assert row.tolist() == [0, 1, 2] + [-1] * 8
        row = _flood(g, [0], [[10]])[0]
        assert row.tolist() == [0] + [-1] * 10
        # Labelled alike, an unreachable target only lets the flood run
        # until the source's component is exhausted.
        row = _flood(g, [0], [[2, 10]], np.zeros(11, dtype=bool))[0]
        assert row.tolist() == list(range(10)) + [-1]

    def test_source_is_its_own_only_target(self):
        g = CompactGraph(range(4), [[0, 1], [1, 2], [2, 3]])
        rows = _flood(g, [2, 2], [[2], [2, 2]])
        assert rows.tolist() == [[-1, -1, 0, -1]] * 2

    def test_empty_inputs(self):
        g = CompactGraph(range(4), [[0, 1], [2, 3]])
        assert _flood(g, [], []).shape == (0, 4)
        rows = _flood(g, [0, 3], [[], np.empty(0, int)])
        assert rows.tolist() == [[0, -1, -1, -1], [-1, -1, -1, 0]]


def _sparse_random_graph(rng, n):
    """Non-contiguous IDs, few enough edges for several components and
    isolated nodes."""
    ids = np.sort(rng.choice(5 * n + 1, size=n, replace=False))
    pairs = ids[rng.integers(0, max(n, 1), size=(int(n * rng.uniform(0.3, 1.6)), 2))]
    return CompactGraph(ids, pairs[pairs[:, 0] != pairs[:, 1]])


def _dijkstra_rows(g, sources):
    """The oracle: scipy's unweighted Dijkstra in undirected mode, which
    no production path calls — -1 where a pair is unreachable."""
    from scipy.sparse.csgraph import dijkstra

    idx = g.index_of_many(sources)
    if idx.size == 0:
        return np.empty((0, g.n), dtype=np.int64)
    d = dijkstra(g.sparse(), directed=False, unweighted=True, indices=idx)
    return np.where(np.isinf(d), -1, d).astype(np.int64).reshape(idx.size, g.n)


class TestFewSourceBFS:
    """Below a word of distinct sources ``hop_rows`` runs one scipy BFS
    per source and decodes depths by pointer jumping; it must return the
    Dijkstra oracle's matrix, in the compact dtype."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 40))
    def test_matches_dijkstra_property(self, data, n):
        """Gappy IDs, several components and isolated nodes, parallel
        edges, sources repeated and in any order."""
        ids = data.draw(st.lists(st.integers(0, 5_000), min_size=n,
                                 max_size=n, unique=True))
        edges = []
        if n >= 2:
            pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
            edges = [e for e in data.draw(st.lists(pairs, max_size=2 * n))
                     if e[0] != e[1]]
        g = CompactGraph(ids, np.array(edges, dtype=np.int64).reshape(-1, 2))
        sources = (data.draw(st.lists(st.sampled_from(ids), max_size=63))
                   if n else [])
        rows = hop_rows(g, g.index_of_many(sources))
        assert rows.dtype == hop_dtype(g.n) and rows.shape == (len(sources), n)
        assert np.array_equal(rows, _dijkstra_rows(g, sources))
        assert np.array_equal(_rows(g, sources), rows)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, n):
        g = CompactGraph(range(n), [[0, 1]] if n == 2 else [])
        assert hop_rows(g, np.empty(0, dtype=np.int64)).shape == (0, n)
        sources = [0, n - 1, 0] if n else []
        assert np.array_equal(_rows(g, sources),
                              _dijkstra_rows(g, sources))

    def test_isolated_and_repeated_sources(self):
        g = CompactGraph([3, 8, 20, 21, 40], [[8, 20], [20, 21]])
        rows = _rows(g, [40, 21, 3, 21, 8])
        assert rows.tolist() == [
            [-1, -1, -1, -1, 0],
            [-1, 2, 1, 0, -1],
            [0, -1, -1, -1, -1],
            [-1, 2, 1, 0, -1],
            [-1, 0, 1, 2, -1],
        ]

    def test_path_needs_int16_depths(self):
        n = 300
        g = CompactGraph(range(n), [[i, i + 1] for i in range(n - 1)])
        sources = np.array([0, 299, 150, 7])
        rows = hop_rows(g, sources)
        assert rows.dtype == np.int16 and rows.max() == n - 1
        assert np.array_equal(rows, np.abs(np.arange(n) - sources[:, None]))
        assert np.array_equal(rows, _dijkstra_rows(g, sources))

    def test_unit_disk_graph_with_components(self):
        rng = np.random.default_rng(11)
        n = 3_000
        pts = rng.uniform(0, np.sqrt(n), size=(n, 2))
        g = CompactGraph(np.arange(n), unit_disk_edges(pts, 1.2))
        assert np.unique(g.components()).size > 1
        sources = rng.choice(n, size=12, replace=False)
        rows = hop_rows(g, sources)
        oracle = _dijkstra_rows(g, sources)
        assert np.array_equal(rows, oracle)
        assert (oracle < 0).any() and oracle.max() > 20


class TestSparseView:
    def test_float64_int32_layout_built_once(self):
        g = CompactGraph(range(4), [[0, 1], [1, 2]])
        a = g.sparse()
        assert a is g.sparse()
        assert a.dtype == np.float64
        assert a.indices.dtype == np.int32 and a.indptr.dtype == np.int32

    def test_data_is_one_broadcast_value(self):
        """The all-ones data holds no per-entry bytes: a read-only
        stride-0 view, which scipy's traversals read as it is."""
        g = CompactGraph(range(5), [[0, 1], [1, 2], [3, 4]])
        a = g.sparse()
        assert a.data.strides == (0,) and not a.data.flags.writeable
        assert a.data.size == a.nnz == 6 and (a.data == 1.0).all()
        assert np.unique(g.components()).size == 2

    @pytest.mark.parametrize("edges,n_components", [
        ([[0, 1], [1, 0], [0, 1], [2, 3]], 3),  # one pair listed three times
        ([[1, 1], [1, 2]], 4),                  # self-loop: twice in its row
        ([[2, 3], [0, 1]], 3),                  # unique but not ascending
    ])
    def test_repeated_entries_are_merged(self, edges, n_components):
        g = CompactGraph(range(5), edges)
        a = g.sparse()
        keys = np.repeat(np.arange(5), np.diff(a.indptr)) * 5 + a.indices
        assert np.unique(keys).size == keys.size
        # scipy's strong components would never return on a repeated
        # entry; merged, they terminate and read the undirected partition.
        labels = g.components()
        assert np.unique(labels).size == n_components
        assert all(labels[u] == labels[v] for u, v in edges)

    def test_canonical_edges_are_simple(self):
        """Canonical edges list every neighbor once, both ways, and the
        scipy view keeps the entries as they are."""
        pts = DiscRegion(1.0).sample(200, np.random.default_rng(2))
        edges = unit_disk_edges(pts, 0.2)
        a = CompactGraph(np.arange(200), edges).sparse()
        keys = np.repeat(np.arange(200), np.diff(a.indptr)) * 200 + a.indices
        assert a.nnz == 2 * len(edges) == np.unique(keys).size
        assert (a != a.T).nnz == 0
        assert CompactGraph([1, 2], np.empty((0, 2))).sparse().nnz == 0


class TestBitsetBFS:
    """The bit-parallel kernel returns scipy Dijkstra's matrix."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 90),
           n_sources=st.sampled_from([1, 63, 64, 65, 130]))
    def test_matches_dijkstra_property(self, seed, n, n_sources):
        rng = np.random.default_rng(seed)
        g = _sparse_random_graph(rng, n)
        # Drawn with replacement and left unsorted: duplicates for sure
        # once n_sources > n.
        sources = rng.choice(g.node_ids, size=n_sources)
        dtype = hop_dtype(g.n)
        rows = repro.graphs._bitset_bfs(g, g.index_of_many(sources), dtype)
        assert rows.dtype == dtype and rows.shape == (n_sources, g.n)
        assert np.array_equal(rows, _dijkstra_rows(g, sources))
        # hop_rows picks its kernel by itself and agrees either way.
        public = _rows(g, sources)
        assert public.dtype == np.int64 and np.array_equal(public, rows)

    @pytest.mark.parametrize("n_sources", [1, 63, 64, 65, SOURCE_BLOCK,
                                           SOURCE_BLOCK + 1])
    def test_word_and_block_boundaries(self, n_sources):
        rng = np.random.default_rng(n_sources)
        n = 600
        pts = rng.uniform(0, np.sqrt(n), size=(n, 2))
        g = CompactGraph(np.arange(n), unit_disk_edges(pts, 1.6))
        assert np.unique(g.components()).size > 1
        sources = rng.choice(n, size=n_sources, replace=False)
        rows = repro.graphs._bitset_bfs(g, sources, hop_dtype(n))
        oracle = _dijkstra_rows(g, sources)
        assert np.array_equal(rows, oracle)
        assert (oracle < 0).any() and oracle.max() > 8

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, n):
        g = CompactGraph(range(n), [[0, 1]] if n == 2 else [])
        assert repro.graphs._bitset_bfs(
            g, np.empty(0, dtype=np.int64), hop_dtype(n)).shape == (0, n)
        if n:
            sources = np.arange(70) % n  # a word and a bit, all repeats
            rows = repro.graphs._bitset_bfs(g, sources, hop_dtype(n))
            assert np.array_equal(rows, _dijkstra_rows(g, sources))

    def test_isolated_nodes_first_last_and_between(self):
        # reduceat mis-reads empty neighbor slices unless they are left
        # out: isolated nodes at both ends of the CSR and in the middle.
        g = CompactGraph(range(8), [[1, 2], [2, 4], [5, 6]])
        sources = np.arange(70) % 8
        rows = repro.graphs._bitset_bfs(g, sources, hop_dtype(8))
        assert np.array_equal(rows, _dijkstra_rows(g, sources))
        assert rows[0].tolist() == [0] + [-1] * 7
        assert rows[1].tolist() == [-1, 0, 1, -1, 2, -1, -1, -1]

    def test_path_graph_needs_the_wider_dtype(self):
        n = 300
        g = CompactGraph(range(n), [[i, i + 1] for i in range(n - 1)])
        rows = hop_rows(g, np.arange(n))
        assert rows.dtype == np.int16
        expected = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        assert np.array_equal(rows, expected) and rows.max() == n - 1

    @pytest.mark.parametrize("n,dtype", [
        (128, np.int8), (129, np.int16), (2**15, np.int16), (2**15 + 1, np.int32),
    ])
    def test_hop_dtype_holds_the_longest_path(self, n, dtype):
        assert hop_dtype(n) == dtype
        assert np.iinfo(dtype).max >= n - 1

    def test_longest_path_in_the_narrowest_dtype(self):
        n = 128
        g = CompactGraph(range(n), [[i, i + 1] for i in range(n - 1)])
        rows = hop_rows(g, np.arange(n))
        assert rows.dtype == np.int8 and rows[0, -1] == 127 == rows.max()

    def test_unknown_id_is_a_key_error_in_both_regimes(self):
        g = CompactGraph(range(100), [[i, i + 1] for i in range(99)])
        with pytest.raises(KeyError):
            _rows(g, [0, 100])
        with pytest.raises(KeyError):
            _rows(g, list(range(80)) + [100])

    def test_few_sources_never_reach_the_dense_sweep(self, monkeypatch):
        """Regime pin, large side: a hop sample at n above
        ``SWEEP_NODES`` (8 whole rows plus 2 sources in each of 6
        clusters per level) never enters the dense sweep, which would cost
        ~300 levels over 9e5 CSR entries at n = 1e5.  Its whole rows take
        one scipy BFS each, however many there are, and its targeted rows
        one scoped flood per level, none holding more labels than one
        level draws, all on the giant mask the whole rows recorded.
        Outside sampling, only a full machine word of *distinct* sources
        is handed to the bit-parallel kernel."""
        from repro.analysis import levels_for
        from repro.hierarchy import build_hierarchy, sample_hop_counts

        def boom(*args):
            raise AssertionError("dense sweep entered")

        floods = []
        real_flood = repro.graphs._scoped_flood
        monkeypatch.setattr(repro.graphs, "_bitset_bfs", boom)
        monkeypatch.setattr(
            repro.graphs, "_scoped_flood",
            lambda g, s, t, labels: floods.append((s.size, labels))
            or real_flood(g, s, t, labels))
        rng = np.random.default_rng(3)
        n = SWEEP_NODES + 200
        pts = rng.uniform(0, np.sqrt(n), size=(n, 2))
        edges = unit_disk_edges(pts, 1.5)
        g = CompactGraph(np.arange(n), edges)
        h = build_hierarchy(np.arange(n), edges, max_levels=levels_for(n))
        h_net, h_levels = sample_hop_counts(g, rng, n_sources=8, h=h,
                                            clusters_per_level=6,
                                            sources_per_cluster=2)
        assert h_net > 1 and all(v > 0 for v in h_levels.values())
        assert len(floods) == h.num_levels
        assert all(size <= 12 and labels is g._giant
                   for size, labels in floods)
        assert sample_hop_counts(g, rng, n_sources=16)[0] > 1
        assert _rows(g, np.arange(63)).shape == (63, n)
        # 64 rows, 63 distinct sources: still not a word's worth.
        assert _rows(g, np.arange(64) % 63).shape == (64, n)
        with pytest.raises(AssertionError, match="dense sweep"):
            _rows(g, np.arange(64))
        assert sample_hop_counts(g, rng, n_sources=64)[0] > 1

    @pytest.mark.parametrize("n", [400, SWEEP_NODES])
    def test_small_hop_sample_takes_one_sweep(self, n, monkeypatch):
        """Regime pin, small side: up to ``SWEEP_NODES`` (one word of
        sources) a whole hop sample is one bit-parallel sweep, and no
        per-source scipy BFS or scoped flood runs."""
        from repro.hierarchy import build_hierarchy, sample_hop_counts

        def boom(*args):
            raise AssertionError("per-source or scoped BFS entered")

        sweeps = []
        real = repro.graphs._bitset_bfs
        monkeypatch.setattr(repro.graphs, "_bitset_bfs",
                            lambda g, s, d: sweeps.append(s.size)
                            or real(g, s, d))
        monkeypatch.setattr(repro.graphs, "_bfs_depths", boom)
        monkeypatch.setattr(repro.graphs, "_scoped_flood", boom)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, np.sqrt(n), size=(n, 2))
        edges = unit_disk_edges(pts, 1.5)
        g = CompactGraph(np.arange(n), edges)
        h = build_hierarchy(np.arange(n), edges, max_levels=3)
        h_net, h_levels = sample_hop_counts(g, rng, n_sources=8, h=h,
                                            clusters_per_level=6,
                                            sources_per_cluster=2)
        assert h_net > 1 and all(v > 0 for v in h_levels.values())
        assert len(sweeps) == 1 and 8 < sweeps[0] <= 64
        assert sample_hop_counts(g, rng, n_sources=8)[0] > 1
        assert len(sweeps) == 2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(2, 60))
def test_bfs_matches_networkx_property(seed, n):
    rng = np.random.default_rng(seed)
    pts = DiscRegion(1.0).sample(n, rng)
    edges = unit_disk_edges(pts, 0.4)
    g = CompactGraph(np.arange(n), edges)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(map(tuple, edges.tolist()))
    src = int(rng.integers(n))
    ref = nx.single_source_shortest_path_length(nxg, src)
    ours = bfs_distances(g, src)
    for v in range(n):
        assert ours[v] == ref.get(v, -1)
    # The batched call returns the same rows, one per source, in order.
    batch = _rows(g, [src, 0, src])
    assert batch.shape == (3, n) and batch.dtype == np.int64
    assert np.array_equal(batch[0], ours) and np.array_equal(batch[2], ours)
    assert np.array_equal(batch[1], bfs_distances(g, 0))
    assert _rows(g, []).shape == (0, n)
    # Scoped to any target set, the target columns are the same.
    t = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
    assert np.array_equal(_flood(g, [src], [t])[0][t], ours[t])
