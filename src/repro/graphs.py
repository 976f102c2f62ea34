"""Shared lightweight graph kernels (CSR adjacency + BFS).

Both the hierarchy statistics (h_k estimation) and the routing layer need
many unweighted shortest-path queries per simulation step, on graphs from
a few hundred to 10^5 nodes.  NetworkX is convenient but allocates
heavily; :class:`CompactGraph` keeps the adjacency as two CSR arrays —
int64 offsets and one read-only int32 neighbor list, which is also the
``indices`` of its scipy view, so scipy never holds a copy — and serves
distance queries three ways:

* whole rows from a few sources: one scipy C-level BFS per source, its
  visit order and BFS-tree predecessors decoded into hop counts by
  pointer jumping (:func:`hop_rows`, :func:`bfs_distances`,
  :func:`_bfs_depths`);
* whole rows from a machine word of sources or more: a bit-parallel
  level sweep, one bit per source (:func:`_bitset_bfs`, which
  :func:`hop_rows` picks by itself);
* a whole hop sample (a few whole rows plus a few cluster-scoped rows
  per level, reduced to sums): :func:`hop_sums`, which below
  :data:`SWEEP_NODES` runs every source in one bit-parallel sweep and
  above it takes one scipy row per whole row and one
  :func:`_scoped_flood` per level, stopped once the columns it reads
  are filled and summed before the next starts; a whole row that spans
  the giant component records it.

:class:`IdIndex` is the ID -> row compaction itself, for the layers that
map sorted level or cluster IDs to array rows without building a graph
(hierarchy ancestry, CSR cluster partitions, the CHLM descent, handoff
metering).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "id_array",
    "is_canonical",
    "sorted_unique_ids",
    "IdIndex",
    "CompactGraph",
    "bfs_distances",
    "hop_rows",
    "hop_sums",
]


_INT32 = np.iinfo(np.int32)


def id_array(values, what: str = "node ID") -> np.ndarray:
    """``values`` (an array or nested list of ints) as an int32 array:
    node IDs and rows are int32 throughout, and only keys that combine
    two of them are int64 (docs/ARCHITECTURE.md, "Data layout: IDs and
    keys").

    int32 input comes back as it is, not copied.  A value outside int32
    raises ``ValueError`` naming it (``what`` says what it is) rather
    than wrapping; non-integer input is truncated to int64 first.
    """
    a = np.asarray(values)
    if a.dtype == np.int32:
        return a
    if a.dtype.kind not in "iu":
        a = np.asarray(a, dtype=np.int64)
    if a.size and (a.dtype.itemsize > 4 or a.dtype == np.uint32):
        lo, hi = a.min(), a.max()
        if lo < _INT32.min or hi > _INT32.max:
            bad = int(lo) if lo < _INT32.min else int(hi)
            raise ValueError(f"{what} {bad} is outside int32")
    return a.astype(np.int32)


def sorted_unique_ids(node_ids) -> np.ndarray:
    """``node_ids`` (any iterable of ints) as a sorted duplicate-free
    int32 array (:func:`id_array`: an ID outside int32 raises
    ``ValueError``).

    Strictly ascending int32 input — the engine's ``arange``, every
    level's clusterheads — is returned as it came, not copied: the check
    is one pass where ``np.unique`` costs 21-27 ms at n = 1e5, per level
    graph and per step.
    """
    if not isinstance(node_ids, np.ndarray):
        node_ids = list(node_ids)
    ids = id_array(node_ids).reshape(-1)
    if np.any(ids[1:] <= ids[:-1]):
        ids = np.unique(ids)
    return ids


_TABLE_SLACK = 1 << 17
"""Lookup-table slots allowed beyond eight per ID (512 KiB of int32)."""


class IdIndex:
    """Row lookup over a sorted unique ID array.

    Rows are int32, like the IDs (:func:`id_array`), and int32 queries
    are read as they are, not widened.  Non-negative IDs
    whose range fits eight slots per ID plus ``_TABLE_SLACK`` are served
    by one gather from an ``int32`` table —
    node IDs ``0..n-1`` at any n, and every level's cluster heads drawn
    from them up to n ~ 10^5; anything sparser (persistent elections mint
    cluster IDs >= 10^7) by a sorted search.  The table costs one pass
    over the ID range to build and answers random-order queries ~50x
    faster than the search, so it pays for itself once it is shared by a
    few lookups.  ``span`` stretches the table over every value below it
    (within the same budget), so queries known to stay under ``span``
    skip the out-of-range path even when most of them miss.
    """

    __slots__ = ("ids", "_table")

    def __init__(self, ids: np.ndarray, span: int = 0):
        self.ids = ids
        self._table = None
        if ids.size and ids[0] >= 0:
            size = max(int(ids[-1]) + 1, span)
            if size <= 8 * ids.size + _TABLE_SLACK:
                self._table = np.full(size, -1, dtype=np.int32)
                self._table[ids] = np.arange(ids.size, dtype=np.int32)

    def rows(self, values) -> np.ndarray:
        """Position of each value within ``ids`` as int32; -1 where
        absent."""
        values = np.asarray(values)
        if values.dtype.kind not in "iu" or values.dtype == np.uint64:
            values = values.astype(np.int64)  # what ``take`` can index by
        ids, table = self.ids, self._table
        if values.size == 0 or ids.size == 0:
            return np.full(values.shape, -1, dtype=np.int32)
        if table is None:
            pos = np.minimum(np.searchsorted(ids, values), ids.size - 1,
                             dtype=np.int32)
            return np.where(ids[pos] == values, pos, np.int32(-1))
        if values.min() >= 0 and values.max() < table.size:
            # ``take`` gathers by int32 indices at half the cost of
            # fancy indexing, which first widens them to intp.
            return table.take(values)
        inside = (values >= 0) & (values < table.size)
        return np.where(inside, table.take(np.where(inside, values, 0)),
                        np.int32(-1))

    def contains(self, values) -> np.ndarray:
        """Boolean membership of each value in ``ids``."""
        return self.rows(values) >= 0


def is_canonical(ui: np.ndarray, vi: np.ndarray) -> bool:
    """Whether edge rows ``(ui, vi)`` list every edge once as ``u < v``
    in strictly ascending ``(u, v)`` order (compared pairwise, so no
    int64 key array is built)."""
    if not np.all(ui < vi):
        return False
    tie = ui[1:] == ui[:-1]
    return bool(np.all(np.where(tie, vi[1:] > vi[:-1], ui[1:] > ui[:-1])))


class CompactGraph:
    """Immutable adjacency-list graph over arbitrary integer IDs.

    IDs are mapped to compact indices once at construction; all queries
    accept and return original IDs.
    """

    _index = None
    """Lazy :class:`IdIndex` over ``node_ids``.  Class-level default and
    never pickled, so a checkpointed graph keeps its layout."""

    _giant = None
    """Boolean mask of the largest component, recorded by :func:`hop_sums`
    the first time a whole BFS row reaches more than half the nodes.
    Class-level default and never pickled, like ``_index``."""

    _sparse = None
    """Lazy scipy CSR view (:meth:`sparse`).  Class-level default and
    never pickled: a restored graph rebuilds it over its own neighbor
    list rather than carrying a copy."""

    def __init__(self, node_ids, edges):
        self.node_ids = sorted_unique_ids(node_ids)
        n = self.node_ids.size
        if n >= 1 << 31:
            raise ValueError(f"{n} nodes: int32 neighbor lists hold < 2**31")
        e = id_array(edges, "edge endpoint").reshape(-1, 2)
        if n and self.node_ids[0] == 0 and self.node_ids[-1] == n - 1:
            # IDs 0..n-1 are their own rows: no gather, a range check.
            ui, vi = e[:, 0], e[:, 1]
            unknown = e.size and (e.min() < 0 or e.max() >= n)
        else:
            ui, vi = self._rows(e[:, 0]), self._rows(e[:, 1])
            unknown = e.size and (ui.min() < 0 or vi.min() < 0)
        if unknown:
            raise ValueError("edges reference ids not in node_ids")
        # Canonical edges (u < v, strictly ascending keys: every unit-disk
        # edge array and every subset of one) go in as they stand; others
        # are flipped to u < v, self-loops dropped, repeats merged.
        if not is_canonical(ui, vi):
            lo = np.minimum(ui, vi).astype(np.int64)
            hi = np.maximum(ui, vi)
            keys = lo * n
            keys += hi
            ui, vi = np.divmod(np.unique(keys[lo < hi]), n)
            ui, vi = ui.astype(np.int32), vi.astype(np.int32)
        # CSR neighbor lists (neighbor order decides BFS ties and next
        # hops): node x lists row x of the edges' upper triangle, then
        # column x, both ascending.  The columns are one sort of the
        # edges keyed (v << 32 | u), whose low halves, read in order, are
        # the triangle transposed.  ``ahead`` marks the row slots of
        # every list, so each part fills its slots in order with one
        # masked copy.
        fwd = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ui, minlength=n), out=fwd[1:])
        back = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(vi, minlength=n), out=back[1:])
        col = vi.astype(np.int64)
        col <<= 32
        col |= ui
        col.sort()
        ahead = np.repeat(np.tile([True, False], n),
                          np.column_stack((np.diff(fwd),
                                           np.diff(back))).ravel())
        self._nbr = np.empty(2 * ui.size, dtype=np.int32)
        self._nbr[ahead] = vi
        self._nbr[~ahead] = col.astype(np.int32)  # wraps to the low half
        self._nbr.flags.writeable = False
        self._offsets = fwd + back
        self._components = None  # lazy per-node component labels

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_index", "_giant", "_sparse")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._nbr.flags.writeable = False

    @property
    def n(self) -> int:
        return int(self.node_ids.size)

    def _rows(self, ids) -> np.ndarray:
        """Compact index of each node ID, -1 where absent."""
        if self._index is None:
            self._index = IdIndex(self.node_ids)
        return self._index.rows(ids)

    def index_of(self, v: int) -> int:
        """Compact index of node ID ``v`` (KeyError if absent)."""
        i = int(self._rows(v))
        if i < 0:
            raise KeyError(f"unknown node id {v}")
        return i

    def index_of_many(self, ids) -> np.ndarray:
        """Compact indices of an array of node IDs (KeyError if any absent)."""
        idx = self._rows(ids).reshape(-1)
        if idx.size and idx.min() < 0:
            raise KeyError("unknown node id(s)")
        return idx

    def neighbors_idx(self, i: int) -> np.ndarray:
        """Neighbor *indices* of node index ``i``."""
        return self._nbr[self._offsets[i] : self._offsets[i + 1]]

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor IDs of node ID ``v``."""
        return self.node_ids[self.neighbors_idx(self.index_of(v))]

    def degree(self, v: int) -> int:
        """Number of neighbors of node ID ``v``."""
        i = self.index_of(v)
        return int(self._offsets[i + 1] - self._offsets[i])

    def sparse(self):
        """Lazily-built ``scipy.sparse.csr_matrix`` adjacency view.

        Built once in the layout every ``scipy.sparse.csgraph`` routine
        converts its input to — ``float64`` data, ``int32`` indices — so
        their validation passes it through instead of copying the data
        on every call (an ``int8`` view cost 10 ms per BFS at n = 1e5).
        Its ``indices`` *are* the graph's read-only neighbor list, not a
        copy: a routine that tried to reorder them in place would raise.
        Its ``data`` is one read-only ``1.0`` broadcast over every entry
        (stride 0), not an array of ones: the traversals read only the
        structure, and a stored copy cost 8 bytes per entry (7.2 MiB at
        n = 1e5), the largest array a hop sample held.  Every neighbor is
        listed once (the constructor canonicalises), which scipy's
        strong-components traversal needs: it never returns on a CSR that
        lists a neighbor twice.
        """
        if self._sparse is None:
            from scipy.sparse import csr_matrix

            data = np.broadcast_to(np.float64(1.0), self._nbr.shape)
            self._sparse = csr_matrix(
                (data, self._nbr, self._offsets.astype(np.int32)),
                shape=(self.n, self.n),
            )
        return self._sparse

    def components(self) -> np.ndarray:
        """Lazily-computed connected-component label of every node index."""
        if self._components is None:
            from scipy.sparse.csgraph import connected_components

            # The CSR holds both directions of every edge, so its strong
            # components are the undirected ones and no transpose is built.
            self._components = connected_components(
                self.sparse(), directed=True, connection="strong"
            )[1]
        return self._components


SOURCE_BLOCK = 512
"""Sources one bit-parallel sweep carries: eight ``uint64`` words per
node, which bounds a sweep's temporaries at 512 bits per CSR entry and
512 distances per node however many sources a call names.  An unblocked
all-pairs sweep loses to scipy from n ~ 2000 on, where its working set
leaves the cache."""

SWEEP_NODES = 3_000
"""Largest ``n x ceil(sources / 64)`` at which :func:`hop_sums` serves a
whole hop sample with one bit-parallel sweep.  A sweep costs the same
for 1 source as for 64, so at small n the number of traversals decides:
one sweep beats a scipy row per network source plus a scoped flood per
level (3.5 vs 10.4 ms at n = 1000 with 80 sources).  One word breaks
even at n ~ 3000 and two at ~3500; above that the floods, which stop at
each source's own cluster, win."""

_WORD_BITS = 64


def hop_dtype(n: int) -> np.dtype:
    """Narrowest signed integer type holding every hop count of an
    ``n``-node graph (at most ``n - 1``) and the -1 of "unreachable"."""
    return np.dtype(np.int8 if n <= 1 << 7 else
                    np.int16 if n <= 1 << 15 else np.int32)


def hop_rows(g: CompactGraph, sources_idx: np.ndarray,
             dtype=None) -> np.ndarray:
    """One full distance row per node *index* in ``sources_idx`` (row
    ``i`` from ``sources_idx[i]``), as ``dtype`` (default
    :func:`hop_dtype`, the compact form a hop matrix is stored in).

    Fewer distinct sources than bits in a machine word run as one scipy
    C-level BFS per source (:func:`_bfs_depths`; ~2x scipy's unweighted
    Dijkstra at n = 1e5, decode included).  A full word or more run as
    :func:`_bitset_bfs`, whose sweep costs the same for 1 source as for
    64: it is ahead from 64 sources up at every n measured (to 5000) and
    behind below that from n ~ 2000 (:func:`hop_sums` decides for a
    whole hop sample on its own).  Both are exact; unreachable pairs
    read -1.
    """
    dtype = hop_dtype(g.n) if dtype is None else np.dtype(dtype)
    if (sources_idx.size >= _WORD_BITS
            and np.unique(sources_idx).size >= _WORD_BITS):
        return _bitset_bfs(g, sources_idx, dtype)
    out = np.full((sources_idx.size, g.n), -1, dtype=dtype)
    for row, s in zip(out, sources_idx):
        order, depth = _bfs_depths(g, int(s))
        row[order] = depth
    return out


def hop_sums(g: CompactGraph, sources_idx: np.ndarray, targets: list,
             groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum and count of the positive hop distances each group of sources
    reads, as int64 arrays indexed by group.

    Source ``i`` (node index ``sources_idx[i]``) reads its whole row where
    ``targets[i]`` is None and the column set ``targets[i]`` (node
    indices) otherwise, and adds them into group ``groups[i]``; the
    source itself (0) and unreachable nodes (-1) are not counted.

    While ``n x words`` is at most :data:`SWEEP_NODES` one
    :func:`_bitset_bfs` sweep returns every row at once.  Above it each
    whole row is one scipy BFS, summed as it is decoded, and each
    group's targeted rows run through one :func:`_scoped_flood`, so a
    flood never carries more labels than one group holds.  The first
    whole row to reach more than half the nodes has found the largest
    component: its mask is recorded on ``g`` for the floods and
    :func:`repro.sim.kernels.giant_fraction`, which then need no
    component labels.
    """
    n_groups = int(groups.max()) + 1 if groups.size else 0
    whole = np.array([t is None for t in targets], dtype=bool)
    if g.n * -(-sources_idx.size // _WORD_BITS) <= SWEEP_NODES:
        rows = _bitset_bfs(g, sources_idx, hop_dtype(g.n))
        reach = rows[whole] >= 0
        spans = np.flatnonzero(2 * np.count_nonzero(reach, axis=1) > g.n)
        if spans.size:
            g._giant = reach[spans[0]]
        return _row_sums(rows, targets, groups, n_groups)
    totals = np.zeros(n_groups, dtype=np.int64)
    counts = np.zeros(n_groups, dtype=np.int64)
    for i in np.flatnonzero(whole):
        order, depth = _bfs_depths(g, int(sources_idx[i]))
        totals[groups[i]] += depth.sum()
        counts[groups[i]] += order.size - 1
        if g._giant is None and 2 * order.size > g.n:
            g._giant = np.zeros(g.n, dtype=bool)
            g._giant[order] = True
    scoped = np.flatnonzero(~whole)
    if scoped.size:
        labels = g.components() if g._giant is None else g._giant
        for group in np.unique(groups[scoped]):
            block = scoped[groups[scoped] == group]
            block_targets = [targets[i] for i in block]
            # The flood goes straight into its sums, so one group's rows
            # are alive at a time.
            t, c = _row_sums(
                _scoped_flood(g, sources_idx[block], block_targets, labels),
                block_targets, groups[block], n_groups)
            totals += t
            counts += c
    return totals, counts


def _row_sums(rows: np.ndarray, targets: list, groups: np.ndarray,
              n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hop_sums`' reduction of hop rows already computed: whole
    rows in place, targeted rows through one gather of their columns."""
    totals = np.zeros(n_groups, dtype=np.int64)
    counts = np.zeros(n_groups, dtype=np.int64)
    whole = np.array([t is None for t in targets], dtype=bool)
    if whole.any():
        full = rows[whole]
        reached = full > 0
        np.add.at(totals, groups[whole],
                  full.sum(axis=1, where=reached, dtype=np.int64))
        np.add.at(counts, groups[whole], np.count_nonzero(reached, axis=1))
    scoped = np.flatnonzero(~whole)
    if scoped.size:
        cols = [targets[i] for i in scoped]
        src = np.repeat(scoped, [len(c) for c in cols])
        d = rows[src, np.concatenate(cols)]
        ok = d > 0
        # Float sums of integers far below 2**53 are exact.
        totals += np.bincount(groups[src[ok]], weights=d[ok],
                              minlength=n_groups).astype(np.int64)
        counts += np.bincount(groups[src[ok]], minlength=n_groups)
    return totals, counts


def _bfs_depths(g: CompactGraph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Hop distances from node index ``source`` to every node it reaches:
    ``(order, depth)``, the reached indices in BFS order and their hop
    counts.

    scipy's ``breadth_first_order`` returns the visit order and the
    BFS-tree predecessors; the depth of a node in that tree is its hop
    distance.  The depths are decoded by pointer jumping over BFS-order
    positions — each round adds the depth between a node and its current
    ancestor, then doubles the ancestor step — so the decode is
    log2(eccentricity) whole-array rounds rather than a loop per BFS
    level.  The CSR holds both directions of every edge, hence
    ``directed=True`` (undirected mode would only add a transpose).
    """
    from scipy.sparse.csgraph import breadth_first_order

    order, pred = breadth_first_order(g.sparse(), source, directed=True,
                                      return_predecessors=True)
    order = order.astype(np.intp)
    position = np.empty(g.n, dtype=np.intp)
    position[order] = np.arange(order.size)
    parent = pred[order]
    parent[0] = source  # the root is its own ancestor
    up = position[parent]
    depth = np.ones(order.size, dtype=np.intp)
    depth[0] = 0
    # BFS lists a level's nodes after every node of the level before, so
    # ``up`` is non-decreasing and stays so under jumping: once its last
    # entry is the root (position 0), every entry is.
    while up[-1]:
        depth += depth[up]
        up = up[up]
    return order, depth


def _bitset_bfs(g: CompactGraph, sources_idx: np.ndarray,
                dtype: np.dtype) -> np.ndarray:
    """Distance-only BFS from many sources at once, one *bit* each.

    Sources are swept in blocks of :data:`SOURCE_BLOCK`.  Within a block
    source ``j`` owns bit ``j`` of a ``(n, ceil(block / 64))`` ``uint64``
    array: ``reach[v]`` has the bit once ``j`` has reached ``v``.  One
    BFS level for the whole block is one gather of the frontier words
    over the CSR neighbor array and one ``bitwise_or.reduceat`` over its
    offsets; the bits that are new, ``nxt & ~reach``, are the next
    frontier.  A bit set at level ``d`` is a pair at distance ``d``, and
    the distances are kept bit-sliced too: plane ``p`` collects the new
    bits of every level whose binary form has bit ``p``, so a level
    costs a few word operations per node and the only passes over all
    ``n x block`` pairs are the final decode, one per plane (log2 of the
    eccentricity).  Bits never set are unreachable pairs, -1.

    Repeated and unsorted sources are fine (a position is a bit); the
    result is exactly the hop matrix of :func:`_bfs_depths`, one source
    at a time.
    """
    n = g.n
    offsets, nbr = g._offsets, g._nbr
    # reduceat reads an empty segment as its next element, so isolated
    # nodes are left out of it: the remaining starts are strictly
    # increasing and delimit exactly the linked nodes' neighbor slices.
    linked = np.flatnonzero(offsets[1:] > offsets[:-1])
    starts = offsets[linked]
    out = np.empty((sources_idx.size, n), dtype=dtype)
    for b0 in range(0, sources_idx.size, SOURCE_BLOCK):
        block = sources_idx[b0:b0 + SOURCE_BLOCK]
        s = block.size
        reach = np.zeros((n, -(-s // _WORD_BITS)), dtype=np.uint64)
        # Seeded here and decoded in _unpack through the same byte view,
        # so a bit's place in its word never depends on the host's byte
        # order.
        j = np.arange(s)
        np.bitwise_or.at(reach.view(np.uint8), (block, j >> 3),
                         (1 << (j & 7)).astype(np.uint8))
        frontier = reach.copy()
        nxt = np.zeros_like(reach)
        planes: list[np.ndarray] = []
        level = 0
        while starts.size:
            level += 1
            nxt[linked] = np.bitwise_or.reduceat(
                np.take(frontier, nbr, axis=0), starts, axis=0)
            nxt &= ~reach
            if not nxt.any():
                break
            reach |= nxt
            if level >> len(planes):
                planes.append(np.zeros_like(reach))
            for p, plane in enumerate(planes):
                if level >> p & 1:
                    plane |= nxt
            frontier, nxt = nxt, frontier
        dist = np.zeros((n, s), dtype=dtype)
        shifted = np.empty_like(dist)
        for p, plane in enumerate(planes):
            np.left_shift(_unpack(plane, s), p, out=shifted, dtype=dtype,
                          casting="unsafe")
            dist |= shifted
        dist[_unpack(~reach, s).view(bool)] = -1
        out[b0:b0 + s] = dist.T
    return out


def _unpack(words: np.ndarray, count: int) -> np.ndarray:
    """``(n, count)`` 0/1 bytes: column ``j`` is bit ``j`` of each row of
    ``words`` in :func:`_bitset_bfs`'s numbering."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=count,
                         bitorder="little")


def _scoped_flood(g: CompactGraph, sources_idx: np.ndarray,
                  targets_idx: list[np.ndarray],
                  labels: np.ndarray) -> np.ndarray:
    """Distance-only BFS from many sources at once, each stopped early.

    Every source is one *label*; all labels expand one BFS level per
    iteration over the CSR arrays (the frontier-gather technique of
    :func:`repro.routing.bfs_kernels.labeled_next_hop`, without next
    hops).  A label leaves the frontier once every target it can reach
    has a distance.  ``labels`` (per node, constant on every component:
    component labels or the giant's mask) says which: a target labelled
    unlike its source is never waited for, and one labelled alike but
    unreachable keeps its label only until the source's own (small)
    component is exhausted.  BFS discovers nodes in distance order, so
    every filled cell is the exact distance.

    The distances are int32 whenever a level's dedup tags (one per
    gathered neighbor slot, at most ``n_labels`` times the CSR's size)
    fit it, which is every graph this runs on.
    """
    n = g.n
    offsets, nbr = g._offsets, g._nbr
    n_labels = sources_idx.size
    dtype = np.int32 if n_labels * nbr.size < 1 << 31 else np.int64
    dist = np.full(n_labels * n, -1, dtype=dtype)
    needed = np.zeros(n_labels * n, dtype=bool)
    for j, t in enumerate(targets_idx):
        # int64 before the label offset: past 2**31 cells it would wrap.
        needed[t[labels[t] == labels[sources_idx[j]]].astype(np.int64)
               + j * n] = True
    f_labels = np.arange(n_labels, dtype=np.int64)
    seeds = f_labels * n + sources_idx
    dist[seeds] = 0
    needed[seeds] = False
    remaining = needed.reshape(n_labels, n).sum(axis=1)
    live = remaining > 0
    f_nodes, f_labels = sources_idx[live], f_labels[live]
    level = 0
    while f_nodes.size:
        level += 1
        starts = offsets[f_nodes]
        counts = offsets[f_nodes + 1] - starts
        # Gather every frontier node's CSR neighbor slice: position r
        # within slice s lands at starts[s] + r.
        cum = np.cumsum(counts)
        pos = np.arange(int(cum[-1]), dtype=np.int64)
        pos += np.repeat(starts - (cum - counts), counts)
        keys = np.repeat(f_labels * n, counts) + nbr[pos]
        keys = keys[dist[keys] < 0]
        # One frontier entry per newly reached cell: tag each cell with
        # the position of its last occurrence, keep that occurrence.
        tag = np.arange(keys.size, dtype=dtype)
        dist[keys] = tag
        keys = keys[dist[keys] == tag]
        dist[keys] = level
        f_labels = keys // n
        f_nodes = keys - f_labels * n
        hits = needed[keys]
        if hits.any():
            remaining -= np.bincount(f_labels[hits], minlength=n_labels)
            keep = remaining[f_labels] > 0
            f_nodes, f_labels = f_nodes[keep], f_labels[keep]
    return dist.reshape(n_labels, n)


def bfs_distances(g: CompactGraph, source: int) -> np.ndarray:
    """Hop distance from ``source`` (ID) to every node as int64; -1 if
    unreachable.  One scipy C-level BFS (:func:`hop_rows`)."""
    return hop_rows(g, g.index_of_many([source]), np.int64)[0]
