"""Event-driven hierarchy plane: link deltas -> dirty clusters.

The paper's ALCA reorganizes *by events* — its seven event types
(i)-(vii) and the handoff bound are defined over discrete cluster-link
changes, not over global rebuilds.  This module is the stepping-plane
mirror of that model:

* :class:`DeltaPlane` consumes each step's canonical edge array and
  its level-0 :class:`~repro.radio.linkevents.LinkDiff` (the step's
  own, when the caller has one; above level 0, one merge of the
  level's edge keys), and **patches** the
  recursive ALCA election level by level with
  :class:`~repro.clustering.incremental.IncrementalElection` — which
  keeps only vote and support arrays and re-votes the endpoints of
  added/removed edges over the step's edge array.  The resulting
  :class:`~repro.hierarchy.levels.ClusteredHierarchy` is bit-identical
  to a from-scratch :func:`~repro.hierarchy.levels.build_hierarchy`
  (``tests/hierarchy/test_delta_plane.py`` fuzzes this over churn,
  crash, and partition bursts).

* :func:`compute_delta` distills two consecutive snapshots into a
  :class:`HierarchyDelta`: per-level changed-ancestry masks, the
  *dirty cells* whose member lists changed (exactly the clusters a CHLM
  hash descent could consult differently) with the members each one
  gained.  The handoff engine uses it to re-hash only dirty keys and
  diff only dirty clusters.

The delta plane never touches an RNG stream and is carried inside
simulator checkpoints, so incremental runs resume bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering.incremental import IncrementalElection
from repro.clustering.lca import Election
from repro.graphs import IdIndex
from repro.hierarchy.levels import (
    ClusteredHierarchy,
    check_link_model,
    recurse_levels,
)
from repro.radio.linkevents import sorted_key_diff
from repro.radio.unit_disk import decode_edges, encode_edges

__all__ = ["HierarchyDelta", "DeltaPlane", "LazyClusters", "compute_delta"]


class LazyClusters:
    """One level's partition in CSR form, built lazily and without the
    per-cluster python loop of :meth:`Election.clusters`.

    :meth:`csr` is what the dense rendezvous kernel consumes, and
    :meth:`index` the cluster-ID -> CSR-row lookup every descent stage
    through this partition shares; ``lazy[cid]`` returns the *same*
    sorted member array ``Election.clusters()[cid]`` would — the grouped
    slice of sorted ``node_ids`` is already ascending — but the grouping
    arrays are computed once on first access, and no per-cluster dict is
    materialized.  Instances live for one assignment pass; nothing is
    cached on the (pickled) election.
    """

    def __init__(self, election: Election):
        self._election = election
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._index: IdIndex | None = None

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(heads, starts, members)``: cluster ``heads[i]`` (ascending)
        owns ``members[starts[i]:starts[i + 1]]`` (ascending IDs)."""
        if self._csr is None:
            # The heads are the affiliation column's distinct values (a
            # head is its own member), so grouping is a counting sort over
            # their rows: a radix argsort of a narrow key, no ID compares.
            e = self._election
            heads = e.clusterheads
            index = IdIndex(heads)
            row = index.rows(e.member_of)
            counts = np.bincount(row, minlength=heads.size) if row.min() >= 0 else None
            if counts is None or not counts.all():
                raise ValueError("clusterheads are not the affiliation's values")
            order = np.argsort(row.astype(np.min_scalar_type(heads.size)),
                               kind="stable")
            starts = np.zeros(heads.size + 1, dtype=np.int64)
            np.cumsum(counts, out=starts[1:])
            self._csr = (heads, starts, e.node_ids[order])
            self._index = index
        return self._csr

    def index(self) -> IdIndex:
        """Row of a cluster ID within ``csr()``'s ``heads``."""
        if self._index is None:
            self.csr()
        return self._index

    def __getitem__(self, cid: int) -> np.ndarray:
        _, starts, members = self.csr()
        i = int(self.index().rows(np.int64(cid)))
        if i < 0:
            raise KeyError(cid)
        return members[starts[i]:starts[i + 1]]


@dataclass
class HierarchyDelta:
    """Exact change summary between two consecutive hierarchy snapshots.

    ``full=True`` means no incremental claims can be made (first step,
    node set changed, or hierarchy depth changed) and every consumer
    must fall back to its from-scratch path.  Otherwise:

    Attributes
    ----------
    level_changed:
        ``level_changed[k]`` is a boolean mask over base nodes whose
        level-k ancestor changed (``k = 0..L``; level 0 is all-False).
    dirty_cells:
        ``dirty_cells[d]`` (``d = 1..L``) is the sorted array of
        level-d cluster IDs whose *member list* (of level-(d-1) IDs)
        changed.  A CHLM descent that consults no dirty cell and starts
        from an unchanged cluster provably picks the same server.
    arrivals:
        ``arrivals[d]`` is a CSR ``(starts, members)`` aligned with
        ``dirty_cells[d]``: the level-(d-1) IDs that cell ``i`` gained
        (moved in, or new to the level) are ``members[starts[i]:starts[i
        + 1]]``, ascending; a cell that only shrank has none.  What a
        cell lost is read off the new election, so no removal list is
        kept.  Under rendezvous hashing a descent through a dirty cell
        whose recorded winner stayed can only move to an arrival.
    top_changed:
        Whether the top-level node set changed (the virtual global
        level's candidate set).
    """

    h0: ClusteredHierarchy | None
    h1: ClusteredHierarchy | None
    full: bool
    level_changed: list[np.ndarray] = field(default_factory=list)
    dirty_cells: list[np.ndarray] = field(default_factory=list)
    arrivals: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    top_changed: bool = False

    @property
    def n_changed(self) -> int:
        """Base nodes whose ancestry changed at any level."""
        if self.full:
            return -1
        total = np.zeros(0, dtype=bool)
        for mask in self.level_changed[1:]:
            total = mask if total.size == 0 else (total | mask)
        return int(total.sum()) if total.size else 0


def _dirty_cells_of(
    el0: Election, el1: Election
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Sorted cluster IDs whose member list differs between elections,
    and their arrivals as a CSR ``(starts, members)`` aligned with them
    (see :attr:`HierarchyDelta.arrivals`)."""
    ids0, ids1 = el0.node_ids, el1.node_ids
    if el0 is el1:
        return _clean()
    if np.array_equal(ids0, ids1):
        moved = el0.member_of != el1.member_of
        if not moved.any():
            return _clean()
        to, who = el1.member_of[moved], ids1[moved]
        cells = np.unique(np.concatenate([el0.member_of[moved], to]))
    else:
        in1 = np.isin(ids0, ids1, assume_unique=True)
        in0 = np.isin(ids1, ids0, assume_unique=True)
        common = ids0[in1]
        mo0 = el0.member_of[in1]
        mo1 = el1.member_of[np.searchsorted(ids1, common)]
        moved = mo0 != mo1
        # Members that moved in, and ids new to the level.
        to = np.concatenate([mo1[moved], el1.member_of[~in0]])
        who = np.concatenate([common[moved], ids1[~in0]])
        cells = np.unique(np.concatenate([
            mo0[moved], to,
            el0.member_of[~in1],  # departed ids: old cluster shrank
        ]))
        order = np.argsort(who)
        to, who = to[order], who[order]
    # `who` is ascending: a stable sort by cell keeps it so per cell.
    order = np.argsort(to, kind="stable")
    starts = np.append(np.searchsorted(to[order], cells), to.size)
    return cells, (starts, who[order])


def _clean() -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """No dirty cell and no arrival."""
    empty = np.empty(0, dtype=np.int64)
    return empty, (np.zeros(1, dtype=np.int64), empty)


def compute_delta(h0: ClusteredHierarchy | None,
                  h1: ClusteredHierarchy | None) -> HierarchyDelta:
    """Distill two consecutive snapshots into a :class:`HierarchyDelta`.

    Works for *any* construction path (incremental build, sticky or
    persistent maintainers, full rebuild): the delta is computed from
    the snapshots themselves, so its dirtiness claims are exact by
    construction.
    """
    if (
        h0 is None or h1 is None
        or h0.num_levels != h1.num_levels
        or not np.array_equal(h0.levels[0].node_ids, h1.levels[0].node_ids)
    ):
        return HierarchyDelta(h0=h0, h1=h1, full=True)
    num_levels = h1.num_levels
    level_changed = [np.zeros(h1.n, dtype=bool)]
    for k in range(1, num_levels + 1):
        level_changed.append(h0.ancestry(k) != h1.ancestry(k))
    cells, arrived = _clean()
    dirty_cells, arrivals = [cells], [arrived]
    for d in range(1, num_levels + 1):
        el0 = h0.levels[d - 1].election
        el1 = h1.levels[d - 1].election
        assert el0 is not None and el1 is not None
        cells, arrived = _dirty_cells_of(el0, el1)
        dirty_cells.append(cells)
        arrivals.append(arrived)
    top_changed = not np.array_equal(
        h0.levels[-1].node_ids, h1.levels[-1].node_ids
    )
    return HierarchyDelta(
        h0=h0, h1=h1, full=False,
        level_changed=level_changed,
        dirty_cells=dirty_cells,
        arrivals=arrivals,
        top_changed=top_changed,
    )


@dataclass
class _LevelState:
    """Per-level incremental election state (ids, edge keys, voter)."""

    ids: np.ndarray
    keys: np.ndarray
    inc: IncrementalElection
    snapshot: Election


class DeltaPlane:
    """Maintains the memoryless ALCA hierarchy from link deltas.

    :meth:`advance` takes the step's canonical edge array and runs the
    shared level recursion (:func:`~repro.hierarchy.levels.recurse_levels`)
    with an elector that *patches* each level's election in place,
    producing a hierarchy bit-identical to :func:`build_hierarchy` on the
    same topology.  A level whose node set changed (head churn) is
    re-elected from scratch; a level whose node set *and* edges are
    unchanged reuses last step's election object outright.

    The plane keeps election state only.  What changed between two
    snapshots is :func:`compute_delta`'s job, whichever way they were
    built.
    """

    def __init__(self, n: int, max_levels: int | None = None,
                 level_mode: str = "radio", r0: float | None = None):
        check_link_model(level_mode, r0)
        if n <= 1:
            raise ValueError("need at least two nodes")
        self._n = int(n)
        self._max_levels = max_levels
        self._level_mode = level_mode
        self._r0 = r0
        self._base_ids = np.arange(self._n, dtype=np.int64)
        self._state: dict[int, _LevelState] = {}
        # True when the previous advance() never elected level 0 (empty
        # edge array, first call): state[0] is then stale relative to
        # the last edge snapshot, and a caller-supplied one-step diff
        # must not be trusted against it.
        self._stale0 = True

    def _level_election(self, k: int, cur_ids: np.ndarray,
                        cur_edges: np.ndarray,
                        diff=None) -> Election:
        """Election at level k: patched when the node set held, rebuilt
        otherwise, reused outright when nothing changed.

        ``diff`` is an optional pre-computed
        :class:`~repro.radio.linkevents.LinkDiff` between ``cur_edges``
        and the edges of the previous call at this level (the Verlet
        edge cache emits one for free).  When supplied, the two sorted
        set differences below are skipped — the caller vouches that
        ``diff`` is exact, which the engine guarantees by passing it
        only when the cache's output reaches the plane unfiltered.
        """
        st = self._state.get(k)
        if st is not None and (
            st.ids is cur_ids or np.array_equal(st.ids, cur_ids)
        ):
            if diff is not None:
                if diff.n_events == 0:
                    return st.snapshot
                ups, downs = diff.ups, diff.downs
                keys = encode_edges(cur_edges, self._n)
            else:
                keys = encode_edges(cur_edges, self._n)
                if np.array_equal(st.keys, keys):
                    return st.snapshot
                up, down = sorted_key_diff(st.keys, keys)
                ups = cur_edges[up]
                downs = decode_edges(st.keys[down], self._n)
            st.inc.apply(ups, downs, cur_edges)
            st.keys = keys
            st.snapshot = st.inc.snapshot()
            return st.snapshot
        keys = encode_edges(cur_edges, self._n)
        inc = IncrementalElection(cur_ids, cur_edges)
        snap = inc.snapshot()
        self._state[k] = _LevelState(ids=cur_ids, keys=keys, inc=inc,
                                     snapshot=snap)
        return snap

    def advance(self, edges: np.ndarray,
                positions=None, diff=None) -> ClusteredHierarchy:
        """One step: patch the hierarchy onto the new canonical edge
        array (node IDs are ``0..n-1``; edges must be canonical — the
        unit-disk builder's output, chaos-filtered or not).  The array is
        kept, not copied, as the returned hierarchy's level-0 edges, so
        it must be a fresh one each step.

        ``diff`` is an optional exact level-0
        :class:`~repro.radio.linkevents.LinkDiff` of ``edges`` against
        the previous call's (the Verlet cache's by-product); it spares
        the plane re-deriving the same set differences from edge keys.
        Pass ``None`` whenever the edges were post-processed (chaos
        filtering) or the previous step isn't comparable.
        """
        if self._stale0:
            diff = None
        self._stale0 = True

        def elector(k, ids, level_edges):
            if k == 0:
                self._stale0 = False
            return self._level_election(k, ids, level_edges,
                                        diff if k == 0 else None)

        return recurse_levels(
            self._base_ids, edges, elector, max_levels=self._max_levels,
            level_mode=self._level_mode, positions=positions, r0=self._r0,
        )
