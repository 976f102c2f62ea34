"""Hierarchy deltas: two consecutive snapshots -> dirty clusters.

The paper's ALCA reorganizes *by events* — its seven event types
(i)-(vii) and the handoff bound are defined over discrete cluster-link
changes.  Every hierarchy is elected whole, from scratch or by the
per-level electors of the simulator's one
:class:`~repro.hierarchy.maintain.HierarchyMaintainer`; what changed
between two of them is this module's job:

* :func:`compute_delta` distills two consecutive snapshots into a
  :class:`HierarchyDelta`: per-level changed-ancestry masks, the
  *dirty cells* whose member lists changed (exactly the clusters a CHLM
  hash descent could consult differently) with the members each one
  gained.  On the steps :func:`~repro.core.servers.patch_pays` picks,
  the handoff engine uses it to re-hash only dirty keys and diff only
  dirty clusters.
* :class:`LazyClusters` is one level's partition in CSR form, the
  layout the dense rendezvous kernel reads.

Nothing here touches an RNG stream or keeps state between steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering.lca import Election
from repro.graphs import IdIndex
from repro.hierarchy.levels import ClusteredHierarchy

__all__ = ["HierarchyDelta", "LazyClusters", "compute_delta"]


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
    empty = np.empty(0, dtype=np.int32)
    return empty, (np.zeros(1, dtype=np.int64), empty)


def compute_delta(h0: ClusteredHierarchy | None,
                  h1: ClusteredHierarchy | None) -> HierarchyDelta:
    """Distill two consecutive snapshots into a :class:`HierarchyDelta`.

    Works for *any* construction path (from-scratch build, sticky or
    persistent maintainers): the delta is computed from
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
