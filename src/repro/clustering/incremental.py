"""Incremental LCA election — the event-driven ALCA reading.

The paper's ALCA is *asynchronous*: clusterhead status is re-evaluated
only where the topology actually changed, not by a global re-election
sweep.  :class:`IncrementalElection` is the computational mirror of that
rule for one level: it holds the election state of a fixed node set —
the vote and support arrays, not a copy of the graph — and *patches* it
from link deltas, re-voting only the endpoints of changed links over
the edges that touch them.

Correctness rests on two invariants of :func:`repro.clustering.lca.elect`:

* ``elected_head[u]`` is a pure function of u's closed neighborhood
  (``max(u, neighbors)``), so after a batch of link events only the
  endpoints of added/removed edges can change their vote;
* every derived field follows from the vote multiset.  With
  ``support[v] = #{u : elected_head[u] == v}`` (self-votes included):

  - ``clusterheads``  = ids with positive support,
  - ``member_of``     = own id for heads, else ``elected_head``,
  - ``elector_count`` = ``support - [elected_head == id]`` (a non-self
    voter is necessarily a neighbor, which is exactly what the per-edge
    scatter in :func:`elect` counts).

:meth:`snapshot` therefore returns an :class:`Election` **bit-identical**
to a from-scratch ``elect(node_ids, edges)`` on the current topology —
the equivalence the fuzz harness in
``tests/clustering/test_incremental_election.py`` enforces over random
churn, crash, and partition bursts.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.lca import Election, elect

__all__ = ["IncrementalElection"]


class IncrementalElection:
    """Maintains one level's LCA election under link churn.

    The only state is the vote array and its support counts; the
    topology itself stays with the caller, who hands :meth:`apply` the
    step's edge array next to the link events.

    Parameters
    ----------
    node_ids:
        The level's node IDs (fixed for the lifetime of the instance;
        topology changes arrive as edge events only — a "crashed" node
        simply loses all its links).
    edges:
        Initial ``(m, 2)`` edge array (ID pairs, no self-loops).
    """

    def __init__(self, node_ids, edges):
        base = elect(node_ids, edges)
        self._ids = base.node_ids
        # Sorted unique ids 0..n-1 are their own row numbers (level 0),
        # which spares apply() two searches over the whole edge array.
        self._dense = bool(self._ids[-1] == self._ids.size - 1
                           and self._ids[0] == 0)
        self._elected = base.elected_head
        # support[i] = number of nodes (self included) voting for ids[i].
        self._support = np.bincount(self._rows(self._elected),
                                    minlength=self._ids.size)

    # -- internals -----------------------------------------------------------

    def _rows(self, ids_arr: np.ndarray) -> np.ndarray:
        return ids_arr if self._dense else np.searchsorted(self._ids, ids_arr)

    @property
    def node_ids(self) -> np.ndarray:
        return self._ids

    # -- event ingestion -----------------------------------------------------

    def apply(self, ups, downs, edges) -> None:
        """Apply one batch of link events (``(k, 2)`` ID-pair arrays).

        ``edges`` is the level's ``(m, 2)`` edge array *after* the
        events and is the truth about the topology; ``ups``/``downs``
        only say where it changed.  Their endpoints re-vote over the
        edges that touch them, and the support array absorbs each vote
        change.
        """
        touched = np.concatenate([
            np.asarray(ups, dtype=np.int64).reshape(-1),
            np.asarray(downs, dtype=np.int64).reshape(-1),
        ])
        if touched.size == 0:
            return
        marked = np.zeros(self._ids.size, dtype=bool)
        marked[self._rows(touched)] = True
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        vote = np.where(marked, self._ids, self._elected)
        for here, there in ((0, 1), (1, 0)):
            rows = self._rows(e[:, here])
            revote = marked[rows]
            np.maximum.at(vote, rows[revote], e[revote, there])
        moved = np.flatnonzero(vote != self._elected)
        np.subtract.at(self._support, self._rows(self._elected[moved]), 1)
        np.add.at(self._support, self._rows(vote[moved]), 1)
        self._elected = vote

    # -- views ---------------------------------------------------------------

    def snapshot(self) -> Election:
        """The current election, bit-identical to ``elect(ids, edges)``.

        The returned object owns fresh arrays (except the immutable
        ``node_ids``), so snapshots from consecutive steps can be diffed
        safely while this instance keeps mutating.
        """
        has_support = self._support > 0
        return Election(
            node_ids=self._ids,
            elected_head=self._elected.copy(),
            member_of=np.where(has_support, self._ids, self._elected),
            elector_count=self._support - (self._elected == self._ids),
            clusterheads=self._ids[has_support],
        )
