"""Max-Min d-cluster formation (Amis, Prakash, Vuong & Huynh, Infocom
2000) — the scalable d-hop clustering baseline cited in Section 2.2.

The algorithm runs 2d rounds of flooding:

* **Floodmax** (d rounds): each node propagates the largest ID heard so
  far over its closed neighborhood.
* **Floodmin** (d rounds): starting from the floodmax result, each node
  propagates the smallest value heard.

Clusterhead selection rules (in order, per node v):

1. If v heard its *own* ID during any floodmin round, v is a
   clusterhead (it "won" both directions) — elect v itself.
2. Node-pair rule: among IDs that occur in both v's floodmax round list
   and floodmin round list, elect the minimum.
3. Otherwise elect the maximum ID from the floodmax phase.

The paper notes the d = 1 instance behaves like an asynchronous LCA;
the hierarchy builder accepts either algorithm so benches can ablate
LCA vs max-min handoff behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs import sorted_unique_ids

__all__ = ["MaxMinResult", "maxmin_cluster"]


@dataclass(frozen=True)
class MaxMinResult:
    """Outcome of max-min d-cluster formation.

    Attributes
    ----------
    node_ids:
        Sorted participating IDs.
    head_choice:
        For each node, the clusterhead ID selected by rules 1-3.
    clusterheads:
        Sorted IDs of all nodes selected as head by someone (including
        every rule-1 self-election).
    rounds:
        Number of flooding rounds used per phase (= d).
    floodmax / floodmin:
        ``(n, d)`` per-round value logs (column r = value after round
        r+1), retained for tests and for gateway selection heuristics.
    """

    node_ids: np.ndarray
    head_choice: np.ndarray
    clusterheads: np.ndarray
    rounds: int
    floodmax: np.ndarray
    floodmin: np.ndarray

    def clusters(self) -> dict[int, np.ndarray]:
        """Partition ``{head_id: member ids}`` induced by head_choice."""
        order = np.argsort(self.head_choice, kind="stable")
        heads, starts = np.unique(self.head_choice[order], return_index=True)
        groups = np.split(self.node_ids[order], starts[1:])
        return {int(h): np.sort(g) for h, g in zip(heads, groups)}


def _flood(ids: np.ndarray, ui: np.ndarray, vi: np.ndarray, start: np.ndarray,
           rounds: int, op) -> np.ndarray:
    """Run ``rounds`` of closed-neighborhood flooding with ufunc ``op``."""
    log = np.empty((ids.size, rounds), dtype=np.int64)
    cur = start.copy()
    for r in range(rounds):
        nxt = cur.copy()
        if ui.size:
            op.at(nxt, ui, cur[vi])
            op.at(nxt, vi, cur[ui])
        log[:, r] = nxt
        cur = nxt
    return log


def maxmin_cluster(node_ids, edges, d: int = 2) -> MaxMinResult:
    """Run max-min d-cluster formation on ``(node_ids, edges)``.

    Parameters
    ----------
    node_ids:
        Iterable of unique integer IDs.
    edges:
        ``(m, 2)`` undirected ID pairs within ``node_ids``.
    d:
        Cluster radius in hops (>= 1); every node ends within d hops of
        its clusterhead.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    ids = sorted_unique_ids(node_ids)
    if ids.size == 0:
        raise ValueError("clustering requires at least one node")
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size and np.any(e[:, 0] == e[:, 1]):
        raise ValueError("self-loops are not valid links")
    if e.size:
        ui = np.searchsorted(ids, e[:, 0])
        vi = np.searchsorted(ids, e[:, 1])
        bad = (
            (ui >= ids.size)
            | (vi >= ids.size)
            | (ids[np.minimum(ui, ids.size - 1)] != e[:, 0])
            | (ids[np.minimum(vi, ids.size - 1)] != e[:, 1])
        )
        if np.any(bad):
            raise ValueError("edges reference ids not in node_ids")
    else:
        ui = vi = np.empty(0, dtype=np.int64)

    fmax = _flood(ids, ui, vi, ids, d, np.maximum)
    fmin = _flood(ids, ui, vi, fmax[:, -1], d, np.minimum)

    head_choice = np.empty(ids.size, dtype=np.int64)

    # Rule 1: own ID seen in the floodmin phase.
    rule1 = np.any(fmin == ids[:, np.newaxis], axis=1)
    head_choice[rule1] = ids[rule1]

    # Rules 2 and 3 need per-node set intersections; these touch only the
    # (typically small) non-rule-1 remainder.
    rest = np.flatnonzero(~rule1)
    for i in rest:
        seen_max = set(fmax[i].tolist())
        seen_min = set(fmin[i].tolist())
        pairs = seen_max & seen_min
        if pairs:
            head_choice[i] = min(pairs)  # Rule 2
        else:
            head_choice[i] = fmax[i].max()  # Rule 3

    clusterheads = np.unique(head_choice)
    return MaxMinResult(
        node_ids=ids,
        head_choice=head_choice,
        clusterheads=clusterheads,
        rounds=d,
        floodmax=fmax,
        floodmin=fmin,
    )
