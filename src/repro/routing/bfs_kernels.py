"""Batched CSR BFS kernels for the forwarding fabric.

``ForwardingFabric`` derives every next hop from multi-source BFS
floods: one flood per routing target set (a level-1 member, or a sibling
cluster's member set).  One pure-Python deque BFS per flood would be
~1200 full-graph traversals at n=1000, two orders of magnitude above
these kernels; the deque BFS is kept only as the test oracle
(``tests/routing/fabric_oracle.py``).

The traversal runs as *labeled, level-synchronous* array kernels over
:class:`~repro.graphs.CompactGraph`'s CSR arrays:

* :func:`labeled_next_hop` runs many independent floods ("labels") at
  once.  Each BFS level expands the whole frontier — across all labels —
  with ``np.repeat`` over the CSR ``offsets``/``nbr`` arrays, and
  resolves first-visit ties with a reversed scatter (last write wins on
  the reversed arrays, i.e. *first* occurrence wins), so no per-node
  Python and no sorting anywhere in the hot loop.
* :func:`single_next_hop` is one such flood toward an ID-space target
  set.

Bit-identity with the deque BFS holds by construction: a FIFO BFS
with all sources at distance 0 is level-synchronous, so the deque's
visit order within one level equals the frontier-expansion concatenation
order, and "first discoverer wins" picks the same parent either way.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import CompactGraph

__all__ = [
    "labeled_next_hop",
    "single_next_hop",
]


def labeled_next_hop(
    g: CompactGraph,
    sources_idx: np.ndarray,
    labels: np.ndarray,
    n_labels: int,
    restrict_mask: np.ndarray | None = None,
    needed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``n_labels`` independent multi-source BFS floods in one pass.

    Parameters
    ----------
    sources_idx, labels:
        Parallel arrays: node *index* ``sources_idx[i]`` seeds the flood
        of label ``labels[i]`` (labels in ``0..n_labels-1``).  Seed order
        within a label fixes tie-breaking exactly as a deque BFS's
        seeding order does.
    restrict_mask:
        Optional confinement: ``(n,)`` bool shared by every label, or
        ``(n_labels, n)`` bool per label.  Sources are seeded regardless
        of the mask (as in a deque BFS); only *discovery* is masked.
    needed:
        Optional scoped-flood early stop: flat ``(n_labels * n,)`` bool
        marking, per label, the node set whose next hops the caller will
        actually read.  A label's flood halts once its needed set is
        fully discovered (or its component exhausted).  Rows are then
        only valid at needed columns: beyond the stop horizon ``dist``
        reads -1 for nodes a full flood would have reached — but every
        needed column matches the full flood bit-for-bit, and undiscovered
        nodes provably sit strictly beyond every needed node.

    Returns
    -------
    (next_hop, dist):
        ``(n_labels, n)`` int64 arrays.  ``next_hop[j, i]`` is the
        neighbor index of node ``i`` on a shortest path toward label
        ``j``'s source set (-1 for sources and unreachable nodes);
        ``dist[j, i]`` the hop distance (-1 unreachable).
    """
    n = g.n
    offsets, nbr = g._offsets, g._nbr
    sources_idx = np.asarray(sources_idx, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if sources_idx.shape != labels.shape:
        raise ValueError("sources_idx and labels must be parallel arrays")
    flat = int(n_labels) * n
    next_hop = np.full(flat, -1, dtype=np.int64)
    dist = np.full(flat, -1, dtype=np.int64)
    if sources_idx.size == 0 or n == 0:
        return next_hop.reshape(n_labels, n), dist.reshape(n_labels, n)
    mask2d = None
    if restrict_mask is not None:
        restrict_mask = np.asarray(restrict_mask, dtype=bool)
        if restrict_mask.ndim == 2:
            mask2d = restrict_mask.reshape(-1)
    remaining = None
    if needed is not None:
        seed_keys = labels * n + sources_idx
        remaining = needed.reshape(n_labels, n).sum(axis=1)
        seeded = needed[seed_keys]
        if seeded.any():
            remaining -= np.bincount(labels[seeded], minlength=n_labels)

    dist[labels * n + sources_idx] = 0
    f_nodes = sources_idx.copy()
    f_labels = labels.copy()
    level = 0
    while f_nodes.size:
        level += 1
        starts = offsets[f_nodes]
        counts = offsets[f_nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Gather every frontier node's CSR neighbor slice in frontier
        # order: position r within slice s lands at starts[s] + r.
        cum = np.cumsum(counts)
        pos = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
        pos += np.repeat(starts, counts)
        dst = nbr[pos]
        src = np.repeat(f_nodes, counts)
        keys = np.repeat(f_labels * n, counts) + dst
        if restrict_mask is not None:
            keep = restrict_mask[dst] if mask2d is None else mask2d[keys]
            keys, src = keys[keep], src[keep]
        unvisited = dist[keys] < 0
        keys, src = keys[unvisited], src[unvisited]
        if keys.size == 0:
            break
        # First-visit dedup without sorting: scatter the *reversed*
        # arrays so the first occurrence is the last (surviving) write.
        rkeys = keys[::-1]
        dist[rkeys] = level
        next_hop[rkeys] = src[::-1]
        # Positions whose write survived are the first occurrences, in
        # original concatenation order — exactly the deque visit order.
        ksel = keys[next_hop[keys] == src]
        f_labels = ksel // n
        f_nodes = ksel - f_labels * n
        if remaining is not None:
            hits = needed[ksel]
            if hits.any():
                remaining -= np.bincount(f_labels[hits], minlength=n_labels)
                live = remaining > 0
                if not live.all():
                    keep = live[f_labels]
                    f_nodes, f_labels = f_nodes[keep], f_labels[keep]
    return next_hop.reshape(n_labels, n), dist.reshape(n_labels, n)


def single_next_hop(
    g: CompactGraph,
    targets: np.ndarray,
    restrict_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One multi-source flood toward the node IDs ``targets`` via the
    batched kernel, as flat ``(n,)`` ``(next_hop, dist)`` arrays: for
    every node index, the neighbor index on a shortest path toward the
    nearest target (-1 for targets themselves / unreachable) and the hop
    distance.  ``restrict_mask`` confines discovery as in
    :func:`labeled_next_hop`.
    """
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    t_idx = np.searchsorted(g.node_ids, t)
    nh, dist = labeled_next_hop(
        g, t_idx, np.zeros(t_idx.size, dtype=np.int64), 1,
        restrict_mask=restrict_mask,
    )
    return nh[0], dist[0]
