"""Hierarchy statistics: the notation quantities of Section 1.1.

Implements estimators for

* c_k, alpha_k, d_k — exact bookkeeping from the level sizes/degrees
  (Eqs. 1-2),
* h_k — the average hop count, *in level-0 hops*, across a level-k
  cluster (Eq. 3 predicts Theta(sqrt(c_k))), estimated by BFS sampling
  inside clusters,
* h — the network-wide mean shortest-path hop count (Theta(sqrt(|V|))
  per Kleinrock-Silvester [2]).

Both hop estimates come out of :func:`sample_hop_counts`, the one
implementation of the sampling draw order: every source of a sample is
drawn first, then a single :func:`~repro.graphs.hop_sums` call measures
them all (one bit-parallel sweep on small graphs, scipy rows plus one
scoped flood per level on large ones).  A level's clusters are read off
its node IDs, which equal ``np.unique(h.ancestry(k))`` without the sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs import CompactGraph, hop_sums
from repro.hierarchy.levels import ClusteredHierarchy

__all__ = [
    "LevelStats",
    "hierarchy_stats",
    "sample_hop_counts",
]


@dataclass(frozen=True)
class LevelStats:
    """Per-level structural quantities."""

    k: int
    n_nodes: int  # |V_k|
    n_edges: int  # |E_k|
    alpha: float  # |V_{k-1}| / |V_k| (1.0 at k=0)
    c: float  # |V| / |V_k|
    mean_degree: float  # d_k
    h: float | None = None  # mean level-0 hops across a level-k cluster


def hierarchy_stats(h: ClusteredHierarchy) -> list[LevelStats]:
    """Exact per-level bookkeeping (no hop estimation)."""
    out = []
    n0 = h.n
    prev = n0
    for lvl in h.levels:
        out.append(
            LevelStats(
                k=lvl.k,
                n_nodes=lvl.n_nodes,
                n_edges=lvl.n_edges,
                alpha=prev / lvl.n_nodes if lvl.k > 0 else 1.0,
                c=n0 / lvl.n_nodes,
                mean_degree=lvl.mean_degree,
            )
        )
        prev = lvl.n_nodes
    return out


def sample_hop_counts(
    g: CompactGraph,
    rng: np.random.Generator,
    n_sources: int = 16,
    h: ClusteredHierarchy | None = None,
    clusters_per_level: int = 8,
    sources_per_cluster: int = 2,
) -> tuple[float, dict[int, float]]:
    """One hop sample: ``(h, {k: h_k})``, with every source drawn first
    and one :func:`~repro.graphs.hop_sums` call measuring them all.

    The draw order is the RNG contract: ``n_sources`` distinct network
    sources (none on a graph of fewer than two nodes), then, level by
    level, ``clusters_per_level`` level-k clusters and up to
    ``sources_per_cluster`` members of each that has two or more.  A
    network source averages its distance to every node it reaches.  A
    cluster source averages its distance, over the *full* level-0 graph,
    to the other members of its own cluster: the paper defines h_k as the
    level-0 hop count across a level-k cluster, and shortest paths may
    leave the cluster region, which matches strict hierarchical
    forwarding where packets are not confined to cluster boundaries.
    ``g``'s node IDs are ``h``'s base IDs.  A mean with nothing to
    average reads 0.0.
    """
    sources: list[np.ndarray] = []
    targets: list = []
    groups: list[int] = []
    if n_sources and g.n >= 2:
        net = g.index_of_many(
            rng.choice(g.node_ids, size=min(n_sources, g.n), replace=False))
        sources.append(net)
        targets.extend([None] * net.size)
        groups.extend([0] * net.size)
    levels = range(1, h.num_levels + 1) if h is not None else range(0)
    for k in levels:
        anc = h.ancestry(k)
        heads = h.levels[k].node_ids
        chosen = (
            heads
            if heads.size <= clusters_per_level
            else rng.choice(heads, size=clusters_per_level, replace=False)
        )
        for head in chosen:
            members = np.flatnonzero(anc == head)
            if members.size < 2:
                continue
            srcs = (
                members
                if members.size <= sources_per_cluster
                else rng.choice(members, size=sources_per_cluster, replace=False)
            )
            sources.append(srcs)
            targets.extend([members] * srcs.size)
            groups.extend([k] * srcs.size)
    totals, counts = hop_sums(
        g, np.concatenate(sources) if sources else np.empty(0, np.int64),
        targets, np.asarray(groups, dtype=np.int64))

    def mean(group: int) -> float:
        if group >= counts.size or not counts[group]:
            return 0.0
        return int(totals[group]) / int(counts[group])

    return mean(0), {k: mean(k) for k in levels}
