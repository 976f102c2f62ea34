"""Hierarchy statistics: the notation quantities of Section 1.1.

Implements estimators for

* c_k, alpha_k, d_k — exact bookkeeping from the level sizes/degrees
  (Eqs. 1-2),
* h_k — the average hop count, *in level-0 hops*, across a level-k
  cluster (Eq. 3 predicts Theta(sqrt(c_k))), estimated by BFS sampling
  inside clusters,
* h — the network-wide mean shortest-path hop count (Theta(sqrt(|V|))
  per Kleinrock-Silvester [2]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs import CompactGraph, hop_rows, multi_source_bfs
from repro.hierarchy.levels import ClusteredHierarchy

__all__ = ["LevelStats", "hierarchy_stats", "mean_hop_count", "level_hop_counts"]


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


def mean_hop_count(
    g: CompactGraph,
    rng: np.random.Generator,
    n_sources: int = 16,
) -> float:
    """Network-wide mean shortest-path hop count by BFS sampling.

    Samples ``n_sources`` source nodes; averages hop distance to all
    reachable nodes (excluding the source itself).  Unreachable pairs are
    skipped, so on a disconnected graph this measures the intra-component
    mean.  The sums run over the compact hop rows in place; no int64
    copy of the matrix is made.
    """
    if g.n < 2:
        return 0.0
    n_sources = min(n_sources, g.n)
    sources = rng.choice(g.node_ids, size=n_sources, replace=False)
    dist = hop_rows(g, g.index_of_many(sources))
    reached = dist > 0
    count = int(np.count_nonzero(reached))
    total = int(dist.sum(where=reached, dtype=np.int64))
    return float(total) / count if count else 0.0


def level_hop_counts(
    h: ClusteredHierarchy,
    g0: CompactGraph,
    rng: np.random.Generator,
    clusters_per_level: int = 8,
    sources_per_cluster: int = 2,
) -> dict[int, float]:
    """Estimate h_k for each level k = 1..L.

    For sampled level-k clusters, run BFS from sampled member nodes over
    the *full* level-0 graph and average the hop distance to the other
    members of the same cluster.  (The paper defines h_k as the level-0
    hop count across a level-k cluster; shortest paths may leave the
    cluster region, which matches strict hierarchical forwarding where
    packets are not confined to cluster boundaries.)  Only the distances
    to a source's cluster-mates are read, so each BFS is scoped to them.
    """
    out: dict[int, float] = {}
    base_ids = h.levels[0].node_ids
    for k in range(1, h.num_levels + 1):
        anc = h.ancestry(k)
        heads = np.unique(anc)
        chosen = (
            heads
            if heads.size <= clusters_per_level
            else rng.choice(heads, size=clusters_per_level, replace=False)
        )
        # Draw every source first (the RNG order is the sampling order),
        # then run the level's BFS sweeps as one batched call.
        sources: list[int] = []
        member_idx: list[np.ndarray] = []
        for head in chosen:
            members = np.flatnonzero(anc == head)
            if members.size < 2:
                continue
            srcs = (
                base_ids[members]
                if members.size <= sources_per_cluster
                else rng.choice(
                    base_ids[members], size=sources_per_cluster, replace=False
                )
            )
            sources.extend(srcs.tolist())
            member_idx.extend([members] * srcs.size)
        total = 0
        count = 0
        rows = multi_source_bfs(
            g0, sources, targets=[base_ids[idx] for idx in member_idx]
        )
        for dist, idx in zip(rows, member_idx):
            d = dist[idx]
            ok = d > 0
            total += int(d[ok].sum())
            count += int(ok.sum())
        out[k] = total / count if count else 0.0
    return out
