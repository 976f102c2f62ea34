"""The one-search-per-source hop sampler, kept as the oracle of
:func:`repro.hierarchy.stats.sample_hop_counts`.

It draws in the same RNG order (network sources, then level by level
the chosen clusters and their sources), takes a level's clusters from
``np.unique(ancestry(k))`` rather than the level's node IDs, and runs one
unrestricted search per source.  Run with the same generator state, it
must return the same floats and leave the generator in the same state.

Its distances share no code with the sampler's: scipy's unweighted
Dijkstra in undirected mode over a CSR matrix built here from the raw
edge list, not :class:`repro.graphs.CompactGraph`'s neighbor lists, so
a layout fault in the graph cannot pass on both sides.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra


class _Distances:
    """Hop rows over the graph of ``node_ids`` (sorted unique) and the
    ID pairs ``edges``, any order or orientation, repeats allowed."""

    def __init__(self, node_ids, edges):
        self.ids = np.asarray(node_ids, dtype=np.int64)
        e = np.searchsorted(self.ids, np.asarray(edges, dtype=np.int64))
        e = e.reshape(-1, 2)
        n = self.ids.size
        self.adj = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])),
                              shape=(n, n)).tocsr()

    def row(self, source) -> np.ndarray:
        """Hop distance from node ID ``source`` to every node; -1 where
        unreachable."""
        s = int(np.searchsorted(self.ids, source))
        d = dijkstra(self.adj, directed=False, unweighted=True, indices=s)
        return np.where(np.isinf(d), -1, d).astype(np.int64)


def _mean_of_positive(rows) -> float:
    total = count = 0
    for d in rows:
        total += int(d[d > 0].sum())
        count += int((d > 0).sum())
    return total / count if count else 0.0


def hop_counts_per_source(node_ids, edges, rng, n_sources=16, h=None,
                          clusters_per_level=8, sources_per_cluster=2):
    """``(h, {k: h_k})`` as :func:`sample_hop_counts` defines them, on
    the graph with node IDs ``node_ids`` (sorted unique, the sampler's
    ``g.node_ids``) and edge list ``edges``."""
    dist = _Distances(node_ids, edges)
    ids = dist.ids
    network = 0.0
    if n_sources and ids.size >= 2:
        drawn = rng.choice(ids, size=min(n_sources, ids.size), replace=False)
        network = _mean_of_positive(dist.row(s) for s in drawn)
    levels = {}
    base_ids = h.levels[0].node_ids if h is not None else None
    for k in range(1, h.num_levels + 1) if h is not None else ():
        anc = h.ancestry(k)
        heads = np.unique(anc)
        chosen = (heads if heads.size <= clusters_per_level else
                  rng.choice(heads, size=clusters_per_level, replace=False))
        rows = []
        for head in chosen:
            members = base_ids[anc == head]
            if members.size < 2:
                continue
            srcs = (members if members.size <= sources_per_cluster else
                    rng.choice(members, size=sources_per_cluster,
                               replace=False))
            cols = np.searchsorted(ids, members)
            rows.extend(dist.row(s)[cols] for s in srcs)
        levels[k] = _mean_of_positive(rows)
    return network, levels
