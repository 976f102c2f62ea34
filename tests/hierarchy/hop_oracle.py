"""The one-BFS-per-source hop sampler, kept as the oracle of
:func:`repro.hierarchy.stats.sample_hop_counts`.

It draws in the same RNG order (network sources, then level by level
the chosen clusters and their sources), takes a level's clusters from
``np.unique(ancestry(k))`` rather than the level's node IDs, and runs one
unrestricted BFS per source.  Run with the same generator state, it must
return the same floats and leave the generator in the same state.
"""

import numpy as np

from repro.graphs import bfs_distances


def _mean_of_positive(rows) -> float:
    total = count = 0
    for d in rows:
        total += int(d[d > 0].sum())
        count += int((d > 0).sum())
    return total / count if count else 0.0


def hop_counts_per_source(g0, rng, n_sources=16, h=None,
                          clusters_per_level=8, sources_per_cluster=2):
    """``(h, {k: h_k})`` as :func:`sample_hop_counts` defines them."""
    network = 0.0
    if n_sources and g0.n >= 2:
        drawn = rng.choice(g0.node_ids, size=min(n_sources, g0.n),
                           replace=False)
        network = _mean_of_positive(bfs_distances(g0, int(s)) for s in drawn)
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
            cols = g0.index_of_many(members)
            rows.extend(bfs_distances(g0, int(s))[cols] for s in srcs)
        levels[k] = _mean_of_positive(rows)
    return network, levels
