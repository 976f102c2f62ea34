"""Clustering substrate: LCA/ALCA election, ALCA state machine, max-min
d-hop baseline, and cluster-structure metrics (Section 2.2 of the paper).
"""

from repro.clustering.alca import AlcaMaintainer
from repro.clustering.lca import Election, elect
from repro.clustering.maxmin import MaxMinResult, maxmin_cluster
from repro.clustering.metrics import (
    ClusterSizeStats,
    aggregation_factors,
    arity,
    cluster_size_stats,
)
from repro.clustering.state import (
    RecursionQuantities,
    StateStats,
    StateTracker,
    recursion_quantities,
)

__all__ = [
    "AlcaMaintainer",
    "Election",
    "elect",
    "MaxMinResult",
    "maxmin_cluster",
    "ClusterSizeStats",
    "aggregation_factors",
    "arity",
    "cluster_size_stats",
    "RecursionQuantities",
    "StateStats",
    "StateTracker",
    "recursion_quantities",
]
