"""Clustering substrate: LCA/ALCA election, the ALCA state machine, and
cluster-structure metrics (Section 2.2 of the paper).
"""

from repro.clustering.alca import AlcaMaintainer
from repro.clustering.lca import Election, elect
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
    "ClusterSizeStats",
    "aggregation_factors",
    "arity",
    "cluster_size_stats",
    "RecursionQuantities",
    "StateStats",
    "StateTracker",
    "recursion_quantities",
]
