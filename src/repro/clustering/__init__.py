"""Clustering substrate: LCA/ALCA election and the ALCA state machine
(Section 2.2 of the paper).
"""

from repro.clustering.alca import AlcaMaintainer
from repro.clustering.lca import Election, elect
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
    "RecursionQuantities",
    "StateStats",
    "StateTracker",
    "recursion_quantities",
]
