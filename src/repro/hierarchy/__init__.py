"""Clustered hierarchy substrate: recursive levels, addresses, statistics."""

from repro.hierarchy.cluster_graph import canonical_edges, contract_edges
from repro.hierarchy.delta import (
    HierarchyDelta,
    LazyClusters,
    compute_delta,
)
from repro.hierarchy.levels import (
    ClusteredHierarchy,
    LevelTopology,
    build_hierarchy,
    recurse_levels,
)
from repro.hierarchy.maintain import HierarchyMaintainer
from repro.hierarchy.persistent import PersistentLevelMaintainer
from repro.hierarchy.render import render_hierarchy, render_summary
from repro.hierarchy.stats import (
    LevelStats,
    hierarchy_stats,
    sample_hop_counts,
)

__all__ = [
    "canonical_edges",
    "contract_edges",
    "HierarchyDelta",
    "LazyClusters",
    "compute_delta",
    "ClusteredHierarchy",
    "LevelTopology",
    "build_hierarchy",
    "recurse_levels",
    "HierarchyMaintainer",
    "PersistentLevelMaintainer",
    "render_hierarchy",
    "render_summary",
    "LevelStats",
    "hierarchy_stats",
    "sample_hop_counts",
]
