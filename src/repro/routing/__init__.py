"""Routing substrate: hop-by-hop hierarchical forwarding and the flat baseline."""

from repro.routing.bfs_kernels import (
    flood_rows_safe,
    labeled_next_hop,
    single_next_hop,
)
from repro.routing.fabric_cache import FabricCache, FabricCacheStats
from repro.routing.flat import FlatRouter
from repro.routing.forwarding import ForwardingFabric, ForwardingTable, ForwardResult
from repro.routing.tables import (
    flat_table_size,
    hierarchical_table_size,
    hierarchical_table_sizes,
)

__all__ = [
    "FabricCache",
    "FabricCacheStats",
    "FlatRouter",
    "ForwardingFabric",
    "ForwardingTable",
    "ForwardResult",
    "flood_rows_safe",
    "labeled_next_hop",
    "single_next_hop",
    "flat_table_size",
    "hierarchical_table_size",
    "hierarchical_table_sizes",
]
