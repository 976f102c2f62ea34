"""Routing substrate: hop-by-hop hierarchical forwarding and routing-table sizes.

A :class:`ForwardingFabric` serves one topology snapshot; callers that
follow a moving network build one per snapshot.
"""

from repro.routing.bfs_kernels import labeled_next_hop, single_next_hop
from repro.routing.forwarding import ForwardingFabric, ForwardingTable, ForwardResult
from repro.routing.tables import flat_table_size, hierarchical_table_sizes

__all__ = [
    "ForwardingFabric",
    "ForwardingTable",
    "ForwardResult",
    "labeled_next_hop",
    "single_next_hop",
    "flat_table_size",
    "hierarchical_table_sizes",
]
