"""Radio substrate: unit-disk links, connectivity sizing, link events."""

from repro.radio.unit_disk import (
    unit_disk_edges,
    encode_edges,
    decode_edges,
)
from repro.radio.connectivity import radius_for_degree
from repro.radio.edge_cache import VerletEdgeCache
from repro.radio.linkevents import LinkDiff, LinkTracker

__all__ = [
    "unit_disk_edges",
    "encode_edges",
    "decode_edges",
    "radius_for_degree",
    "VerletEdgeCache",
    "LinkDiff",
    "LinkTracker",
]
