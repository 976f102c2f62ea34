"""Radio substrate: unit-disk links, connectivity sizing, link events."""

from repro.radio.unit_disk import unit_disk_edges, encode_edges
from repro.radio.connectivity import radius_for_degree
from repro.radio.linkevents import LinkDiff

__all__ = [
    "unit_disk_edges",
    "encode_edges",
    "radius_for_degree",
    "LinkDiff",
]
