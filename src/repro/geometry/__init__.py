"""Two-dimensional geometry substrate.

The paper assumes nodes placed by a two-dimensional uniform random
distribution over a circular region whose area grows proportionally with
the node count so that *density stays fixed* (Section 1.2).  This package
provides the deployment regions and uniform samplers used by every other
subsystem.
"""

from repro.geometry.region import (
    DeploymentRegion,
    DiscRegion,
    SquareRegion,
    disc_for_density,
    square_for_density,
)
from repro.geometry.points import as_points

__all__ = [
    "DeploymentRegion",
    "DiscRegion",
    "SquareRegion",
    "disc_for_density",
    "square_for_density",
    "as_points",
]
