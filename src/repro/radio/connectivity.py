"""Connectivity tools for random unit-disk deployments.

The paper (Section 1.2, citing Gupta & Kumar [3]) notes that to keep a
random deployment connected the transmission radius must scale like
Theta(sqrt(log n / n)) relative to the region side — equivalently, the
average degree must grow like Theta(log n).  Runs size ``r_tx`` by a
target degree instead (:func:`radius_for_degree`); the giant component
of a realized deployment is :func:`repro.sim.kernels.giant_fraction`.
"""

from __future__ import annotations

import numpy as np


def radius_for_degree(target_degree: float, density: float) -> float:
    """Transmission radius giving an expected unit-disk degree.

    For a Poisson field of intensity ``density``, the expected number of
    neighbors within radius r is density * pi * r^2, so
    ``r = sqrt(d / (pi * density))``.  The paper's "six is a magic number"
    reference [2] suggests d around 6-8 for good connectivity/throughput.
    """
    if target_degree <= 0:
        raise ValueError("target degree must be positive")
    if density <= 0:
        raise ValueError("density must be positive")
    return float(np.sqrt(target_degree / (np.pi * density)))
