"""Point-set input coercion shared by the regions and the GLS grid."""

from __future__ import annotations

import numpy as np


def as_points(xy) -> np.ndarray:
    """Coerce ``xy`` to a float64 array of shape ``(n, 2)``.

    A single point of shape ``(2,)`` is promoted to ``(1, 2)``.

    Raises
    ------
    ValueError
        If the input cannot be interpreted as 2-D points.
    """
    pts = np.asarray(xy, dtype=np.float64)
    if pts.ndim == 1:
        if pts.shape[0] != 2:
            raise ValueError(f"expected a 2-vector, got shape {pts.shape}")
        pts = pts[np.newaxis, :]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {pts.shape}")
    return pts
