"""Mobility model interface.

Every model owns the node positions and advances them in place with
``step(dt)``.  Models are deterministic given their RNG, which the caller
supplies (seeded) so whole simulations replay exactly.

Speeds may be a scalar (the paper's fixed mu m/s) or a ``(low, high)``
range sampled uniformly per leg, matching the random-waypoint variants in
Broch et al. [4].
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.geometry.region import DeploymentRegion


def check_speed(speed) -> tuple[float, float]:
    """The ``(low, high)`` bounds of a speed spec, or ValueError.

    ``speed`` is either a positive finite scalar (``low == high``) or a
    ``(low, high)`` pair of finite values with ``0 < low <= high``.
    """
    pair = (speed, speed) if np.isscalar(speed) else tuple(speed)
    if len(pair) != 2:
        raise ValueError(
            f"speed must be a scalar or a (low, high) pair, got {speed!r}")
    lo, hi = float(pair[0]), float(pair[1])
    if not (np.isfinite(hi) and 0 < lo <= hi):
        raise ValueError(
            f"speed must be positive and finite, or a (low, high) range "
            f"with 0 < low <= high, got {speed!r}")
    return lo, hi


def resolve_speeds(speed, n: int, rng: np.random.Generator) -> np.ndarray:
    """Expand a speed spec (see :func:`check_speed`) into a per-node
    speed vector; ranges are sampled uniformly."""
    lo, hi = check_speed(speed)
    if np.isscalar(speed):
        return np.full(n, lo, dtype=np.float64)
    return lo + rng.random(n) * (hi - lo)


class MobilityModel(ABC):
    """Base class for vectorized mobility models.

    Parameters
    ----------
    n:
        Number of nodes.
    region:
        Deployment region the nodes stay inside.
    speed:
        Scalar speed mu (m/s) or a ``(low, high)`` uniform range.
    rng:
        Seeded NumPy generator; all randomness flows through it.
    """

    def __init__(self, n: int, region: DeploymentRegion, speed, rng: np.random.Generator):
        if n <= 0:
            raise ValueError("node count must be positive")
        self.n = int(n)
        self.region = region
        self.rng = rng
        self._speed_spec = speed
        self.speeds = resolve_speeds(speed, self.n, rng)
        self.positions = region.sample(self.n, rng)
        self.time = 0.0

    @abstractmethod
    def step(self, dt: float) -> np.ndarray:
        """Advance all nodes by ``dt`` seconds; return the new positions.

        The returned array is the model's internal buffer — callers that
        need a snapshot must copy it.
        """

    def _advance_clock(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.time += dt

    @property
    def mean_speed(self) -> float:
        """Average of the current per-node speeds."""
        return float(self.speeds.mean())
