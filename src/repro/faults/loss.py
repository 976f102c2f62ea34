"""Per-hop lossy-channel model.

A control message routed over ``h`` hops is ``h`` independent packet
transmissions; each is lost with a Bernoulli probability.  Route-length
dependence therefore falls out for free — a transfer across the network
(many hops) fails far more often than one inside a level-1 cluster.

The zero-rate model is an exact no-op: it draws nothing from the RNG
and reports full delivery, so a lossless configuration is bit-identical
to the pre-fault engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LossModel", "MAX_HOP_LOSS"]

MAX_HOP_LOSS = 0.999
"""Per-hop loss probability ceiling, also for a base rate plus burst
windows; keeps expected attempt counts finite."""


@dataclass(frozen=True)
class LossModel:
    """Seeded Bernoulli per-hop loss.

    Parameters
    ----------
    rate:
        Per-hop loss probability in ``[0, 1)``.
    """

    rate: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.rate) or not (0.0 <= self.rate < 1.0):
            raise ValueError(
                f"loss rate must be a finite probability in [0, 1), got {self.rate!r}"
            )

    def hop_loss(self) -> float:
        """Effective per-hop loss probability (the rate, capped at
        :data:`MAX_HOP_LOSS`)."""
        return min(self.rate, MAX_HOP_LOSS)

    def attempt(self, hops: int, rng: np.random.Generator) -> tuple[bool, int]:
        """Simulate one end-to-end attempt over ``hops`` hops.

        Returns ``(delivered, transmissions)``: the number of packet
        transmissions actually spent — the full ``hops`` on success, or
        the hops up to and including the lost one on failure.  A
        zero-rate model returns ``(True, hops)`` without consuming RNG
        state.
        """
        if hops <= 0:
            return True, 0
        p = self.hop_loss()
        if p <= 0.0:
            return True, hops
        lost = rng.random(hops) < p
        hit = np.flatnonzero(lost)
        if hit.size == 0:
            return True, hops
        return False, int(hit[0]) + 1
