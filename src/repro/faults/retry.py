"""Bounded retry with exponential backoff and jitter.

The policy is deliberately small: it answers two questions the delivery
engine asks — "may I try again?" (bounded by ``max_attempts`` and the
per-message ``timeout``) and "how long do I wait first?" (a fixed
exponential schedule, :data:`BASE_BACKOFF` · :data:`BACKOFF_FACTOR`^(k-1),
scaled by a multiplicative jitter drawn from the caller's RNG stream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy"]

BASE_BACKOFF = 0.05
"""Delay before the first retry, in seconds."""

BACKOFF_FACTOR = 2.0
"""Multiplier per further retry (exponential backoff)."""

JITTER = 0.1
"""Uniform multiplicative jitter: each delay is scaled by
``1 + JITTER * U[0, 1)``."""


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission policy for one control message.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (``1`` disables retries).
    timeout:
        Per-message give-up budget, in seconds: once accumulated backoff
        would exceed it, the message is abandoned.
    """

    max_attempts: int = 1
    timeout: float = 1.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if not math.isfinite(self.timeout) or self.timeout <= 0:
            raise ValueError(
                f"timeout must be finite and positive, got {self.timeout!r}"
            )

    def backoff(self, attempt: int, rng: np.random.Generator) -> float:
        """Delay before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            raise ValueError("attempt index is 1-based")
        delay = BASE_BACKOFF * BACKOFF_FACTOR ** (attempt - 1)
        return delay * (1.0 + JITTER * float(rng.random()))
