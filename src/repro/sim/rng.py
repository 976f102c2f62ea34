"""Deterministic RNG management.

Every stochastic component (placement, mobility, sampling estimators)
gets an independent child generator derived from the scenario seed, so
runs replay exactly and components can be swapped without perturbing each
other's streams.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["spawn_rngs"]


def spawn_rngs(seed: int, names: Sequence[str]) -> dict[str, np.random.Generator]:
    """Independent named generators from one root seed.

    Child sequences are derived with ``SeedSequence.spawn``, which
    guarantees statistical independence between the streams.
    """
    if not names:
        raise ValueError("need at least one stream name")
    if len(set(names)) != len(names):
        raise ValueError("stream names must be unique")
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(names))
    return {name: np.random.default_rng(child) for name, child in zip(names, children)}
