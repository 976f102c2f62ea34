"""Hop-count and giant-component sampling as a collector.

This is the costliest observation (BFS from several sources: every one
of a sample's sources is drawn first, then one
:func:`~repro.graphs.hop_sums` call measures them all), so it runs on a
cadence: every ``hop_sample_every``-th metered step (step 0 always
samples).  It owns the dedicated "sampling" RNG stream — sampling more
or less often never perturbs any other series.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import CompactGraph
from repro.hierarchy.stats import sample_hop_counts
from repro.sim.collectors.base import Collector
from repro.sim.kernels import giant_fraction

__all__ = ["HopSampleCollector"]


class HopSampleCollector(Collector):
    """Samples network/per-level mean hop counts (h, h_k) and the giant
    component fraction on the configured cadence."""

    name = "hops"
    phase = "sampling"

    def __init__(self, rng: np.random.Generator, every: int):
        self._rng = rng
        self._every = max(int(every), 1)
        self._h_network: list[float] = []
        self._h_levels: dict[int, list[float]] = {}
        self._giant_sum = 0.0
        self._giant_samples = 0

    def on_step(self, snap) -> None:
        """Sample h, h_k, and the giant fraction on cadence steps."""
        if snap.step % self._every != 0:
            return
        n = snap.scenario.n
        g = CompactGraph(np.arange(n, dtype=np.int32), snap.edges)
        h_network, h_levels = sample_hop_counts(
            g, self._rng, n_sources=8, h=snap.hierarchy,
            clusters_per_level=6, sources_per_cluster=2,
        )
        self._h_network.append(h_network)
        for k, val in h_levels.items():
            if val > 0:
                self._h_levels.setdefault(k, []).append(val)
        self._giant_sum += giant_fraction(g)
        self._giant_samples += 1

    def finalize(self, elapsed: float) -> dict:
        """Contribute ``h_network``, ``h_levels``, and ``giant_fraction``."""
        return {
            "h_network": self._h_network,
            "h_levels": self._h_levels,
            "giant_fraction": (
                self._giant_sum / self._giant_samples
                if self._giant_samples else 0.0
            ),
        }
