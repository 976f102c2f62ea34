"""Level-0 link event tracking and mean degree as a collector."""

from __future__ import annotations

from repro.sim.collectors.base import Collector

__all__ = ["LinkEventCollector"]


class LinkEventCollector(Collector):
    """Meters level-0 link events (Eq. 4's f_0) and the mean degree.

    Counts the events of the step's one level-0 diff
    (:attr:`~repro.sim.snapshot.StepSnapshot.link_diff`, taken against
    the previous step's topology — the baseline's for the first metered
    step) instead of diffing the edge list again.  Each event charges
    both of its endpoints, so f_0 = 2 · events / (n · elapsed), the
    per-node accounting of Eq. (4).
    """

    name = "links"
    phase = "diff"

    def __init__(self, n: int):
        self._n = n
        self._events = 0
        self._degree_sum = 0.0
        self._steps = 0

    def on_step(self, snap) -> None:
        """Count this step's link changes and accumulate degree."""
        self._events += snap.link_diff.n_events
        self._degree_sum += 2.0 * len(snap.edges) / snap.scenario.n
        self._steps += 1

    def finalize(self, elapsed: float) -> dict:
        """Contribute ``f0`` and ``mean_degree`` to the result."""
        return {
            # Divided by n first, then by elapsed: the rounding order of
            # the per-node mean every recorded f0 was taken with.
            "f0": 2 * self._events / self._n / elapsed,
            "mean_degree": self._degree_sum / self._steps if self._steps else 0.0,
        }
