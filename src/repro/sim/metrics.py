"""Result containers for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering.state import StateStats
from repro.core.accounting import OverheadLedger
from repro.sim.scenario import Scenario

__all__ = ["LevelSeries", "SimResult", "SweepPoint"]


@dataclass
class LevelSeries:
    """Per-level accumulators across metered steps."""

    sizes: dict[int, list[int]] = field(default_factory=dict)
    edge_counts: dict[int, list[int]] = field(default_factory=dict)
    link_events: dict[int, int] = field(default_factory=dict)
    drift_link_events: dict[int, int] = field(default_factory=dict)
    """Link events whose endpoints persist at the level in both snapshots
    — the 'cluster migration' changes of Section 5.3.1.  The remainder of
    ``link_events`` is election/rejection churn (Section 5.3.2)."""
    address_changes: dict[int, int] = field(default_factory=dict)
    """Per level k: count of node-steps where the level-k address
    component (ancestry) changed — the raw staleness driver for level-k
    LM entries."""

    def record_level(self, k: int, n_nodes: int, n_edges: int) -> None:
        """Record one step's size and link count for level ``k``."""
        self.sizes.setdefault(k, []).append(n_nodes)
        self.edge_counts.setdefault(k, []).append(n_edges)

    def add_link_events(self, k: int, count: int, drift_count: int = 0) -> None:
        """Accumulate level-k link change events (and the drift subset)."""
        self.link_events[k] = self.link_events.get(k, 0) + count
        self.drift_link_events[k] = self.drift_link_events.get(k, 0) + drift_count

    def add_address_changes(self, k: int, count: int) -> None:
        """Accumulate level-k address-component change counts."""
        self.address_changes[k] = self.address_changes.get(k, 0) + count

    def mean_size(self, k: int) -> float:
        """Mean node count of level ``k`` over the metered steps."""
        return float(np.mean(self.sizes[k])) if k in self.sizes else 0.0

    def mean_edges(self, k: int) -> float:
        """Mean link count of level ``k`` over the metered steps."""
        return float(np.mean(self.edge_counts[k])) if k in self.edge_counts else 0.0

    def levels(self) -> list[int]:
        """Sorted level indices with recorded data."""
        return sorted(self.sizes)


@dataclass
class SimResult:
    """Everything a benchmark needs from one run.

    Attributes
    ----------
    scenario:
        The configuration that produced this result.
    ledger:
        Handoff/registration overhead totals (phi, gamma, rates).
    f0:
        Measured level-0 link state change frequency per node per second
        (Eq. 4's quantity).
    level_series:
        Per-level size/edge/link-event accumulators.
    state_stats:
        ALCA state statistics per election level (key j = level whose
        election was observed; p_j estimates for Eq. 15-22).
    h_network:
        Mean shortest-path hop count samples (network-wide h).
    h_levels:
        h_k samples per level: {k: [sample, ...]}.
    mean_degree:
        Mean level-0 degree over metered steps.
    giant_fraction:
        Mean largest-component fraction over sampled steps.
    elapsed:
        Metered simulated seconds.
    """

    scenario: Scenario
    ledger: OverheadLedger
    f0: float
    level_series: LevelSeries
    state_stats: dict[int, StateStats]
    h_network: list[float]
    h_levels: dict[int, list[float]]
    mean_degree: float
    giant_fraction: float
    elapsed: float
    final_positions: np.ndarray | None = None
    """Node positions at the last metered step — lets post-run analyses
    (e.g. EXP-T10's query-cost probe) rebuild the final topology from a
    cached result without re-simulating."""
    queries: "object | None" = None
    """Optional :class:`~repro.faults.fallback.QueryLedger` (set when the
    scenario sampled queries via ``queries_per_step > 0``)."""
    timings: "object | None" = None
    """Optional :class:`~repro.obs.timers.StepTimings` with per-phase
    wall-clock totals (set when the simulator ran with ``profile=True``;
    observation only — all metric series are unaffected)."""
    extras: dict = field(default_factory=dict)
    """Outputs of custom collectors (see :mod:`repro.sim.collectors`):
    ``finalize()`` keys that don't name a SimResult field land here, and
    a non-dict return is stored under the collector's ``name``."""

    # -- convenience views -------------------------------------------------------

    @property
    def phi(self) -> float:
        return self.ledger.phi

    @property
    def gamma(self) -> float:
        return self.ledger.gamma

    @property
    def handoff_rate(self) -> float:
        return self.ledger.handoff_rate

    @property
    def query_success_rate(self) -> float | None:
        """Fraction of sampled queries resolved (None when the scenario
        sampled no queries)."""
        if self.queries is None:
            return None
        return self.queries.success_rate

    def mean_h(self) -> float:
        """Mean of the sampled network-wide hop counts."""
        return float(np.mean(self.h_network)) if self.h_network else 0.0

    def mean_h_k(self) -> dict[int, float]:
        """Mean sampled h_k per level (levels with samples only)."""
        return {k: float(np.mean(v)) for k, v in sorted(self.h_levels.items()) if v}

    def g_prime_k(self) -> dict[int, float]:
        """Measured per-cluster-link state change frequency (Eq. 14's
        g'_k): events per level-k link per second."""
        out = {}
        for k, events in sorted(self.level_series.link_events.items()):
            mean_links = self.level_series.mean_edges(k)
            if mean_links > 0 and self.elapsed > 0:
                out[k] = events / (mean_links * self.elapsed)
        return out

    def g_prime_k_drift(self) -> dict[int, float]:
        """Drift-only per-link change frequency: link events between
        *persisting* level-k nodes (Section 5.3.1's cluster migration).
        This is the quantity the paper's Theta(1/h_k) argument models;
        election-churn link events are excluded."""
        out = {}
        for k, events in sorted(self.level_series.drift_link_events.items()):
            mean_links = self.level_series.mean_edges(k)
            if mean_links > 0 and self.elapsed > 0:
                out[k] = events / (mean_links * self.elapsed)
        return out

    def component_lifetimes(self) -> dict[int, float]:
        """Mean lifetime (seconds) of a node's level-k address component.

        The reciprocal of the per-node component change frequency;
        feature (c) of GLS/CHLM rests on this growing with k (far
        servers need rare updates).  Levels with no observed change
        report ``inf``.
        """
        out: dict[int, float] = {}
        n = self.scenario.n
        for k, changes in sorted(self.level_series.address_changes.items()):
            if changes > 0:
                out[k] = self.elapsed * n / changes
            else:
                out[k] = float("inf")
        return out

    def p_levels(self) -> list[float]:
        """p_j vector for the Eq. (15)-(22) recursion quantities."""
        if not self.state_stats:
            return []
        max_j = max(self.state_stats)
        return [
            self.state_stats[j].p_state1 if j in self.state_stats else 0.0
            for j in range(max_j + 1)
        ]


@dataclass(frozen=True)
class SweepPoint:
    """Seed means and stds of named metrics for one scenario of a sweep
    (:func:`repro.sim.sweep.sweep_points`), which is its first run's;
    a per-level metric holds ``{level: mean}`` and ``{level: std}``."""

    scenario: Scenario
    values: dict[str, float | dict[int, float]]
    stds: dict[str, float | dict[int, float]]
    seeds: int

    @property
    def n(self) -> int:
        """The scenario's node count."""
        return self.scenario.n

    def __getitem__(self, key: str):
        return self.values[key]
