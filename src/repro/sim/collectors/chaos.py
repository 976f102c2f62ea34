"""Chaos observation: invariant series and recovery SLOs.

Registered by the simulator whenever fault injection is on (or the
scenario forces ``invariant_mode``), this collector runs the
:func:`repro.faults.invariants.check_invariants` sweep on every metered
snapshot and aggregates the result into a :class:`ChaosReport`:

* per-step series — invariant violations, orphaned nodes, down nodes;
* stale-location windows — lengths of maximal step runs during which
  the handoff engine carried stale entries (the per-step counts are the
  ledger's ``stale_series``);
* per-episode SLOs — for every scheduled episode, the measured
  **time-to-reconverge**: seconds from the episode's end until the
  hierarchy holds zero invariant violations (and, when the run samples
  queries, the query success rate has recrossed
  :data:`SLO_SUCCESS_THRESHOLD`) for :data:`SLO_WINDOW` consecutive
  steps.

The collector is strictly read-only and draws no randomness, so adding
it never perturbs a run's metric series.  Its report lands in
``SimResult.extras["chaos"]`` and flows into the
:mod:`repro.obs` manifest/report path.  See docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.handoff import STALE
from repro.sim.collectors.base import Collector

__all__ = ["ChaosCollector", "ChaosReport", "EpisodeSLO"]

SLO_SUCCESS_THRESHOLD = 0.9
"""Query success rate an episode's recovery must recross before the run
counts as reconverged (binds only when the run samples queries)."""
SLO_WINDOW = 3
"""Consecutive converged steps required to declare recovery."""


@dataclass(frozen=True)
class EpisodeSLO:
    """Recovery measurement for one scheduled episode."""

    index: int
    """Position in ``Scenario.chaos``."""
    kind: str
    """Episode kind: "crash", "partition", or "burst"."""
    start: float
    end: float
    """Episode window in simulated seconds (end may exceed the run)."""
    recovered_step: int | None
    """First metered step of the sustained-recovery window, or None
    when the run never reconverged (or the episode never ended)."""
    time_to_reconverge: float | None
    """Seconds from episode end to sustained recovery (0.0 when the
    network was already converged at the first post-episode step)."""
    peak_violations: int
    peak_orphans: int
    peak_down: int
    """Worst per-step counts observed from episode start to recovery
    (or to the end of the run)."""


@dataclass
class ChaosReport:
    """Everything the chaos collector measured in one run."""

    violations_series: list[int] = field(default_factory=list)
    orphan_series: list[int] = field(default_factory=list)
    down_series: list[int] = field(default_factory=list)
    episodes: list[EpisodeSLO] = field(default_factory=list)
    stale_windows: list[int] = field(default_factory=list)
    """Lengths (in steps) of maximal windows with stale LM entries."""

    @property
    def total_violations(self) -> int:
        return int(sum(self.violations_series))

    @property
    def peak_violations(self) -> int:
        return int(max(self.violations_series, default=0))

    @property
    def peak_down(self) -> int:
        return int(max(self.down_series, default=0))

    @property
    def max_stale_window(self) -> int:
        return int(max(self.stale_windows, default=0))

    def max_time_to_reconverge(self) -> float | None:
        """Worst measured recovery time across episodes (None when no
        episode both ended and reconverged within the run)."""
        times = [
            e.time_to_reconverge for e in self.episodes
            if e.time_to_reconverge is not None
        ]
        return max(times) if times else None


class ChaosCollector(Collector):
    """Per-step invariant checking + per-episode recovery SLOs."""

    name = "chaos"
    phase = "diff"

    def __init__(self, episodes, mode: str = "count", ledger=None):
        self._episodes = episodes
        self._strict = mode == "strict"
        self._ledger = ledger
        self.report = ChaosReport()
        self._dt = 1.0
        self._steps = 0
        self._stale_run = 0  # steps in the current run with stale entries

    def on_start(self, snap) -> None:
        self._dt = snap.scenario.dt
        self._steps = snap.scenario.steps

    def on_step(self, snap) -> None:
        from repro.faults.invariants import check_invariants

        down = snap.down
        alive = None if down is None else ~down
        inv = check_invariants(
            snap.hierarchy, snap.edges, assignment=snap.assignment,
            alive=alive, step=snap.step, strict=self._strict,
        )
        rep = self.report
        rep.violations_series.append(inv.violations)
        rep.orphan_series.append(inv.orphaned)
        rep.down_series.append(0 if down is None else int(down.sum()))
        if snap.report is not None and snap.report.flat[STALE] > 0:
            self._stale_run += 1
        elif self._stale_run:
            rep.stale_windows.append(self._stale_run)
            self._stale_run = 0

    # -- SLO computation -----------------------------------------------------

    def _recovered(self, step: int) -> bool:
        """Is ``step`` converged?  Zero violations and (when queries are
        sampled) success at or above the threshold."""
        if self.report.violations_series[step] > 0:
            return False
        if self._ledger is not None:
            series = self._ledger.success_series
            if step < len(series) and series[step] < SLO_SUCCESS_THRESHOLD:
                return False
        return True

    def _sustained_from(self, step: int) -> int | None:
        """First step >= ``step`` opening a run of :data:`SLO_WINDOW`
        recovered steps (a shorter all-recovered tail at the very end of
        the run counts — the run just ended converged)."""
        total = len(self.report.violations_series)
        run = 0
        for s in range(step, total):
            run = run + 1 if self._recovered(s) else 0
            if run >= SLO_WINDOW or (run > 0 and s == total - 1):
                return s - run + 1
        return None

    def _episode_slo(self, index: int, ep) -> EpisodeSLO:
        kind = type(ep).__name__.replace("Episode", "").lower()
        kind = {"crash": "crash", "partition": "partition",
                "lossburst": "burst"}.get(kind, kind)
        total = len(self.report.violations_series)
        # Step i covers simulated time ((i)*dt, (i+1)*dt]; the first
        # post-episode step is the first whose clock reached ep.end.
        end_step = int(math.ceil(ep.end / self._dt)) - 1 \
            if math.isfinite(ep.end) else None
        recovered = None
        if end_step is not None and end_step < total:
            recovered = self._sustained_from(max(end_step, 0))
        ttr = None
        if recovered is not None:
            ttr = (recovered - max(end_step, 0)) * self._dt
        start_step = max(int(math.ceil(ep.start / self._dt)) - 1, 0)
        upto = total if recovered is None else min(recovered + 1, total)
        window = slice(min(start_step, total), upto)
        rep = self.report
        return EpisodeSLO(
            index=index, kind=kind, start=ep.start, end=ep.end,
            recovered_step=recovered, time_to_reconverge=ttr,
            peak_violations=int(max(rep.violations_series[window], default=0)),
            peak_orphans=int(max(rep.orphan_series[window], default=0)),
            peak_down=int(max(rep.down_series[window], default=0)),
        )

    def finalize(self, elapsed: float) -> dict:
        rep = self.report
        if self._stale_run:
            rep.stale_windows.append(self._stale_run)
        rep.episodes = [
            self._episode_slo(i, ep) for i, ep in enumerate(self._episodes)
        ]
        return {"chaos": rep}
