"""Sweep-level telemetry aggregation.

:class:`SweepReport` is both a progress callback (pass the instance as
``progress=`` to any sweep entry point) and an aggregator: it folds the
stream of :class:`~repro.sim.sweep.SweepProgress` events into live
throughput/ETA/cache statistics, and — once the sweep finishes — joins
the results and error records into per-n phase breakdowns and
retry/timeout counts for the report block ``repro sweep`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SweepReport"]


@dataclass
class SweepReport:
    """Accumulates sweep telemetry from progress events and results."""

    total: int = 0
    done: int = 0
    cached: int = 0
    executed: int = 0
    """Tasks actually simulated this sweep (``done`` minus cache hits)."""
    task_seconds: list[float] = field(default_factory=list)
    """Per-task simulation durations (cache hits excluded)."""
    ser_seconds: list[float] = field(default_factory=list)
    """Per-task result-serialization times (worker pack + parent
    unpack; cache hits excluded, zero for serial in-process runs)."""
    cache_seconds: float = 0.0
    """Wall seconds spent loading cache hits (excluded from the
    execution clock that throughput is computed over)."""
    workers_seen: set = field(default_factory=set)
    retries: int = 0
    """Extra attempts consumed by tasks that eventually succeeded."""
    sweep_seconds: float = 0.0
    """Sweep wall time at the latest progress event."""
    errors: list = field(default_factory=list)
    results: list = field(default_factory=list)

    # -- ingestion ----------------------------------------------------------------

    def record(self, p) -> None:
        """Fold in one :class:`SweepProgress` event."""
        self.total = p.total
        self.done = p.done
        self.cached = p.cached
        self.sweep_seconds = max(self.sweep_seconds, p.elapsed)
        if p.from_cache:
            self.cache_seconds += p.task_seconds
        else:
            self.executed += 1
            self.task_seconds.append(p.task_seconds)
            self.ser_seconds.append(getattr(p, "ser_seconds", 0.0))
            self.retries += max(0, p.attempts - 1)
            if p.worker is not None:
                self.workers_seen.add(p.worker)

    # Passing the report object itself as ``progress=`` just works.
    __call__ = record

    def finish(self, run) -> None:
        """Attach a finished :class:`~repro.sim.sweep.SweepRun` (or any
        object with ``results``/``errors``) for result-side aggregation."""
        self.results = [r for r in run.results if r is not None]
        self.errors = list(run.errors)

    # -- live statistics ----------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of completed tasks served from the result cache."""
        return self.cached / self.done if self.done else 0.0

    @property
    def mean_task_seconds(self) -> float:
        ts = self.task_seconds
        return sum(ts) / len(ts) if ts else 0.0

    @property
    def mean_ser_seconds(self) -> float:
        ts = self.ser_seconds
        return sum(ts) / len(ts) if ts else 0.0

    @property
    def run_seconds(self) -> float:
        """Sweep wall time net of cache-hit loading — the clock actual
        executions ran against."""
        return max(self.sweep_seconds - self.cache_seconds, 0.0)

    @property
    def throughput_per_min(self) -> float:
        """Executed tasks per minute of execution wall time.

        Cache hits count in neither numerator nor denominator: a warm
        sweep that replays 90 cached tasks and runs 10 reports the
        throughput of those 10, not a fictitious 10x speedup.
        """
        if self.executed <= 0 or self.run_seconds <= 0:
            return 0.0
        return 60.0 * self.executed / self.run_seconds

    @property
    def eta_seconds(self) -> float:
        """Projected seconds to finish the remaining tasks.

        0 when done; NaN while no task has actually *executed* yet — an
        all-cache-hits prefix says nothing about how long the pending
        simulations will take, and the old 0.0 read as "almost done".
        """
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        if not self.task_seconds:
            return float("nan")
        lanes = max(len(self.workers_seen), 1)
        return remaining * self.mean_task_seconds / lanes

    def error_counts(self) -> dict[str, int]:
        """Failed-task counts by kind (``exception``/``crash``/``timeout``)."""
        out: dict[str, int] = {}
        for e in self.errors:
            out[e.kind] = out.get(e.kind, 0) + 1
        return dict(sorted(out.items()))

    @property
    def failed_attempts(self) -> int:
        """Attempts consumed by tasks that never succeeded."""
        return sum(e.attempts for e in self.errors)

    # -- result-side aggregation --------------------------------------------------

    def per_n_phases(self) -> dict[int, dict[str, float]]:
        """Mean per-step phase seconds by scenario size n.

        Uses each profiled result's :class:`StepTimings`; unprofiled
        results are skipped (an unprofiled cache hit carries no timings).
        """
        from repro.obs.timers import StepTimings

        merged: dict[int, StepTimings] = {}
        for res in self.results:
            timings = getattr(res, "timings", None)
            if timings is None:
                continue
            merged.setdefault(res.scenario.n, StepTimings()).merge(timings)
        return {
            n: t.mean_per_step() for n, t in sorted(merged.items()) if t.steps
        }

    def invariant_summary(self) -> dict[str, int]:
        """Aggregate hierarchy-invariant violations across results.

        Scans each result's chaos report (``extras["chaos"]``, attached
        by the :class:`~repro.sim.collectors.chaos.ChaosCollector`) and
        returns ``{"checked": ..., "flagged": ..., "violations": ...}``
        — how many runs were invariant-checked, how many of those had at
        least one violation, and the violation total.  All zeros when no
        run in the sweep carried a chaos report.
        """
        checked = flagged = violations = 0
        for res in self.results:
            chaos = getattr(res, "extras", {}).get("chaos")
            if chaos is None:
                continue
            checked += 1
            total = int(chaos.total_violations)
            violations += total
            if total:
                flagged += 1
        return {
            "checked": checked, "flagged": flagged, "violations": violations
        }

    def reorg_event_summary(self) -> dict[str, int]:
        """Aggregate (i)-(vii) reorganization event counts across results.

        Sums each result ledger's
        :meth:`~repro.core.accounting.OverheadLedger.reorg_event_breakdown`
        over the whole sweep, keyed by the roman-numeral event kind —
        the sweep-level answer to *which event type dominates gamma*
        (EXP-F3's question).  Empty when no result carried a ledger.
        """
        out: dict[str, int] = {}
        for res in self.results:
            ledger = getattr(res, "ledger", None)
            if ledger is None:
                continue
            for kind, entry in ledger.reorg_event_breakdown().items():
                out[kind] = out.get(kind, 0) + int(entry["count"])
        return out

    # -- rendering ----------------------------------------------------------------

    def to_lines(self) -> list[str]:
        """Render the report as aligned text for the CLI."""
        lines = [
            f"tasks      {self.done}/{self.total} done"
            f" ({self.cached} cached, {100 * self.cache_hit_rate:.0f}% hit rate)",
            f"wall       {self.sweep_seconds:.1f} s sweep"
            f" | {self.mean_task_seconds:.2f} s mean/task"
            f" | {self.throughput_per_min:.1f} tasks/min",
        ]
        if any(s > 0 for s in self.ser_seconds):
            total_ser = sum(self.ser_seconds)
            lines.append(
                f"transport  {total_ser:.2f} s serializing results"
                f" ({self.mean_ser_seconds * 1e3:.1f} ms mean/task)"
            )
        if self.done < self.total:
            eta = self.eta_seconds
            lines.append(
                "eta        unknown (no executed task yet)"
                if eta != eta else f"eta        {eta:.1f} s"
            )
        if self.workers_seen:
            lines.append(f"workers    {len(self.workers_seen)} distinct")
        if self.retries or self.errors:
            counts = ", ".join(
                f"{k}={v}" for k, v in self.error_counts().items()
            ) or "none"
            lines.append(
                f"faults     {self.retries} retried-then-succeeded, "
                f"{len(self.errors)} failed ({counts})"
            )
        inv = self.invariant_summary()
        if inv["checked"]:
            lines.append(
                f"invariants {inv['flagged']}/{inv['checked']} checked runs"
                f" with violations ({inv['violations']} total)"
            )
        reorg = self.reorg_event_summary()
        if reorg:
            top = max(reorg, key=reorg.get)
            counts = ", ".join(f"({k}) {v}" for k, v in reorg.items())
            lines.append(
                f"reorg      {counts} — ({top}) dominates gamma"
            )
        phases = self.per_n_phases()
        if phases:
            keys = sorted({k for d in phases.values() for k in d})
            header = f"{'n':>8} " + " ".join(f"{k:>10}" for k in keys)
            lines.append("phase mean ms/step:")
            lines.append(header)
            for n, d in phases.items():
                lines.append(
                    f"{n:>8} "
                    + " ".join(f"{1e3 * d.get(k, 0.0):>10.3f}" for k in keys)
                )
        return lines

    def render(self) -> str:
        """The full report as one printable block."""
        return "\n".join(self.to_lines())
