"""Event-trace recording as a collector."""

from __future__ import annotations

from repro.core.events import EventKind
from repro.sim.collectors.base import Collector
from repro.sim.trace import EventTrace

__all__ = ["TraceCollector"]

# HierarchyDiff.reorg_kind holds positions in tuple(EventKind).
_KIND_VALUES = tuple(kind.value for kind in EventKind)


class TraceCollector(Collector):
    """Records handoff migrations/reorgs into an
    :class:`~repro.sim.trace.EventTrace` ring buffer."""

    name = "trace"
    phase = "diff"

    def __init__(self, trace: EventTrace):
        self.trace = trace

    def on_step(self, snap) -> None:
        """Record this step's pure migrations, reorgs, and handoff totals."""
        trace = self.trace
        report = snap.report
        t = snap.t
        diff = report.diff
        pure = diff.mig_pure
        for node, level, old, new in zip(
            diff.mig_node[pure].tolist(), diff.mig_level[pure].tolist(),
            diff.mig_old[pure].tolist(), diff.mig_new[pure].tolist(),
        ):
            trace.record(t, "migration", node=node, level=level, old=old, new=new)
        for kind, level, subject, other in zip(
            diff.reorg_kind.tolist(), diff.reorg_level.tolist(),
            diff.reorg_subject.tolist(), diff.reorg_other.tolist(),
        ):
            trace.record(
                t, f"reorg:{_KIND_VALUES[kind]}", level=level,
                subject=subject, other=None if other < 0 else other,
            )
        if report.total_handoff_packets:
            trace.record(
                t, "handoff", phi=report.phi_packets,
                gamma=report.gamma_packets,
            )

    def finalize(self, elapsed: float) -> dict:
        """Contribute ``trace`` to the result."""
        return {"trace": self.trace}
