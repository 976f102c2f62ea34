"""Event-trace recording as a collector.

The trace is the record of which event was charged for what: each
step's pure migrations (Sec. 4), reorganisation events (i)-(vii)
(Sec. 5) and handoff totals, as plain ``{"t", "kind", "payload"}``
dicts.  It reaches ``SimResult.extras["trace"]`` and the ``trace``
section of the run's :class:`~repro.obs.manifest.RunManifest`.
"""

from __future__ import annotations

from collections import deque

from repro.core.events import EventKind
from repro.sim.collectors.base import Collector

__all__ = ["TraceCollector"]

TRACE_CAPACITY = 50_000
"""Events a trace keeps; older ones are evicted (and counted in
``dropped``), so a saturated trace holds the most recent window."""

# HierarchyDiff.reorg_kind holds positions in tuple(EventKind).
_KIND_VALUES = tuple(kind.value for kind in EventKind)


class TraceCollector(Collector):
    """Records handoff migrations, reorgs and per-step handoff totals
    into a ring buffer of the last :data:`TRACE_CAPACITY` events."""

    name = "trace"
    phase = "diff"

    def __init__(self):
        self.events: deque = deque(maxlen=TRACE_CAPACITY)
        self.dropped = 0

    def _record(self, t: float, kind: str, **payload) -> None:
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append({"t": t, "kind": kind, "payload": payload})

    def on_step(self, snap) -> None:
        """Record this step's pure migrations, reorgs, and handoff totals."""
        report = snap.report
        t = float(snap.t)
        diff = report.diff
        pure = diff.mig_pure
        for node, level, old, new in zip(
            diff.mig_node[pure].tolist(), diff.mig_level[pure].tolist(),
            diff.mig_old[pure].tolist(), diff.mig_new[pure].tolist(),
        ):
            self._record(t, "migration", node=node, level=level, old=old,
                         new=new)
        for kind, level, subject, other in zip(
            diff.reorg_kind.tolist(), diff.reorg_level.tolist(),
            diff.reorg_subject.tolist(), diff.reorg_other.tolist(),
        ):
            self._record(
                t, f"reorg:{_KIND_VALUES[kind]}", level=level,
                subject=subject, other=None if other < 0 else other,
            )
        if report.total_handoff_packets:
            self._record(t, "handoff", phi=int(report.phi_packets),
                         gamma=int(report.gamma_packets))

    def finalize(self, elapsed: float) -> dict:
        """Contribute ``trace`` (capacity, dropped count, events) to
        ``SimResult.extras``."""
        return {"trace": {"capacity": self.events.maxlen,
                          "dropped": self.dropped,
                          "events": list(self.events)}}
