"""Pluggable measurement plane for the simulator pipeline.

Every metric the simulator reports is produced by a *collector*: an
object implementing the :class:`~repro.sim.collectors.base.Collector`
protocol (``on_start`` / ``on_step`` / ``finalize``) that observes the
engine's immutable per-step :class:`~repro.sim.snapshot.StepSnapshot`.
The engine's job ends at advancing phases and building snapshots; what
gets *measured* is entirely collector-side, so new workloads add a
collector instead of reopening the engine::

    class MyCollector(Collector):
        def on_step(self, snap):
            ...  # read snap.positions / snap.hierarchy / snap.report

    res = Simulator(scenario, collectors=[MyCollector()]).run()
    res.extras["collector"]  # whatever finalize() returned

The default set (built by the simulator from the scenario) reproduces
the classic inline metrics bit-identically: :class:`LedgerCollector`,
:class:`LinkEventCollector`, :class:`QueryCollector` (when the scenario
samples queries), :class:`StateCollector`, :class:`TraceCollector`
(when tracing), :class:`LevelSeriesCollector`, and
:class:`HopSampleCollector`.  Collector state is pickled wholesale by
:meth:`~repro.sim.engine.Simulator.checkpoint`, so custom collectors
resume for free as long as their state is picklable.
"""

from repro.sim.collectors.base import Collector
from repro.sim.collectors.chaos import ChaosCollector, ChaosReport, EpisodeSLO
from repro.sim.collectors.ledger import LedgerCollector
from repro.sim.collectors.levels import LevelSeriesCollector
from repro.sim.collectors.links import LinkEventCollector
from repro.sim.collectors.queries import QueryCollector
from repro.sim.collectors.sampling import HopSampleCollector
from repro.sim.collectors.states import StateCollector
from repro.sim.collectors.tracing import TraceCollector

__all__ = [
    "ChaosCollector",
    "ChaosReport",
    "Collector",
    "EpisodeSLO",
    "LedgerCollector",
    "LinkEventCollector",
    "LevelSeriesCollector",
    "StateCollector",
    "HopSampleCollector",
    "TraceCollector",
    "QueryCollector",
]
