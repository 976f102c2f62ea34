"""The reference stepping path the simulator must reproduce.

:class:`OracleSimulator` takes every step's edges from a fresh plain
build (:func:`~repro.radio.unit_disk.unit_disk_edges`), as the
production :class:`~repro.sim.engine.Simulator` does, but never builds a
:class:`~repro.hierarchy.delta.HierarchyDelta`, so the handoff engine
reassigns every CHLM server from scratch each step.  The production
simulator patches the assignment on the steps
:func:`~repro.core.servers.patch_pays` picks; :func:`force_patch` makes
it patch on every step, the path an equivalence test wants exercised.
"""

import math

from repro.core import servers
from repro.radio.unit_disk import unit_disk_edges
from repro.sim.collectors import Collector
from repro.sim.engine import Simulator

__all__ = ["DeltaProbe", "OracleSimulator", "force_patch", "run_oracle"]


class OracleSimulator(Simulator):
    """Plain unit-disk edges and a full CHLM reassignment on every step."""

    def _edges(self, positions):
        edges = unit_disk_edges(positions, self.sc.r_tx)
        if self._chaos is not None:
            edges = self._chaos.filter_edges(edges, positions)
        return edges

    def _delta(self, hierarchy, diff):
        return None


def run_oracle(scenario):
    return OracleSimulator(scenario).run()


def force_patch(monkeypatch):
    """Make :func:`~repro.core.servers.patch_pays` choose the patch on
    every step, whatever the size and churn."""
    monkeypatch.setattr(servers, "PATCH_MIN_NODES", 0)
    monkeypatch.setattr(servers, "PATCH_MAX_CHURN", math.inf)


class DeltaProbe(Collector):
    """Records, per metered step, whether its snapshot carried a delta
    and whether that delta was a full one."""

    name = "delta_probe"

    def __init__(self):
        self.steps = []

    def on_step(self, snap):
        delta = snap.delta
        self.steps.append(None if delta is None else bool(delta.full))

    def finalize(self, elapsed):
        return {self.name: list(self.steps)}
