"""The reference stepping path the simulator must reproduce.

:class:`OracleSimulator` steps exactly as the production
:class:`~repro.sim.engine.Simulator` does, but with the patch-or-full
rule's module constants set so that
:func:`~repro.core.servers.patch_pays` never picks the patch: the
handoff engine reassigns every CHLM server from scratch each step.  The
production simulator patches the assignment on the steps
:func:`~repro.core.servers.patch_pays` picks; :func:`force_patch` makes
it patch on every step it can (same depth as the step before), the path
an equivalence test wants exercised.  :class:`PatchProbe` records which
steps did.
"""

import math

from repro.core import handoff, servers
from repro.sim.collectors import Collector
from repro.sim.engine import Simulator

__all__ = ["OracleSimulator", "PatchProbe", "force_patch", "run_oracle"]


class OracleSimulator(Simulator):
    """The production stepping path with a full CHLM reassignment on
    every step."""

    def _run_step(self, step, mark=None):
        saved = servers.PATCH_MIN_NODES
        servers.PATCH_MIN_NODES = math.inf
        try:
            super()._run_step(step, mark)
        finally:
            servers.PATCH_MIN_NODES = saved


def run_oracle(scenario):
    return OracleSimulator(scenario).run()


def force_patch(monkeypatch):
    """Make :func:`~repro.core.servers.patch_pays` choose the patch on
    every step, whatever the size and churn."""
    monkeypatch.setattr(servers, "PATCH_MIN_NODES", 0)
    monkeypatch.setattr(servers, "PATCH_MAX_CHURN", math.inf)


class PatchProbe(Collector):
    """Records, per metered step, whether the handoff engine patched its
    CHLM assignment: a spy on the engine's
    :func:`~repro.core.servers.patch_assignment`, installed through
    ``monkeypatch`` for the test's duration."""

    name = "patch_probe"

    def __init__(self, monkeypatch):
        self.steps = []
        self._patched = False
        real = handoff.patch_assignment

        def spy(*args):
            self._patched = True
            return real(*args)

        monkeypatch.setattr(handoff, "patch_assignment", spy)

    def on_step(self, snap):
        self.steps.append(self._patched)
        self._patched = False

    def finalize(self, elapsed):
        return {self.name: list(self.steps)}
