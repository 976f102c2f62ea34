"""EXP-A6 (extension) — query correctness under propagation lag.

The paper treats queries as always answerable (Section 6 folds their
cost into the session).  In a real deployment the distributed LM
database lags the topology by at least one update round; this
experiment measures what that lag costs: at each step, queries are
resolved against the *previous* step's hierarchy and server assignment,
and the answer is graded against the target's *current* address.

Grades per query:

* **exact** — the stale answer equals the current address (the session
  can start immediately);
* **routable** — the level-1 component still holds (the packet reaches
  the target's current cluster; intra-cluster delivery fixes the rest);
* **stale** — even the level-1 component changed (the session opener
  must re-query).

The paper's locality story predicts high routability: addresses change
mostly at the bottom, and a one-step lag rarely invalidates upper
components.

The measurement rides the standard simulator as a custom
:class:`~repro.sim.collectors.Collector` (:class:`StalenessCollector`):
each :class:`~repro.sim.snapshot.StepSnapshot` carries the current
hierarchy, server assignment, and hop oracle, and the collector holds
the previous snapshot's pair as the "lagging database".
"""

from __future__ import annotations

import numpy as np

from repro.analysis import levels_for
from repro.core import resolve_batch
from repro.experiments.common import ExperimentResult
from repro.sim import Scenario, SimResult, Simulator, sweep_points
from repro.sim.collectors import Collector

__all__ = ["run", "StalenessCollector"]


class StalenessCollector(Collector):
    """Grade queries resolved against a one-step-stale LM database.

    At each step, ``queries_per_step`` source/destination pairs are
    resolved against the hierarchy and assignment captured from the
    *previous* snapshot, and the answer is graded against the target's
    address in the *current* snapshot (exact / routable / stale /
    unresolved — see the module docstring).
    """

    name = "staleness"

    def __init__(self, rng: np.random.Generator, queries_per_step: int = 20):
        self._rng = rng
        self._per_step = int(queries_per_step)
        self._prev = None  # (hierarchy, assignment) one step behind
        self.counts = {"exact": 0, "routable": 0, "stale": 0, "unresolved": 0}
        self.total = 0

    def on_start(self, snap) -> None:
        """Seed the lagging database with the warmup-end state."""
        self._prev = (snap.hierarchy, snap.assignment)

    def on_step(self, snap) -> None:
        """Resolve stale, grade against current, then advance the lag."""
        h_prev, a_prev = self._prev
        h_now = snap.hierarchy
        pairs = self._rng.integers(0, snap.scenario.n, size=(self._per_step, 2))
        src, dst = pairs[pairs[:, 0] != pairs[:, 1]].T
        out = resolve_batch(h_prev, a_prev, src, dst, snap.hop_fn)
        for q in out.results():
            self.total += 1
            if q.hit_level < 0:
                self.counts["unresolved"] += 1
                continue
            current = h_now.address(q.target)
            if q.address == current:
                self.counts["exact"] += 1
            elif q.address[-2] == current[-2]:  # level-1 component holds
                self.counts["routable"] += 1
            else:
                self.counts["stale"] += 1
        self._prev = (h_now, snap.assignment)

    def finalize(self, elapsed: float) -> dict:
        """Return grade fractions under ``extras['staleness']``."""
        return {
            "staleness": {
                k: v / max(self.total, 1) for k, v in self.counts.items()
            }
        }


def _one_run(n: int, speed: float, steps: int, seed: int) -> SimResult:
    sc = Scenario(
        n=n, steps=steps, warmup=10, speed=speed, dt=1.0,
        density=0.02, target_degree=9.0, seed=seed,
        max_levels=levels_for(n), hop_mode="euclidean",
    )
    collector = StalenessCollector(np.random.default_rng(seed))
    return Simulator(sc, collectors=[collector]).run()


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    n = 300 if quick else 800
    steps = 15 if quick else 40
    speeds = (0.5, 1.0, 2.0, 4.0)
    results = [_one_run(n, mu, steps, seed) for mu in speeds for seed in seeds]
    points = sweep_points(results, {"grade": lambda r: r.extras["staleness"]})

    result = ExperimentResult(
        exp_id="EXP-A6",
        title="Extension: query correctness with a one-step stale LM database",
        columns=["speed (m/s)", "exact", "exact+routable", "stale",
                 "unresolved"],
    )
    for p in points:
        m = p["grade"]
        result.add_row(
            p.scenario.speed, round(m["exact"], 3),
            round(m["exact"] + m["routable"], 3),
            round(m["stale"], 3), round(m["unresolved"], 3),
        )
    result.add_note(
        "Reading: 'exact+routable' is the fraction of sessions a one-step "
        "lag cannot break — the operational content of the paper's claim "
        "that query overhead is absorbed into the session.  It should "
        "degrade gracefully (not collapse) as speed rises."
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
