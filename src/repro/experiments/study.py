"""The scaling study: the one grid of runs that eight experiments read.

The paper's two bounds, phi = O(log^2 |V|) (Sec. 4) and gamma =
O(log^2 |V|) (Sec. 5), are checked by one kind of run: random waypoint
at 1 m/s with L = levels_for(n), swept over n.  EXP-T3, T4, T5, T6,
T10, A1, A2 and A5 are table views over that grid: each asks
:func:`runs` for the cells it tabulates and never builds a scenario of
its own; :func:`~repro.sim.sweep.sweep_points` takes their seed means.

* **Arms** are one-field overrides of the base run: ``memoryless`` (the
  base), ``sticky`` and ``persistent`` (``election_mode``), and
  ``contraction`` (``level_mode``).
* **Cadence.**  The hop sample is drawn every ``max(steps // 3, 1)``
  steps from its own random stream, so phi, gamma, every per-level
  rate and the final positions are the same at any cadence; only h_k
  reads the sample.
* **Once per process.**  A cell's result is kept for the life of the
  process, keyed by :func:`~repro.sim.sweep.scenario_key`, so a
  report over all eight experiments simulates each cell once.  Views
  share these results and only read them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.analysis import levels_for
from repro.sim import Scenario, SimResult, expand_grid, run_sweep, scenario_key

__all__ = ["runs", "sizes"]

_ARMS = {
    "memoryless": {},
    "sticky": {"election_mode": "sticky"},
    "persistent": {"election_mode": "persistent"},
    "contraction": {"level_mode": "contraction"},
}

_DONE: dict[str, SimResult] = {}
"""This process's finished cells by scenario key (a Scenario is not
hashable)."""


def sizes(quick: bool) -> tuple[int, ...]:
    """The study's whole size axis: 100 … 1 600, or … 6 400 when full."""
    return (100, 200, 400, 800, 1600) if quick else (
        100, 200, 400, 800, 1600, 3200, 6400)


def runs(arm: str, ns: Sequence[int], quick: bool,
         seeds: Sequence[int]) -> list[SimResult]:
    """The runs of ``arm``, n-major and in seed order within each n (the
    order of :func:`~repro.sim.sweep.expand_grid`).

    Runs last 40 metered steps (``quick``) or 100, after 10 of warm-up.
    Cells this process does not hold yet run in one
    :func:`~repro.sim.sweep.run_sweep` call, so they go through its
    worker pool and result cache.
    """
    steps = 40 if quick else 100
    base = Scenario(steps=steps, warmup=10, speed=1.0, hop_mode="euclidean",
                    hop_sample_every=max(steps // 3, 1), **_ARMS[arm])
    grid = expand_grid(
        base, ns, seeds,
        scenario_for=lambda sc, n: replace(sc, max_levels=levels_for(n)),
    )
    keys = [scenario_key(sc) for sc in grid]
    todo = {key: sc for key, sc in zip(keys, grid) if key not in _DONE}
    _DONE.update(zip(todo, run_sweep(list(todo.values()))))
    return [_DONE[key] for key in keys]

