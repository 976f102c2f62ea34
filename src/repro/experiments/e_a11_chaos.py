"""EXP-A11 (extension) — chaos episodes and recovery SLOs.

The paper's steady-state analysis assumes the hierarchy exists and is
reachable; it never quantifies what a *structural* fault costs — a
clusterhead decapitation, a geographic partition, a burst of control
loss.  This extension drives the same simulator through scheduled fault
episodes (:mod:`repro.faults.chaos`) and measures the question the
analysis leaves open: how long until the location management structure
*reconverges*, and what breaks while it is down?

Four regimes share one deployment:

* **control** — no faults; what the invariant checker still counts is
  the *natural fragmentation baseline* (mobility occasionally strands a
  node, taking its location-DB pointers out of reach) that the fault
  regimes are read against;
* **ch-kill** — a one-shot kill of several level-1 clusterheads, the
  reorganization case of the paper's handoff taxonomy, forced;
* **partition** — a cut line severs the disc for a window, stranding
  every cross-cut location-DB pointer until the cut heals;
* **burst** — a loss window on top of the PR-2 delivery model, stressing
  registration delivery without touching the graph.

Per regime the table reports total/peak invariant violations, peak
simultaneously-down nodes, measured time-to-reconverge after the last
episode ends, the longest stale-location window, and end-to-end query
success.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.faults import CrashEpisode, LossBurstEpisode, PartitionEpisode
from repro.sim import Scenario, expand_grid, run_sweep, sweep_points

__all__ = ["run"]


def _time_to_reconverge(res) -> float:
    ttr = res.extras["chaos"].max_time_to_reconverge()
    if ttr is None:
        # Control: nothing to recover from.  Fault regime: the run
        # ended still broken — report an infinite SLO.
        return np.inf if res.scenario.chaos else 0.0
    return ttr


METRICS = {
    "violations": lambda r: r.extras["chaos"].total_violations,
    "peak": lambda r: r.extras["chaos"].peak_violations,
    "down": lambda r: r.extras["chaos"].peak_down,
    "ttr": _time_to_reconverge,
    "stale": lambda r: r.extras["chaos"].max_stale_window,
    # None means "no queries sampled", not "all queries failed": a
    # missing sample, kept out of the mean instead of zeroed.
    "success": lambda r: r.query_success_rate,
}


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    n = 150 if quick else 400
    steps = 30 if quick else 80

    regimes = [
        ("control", ()),
        ("ch-kill", (
            CrashEpisode(start=8.0, duration=1.0, count=4,
                         targets="clusterheads", repair_time=8.0),
        )),
        ("partition", (
            PartitionEpisode(start=8.0, duration=10.0, angle=0.4),
        )),
        ("burst", (
            LossBurstEpisode(start=8.0, duration=8.0, rate=0.45),
        )),
    ]

    result = ExperimentResult(
        exp_id="EXP-A11",
        title="Extension: chaos episodes, invariant violations, recovery SLOs",
        columns=["regime", "violations", "peak", "peak down",
                 "reconverge (s)", "stale window", "query success"],
    )
    # Dense deployment: keeps the natural-fragmentation baseline small
    # relative to the fault signal (it cannot be driven to zero — one
    # stray node strands every pointer it serves).
    base = Scenario(
        n=n, steps=steps, warmup=5, speed=1.5,
        max_levels=3, target_degree=12.0, hop_mode="euclidean",
        queries_per_step=8, retry_attempts=2, loss_rate=0.02,
        invariant_mode="count", hop_sample_every=10_000,
    )
    grid = [sc for _, chaos in regimes
            for sc in expand_grid(replace(base, chaos=chaos), None, seeds)]
    points = sweep_points(run_sweep(grid), METRICS)
    for (name, _), p in zip(regimes, points):
        result.add_row(
            name, round(p["violations"], 1), round(p["peak"], 1),
            round(p["down"], 1), round(p["ttr"], 1), round(p["stale"], 1),
            "n/a" if np.isnan(p["success"]) else f"{p['success']:.3f}",
        )
    result.add_note(
        "Finding: every fault regime reconverges in finite time once its "
        "episode ends — the hierarchy is self-healing, as the memoryless "
        "re-election argument predicts.  But the *location layer* lags "
        "the hierarchy: partitions strand cross-cut server pointers for "
        "the whole cut (violations track the cut window, not the "
        "re-election time), and bursts stretch the stale-location window "
        "far past the loss window itself.  Read fault rows against the "
        "control row: its nonzero count is the mobility-induced "
        "fragmentation baseline, not an injected fault."
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
