"""EXP-A3 (extension) — handoff under node failure.

Section 1 of the paper *excludes* clusterhead birth/death: "the
occurrence of node birth/death is assumed here to be extremely rare
and, therefore, its effect is not evaluated."  This extension evaluates
it: nodes crash at a Poisson rate (losing all links) and recover after
a fixed downtime.  Each crash of a clusterhead forces exactly the
reorganization handoff the paper's taxonomy describes; the experiment
measures how fast the excluded effect grows with the failure rate, and
at what rate it starts to rival mobility-induced handoff.

Each failing run schedules one whole-run ``CrashEpisode(rate=...,
repair_time=15)`` in ``Scenario.chaos``; its draws come from the
``"chaos"`` RNG stream.  The last column is measured: the mean number
of nodes down per metered step, from the chaos report's
``down_series``.  EXP-A11 generalizes the model to scheduled episodes,
partitions, and loss bursts with invariant checking and recovery SLOs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis import levels_for
from repro.experiments.common import ExperimentResult
from repro.faults import CrashEpisode
from repro.sim import Scenario, expand_grid, run_sweep, sweep_points

__all__ = ["run"]


def _mean_down(res) -> float:
    """Mean nodes down per metered step (the control run schedules no
    episode, so has no report)."""
    report = res.extras.get("chaos")
    return np.mean(report.down_series) if report else 0.0


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    n = 300 if quick else 800
    steps = 40 if quick else 100
    # Per-node crash rates: 0 (control) up to one crash per ~100 s.
    rates = (0.0, 0.001, 0.005, 0.01) if quick else (0.0, 0.0005, 0.001, 0.005, 0.01, 0.02)

    result = ExperimentResult(
        exp_id="EXP-A3",
        title="Extension: handoff under node failure (the paper's excluded factor)",
        columns=["failure rate (1/s)", "phi", "gamma", "total",
                 "vs control", "mean nodes down/step"],
    )
    base = Scenario(n=n, steps=steps, warmup=10, speed=1.0,
                    hop_mode="euclidean", max_levels=levels_for(n),
                    hop_sample_every=10_000)
    grid = [
        sc for rate in rates for sc in expand_grid(replace(
            base,
            chaos=(CrashEpisode(rate=rate, repair_time=15.0),) if rate else (),
        ), None, seeds)
    ]
    points = sweep_points(run_sweep(grid), {
        "phi": lambda r: r.phi, "gamma": lambda r: r.gamma, "down": _mean_down,
    })
    control = points[0]["phi"] + points[0]["gamma"]
    for rate, p in zip(rates, points):
        total = p["phi"] + p["gamma"]
        result.add_row(
            rate, round(p["phi"], 3), round(p["gamma"], 3), round(total, 3),
            f"{total / max(control, 1e-9):.2f}x", round(p["down"], 1),
        )
    result.add_note(
        "Finding: failures reduce phi.  A crashed node sits frozen for "
        "the whole repair window, contributing zero mobility churn, so "
        "phi falls as the frozen fraction (the nodes-down column over n) "
        "grows.  gamma absorbs each crash's burst of forced "
        "elections/rejections and moves a few percent either way, so the "
        "total stays below the control or within a few percent of it, "
        "and is not monotone in the rate over two seeds.  The paper's "
        "exclusion of birth/death is therefore *conservative*: adding "
        "rare failures does not break the Theta(log^2 n) bound."
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
