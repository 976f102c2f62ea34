"""EXP-A4 (extension) — LM consistency: address-component lifetimes.

GLS feature (c) — nearby servers updated often, distant ones rarely —
only works because high-level address components are long-lived.  This
experiment measures, per hierarchy level, the mean lifetime of a node's
level-k address component and the staleness fraction an LM entry would
suffer under a fixed one-step update lag.  The paper's locality story
predicts lifetimes growing ~h_k with level (the same Theta(sqrt(c_k))
scale as delta_k in Eq. 7), so staleness concentrates at the cheap,
nearby levels.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis import levels_for
from repro.experiments.common import ExperimentResult
from repro.sim import Scenario, expand_grid, run_sweep, sweep_points

__all__ = ["run"]


def _finite_lifetimes(res) -> dict[int, float]:
    """Component lifetimes of the levels where some change was seen."""
    return {k: t for k, t in res.component_lifetimes().items()
            if np.isfinite(t)}


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    n = 400 if quick else 1600
    steps = 40 if quick else 120
    speeds = (0.5, 1.0, 2.0)

    result = ExperimentResult(
        exp_id="EXP-A4",
        title="Extension: address-component lifetimes and LM staleness",
        columns=["speed (m/s)", "level k", "component lifetime (s)",
                 "staleness @ dt lag", "lifetime * speed"],
    )
    base = Scenario(n=n, steps=steps, warmup=10, hop_mode="euclidean",
                    max_levels=levels_for(n), hop_sample_every=10_000)
    grid = [sc for mu in speeds
            for sc in expand_grid(replace(base, speed=mu), None, seeds)]
    points = sweep_points(run_sweep(grid), {"life": _finite_lifetimes})
    per_speed = {mu: p["life"] for mu, p in zip(speeds, points)}
    for mu, lifetimes in per_speed.items():
        for k, t in lifetimes.items():
            result.add_row(mu, k, round(t, 1), round(min(1.0 / t, 1.0), 4),
                           round(t * mu, 1))

    for mu, lifetimes in per_speed.items():
        result.add_note(
            f"mu={mu}: lifetimes by level "
            f"{['%.0f' % v for v in lifetimes.values()]}"
        )
    result.add_note(
        "Finding: lifetimes are level-FLAT, not growing ~h_k as pure "
        "boundary-crossing (Eq. 7) would give.  Cause: clusters are named "
        "by head ID (Fig. 1 convention), so a head replacement renames the "
        "component for every member without anyone moving — the same "
        "high-level churn as EXPERIMENTS.md deviation 1.  A cluster-ID "
        "persistence scheme (IDs surviving head handover) would recover "
        "the Theta(sqrt(c_k)) growth; with head-named clusters, feature "
        "(c)'s saving comes from the update *path length*, not frequency."
    )
    # Lifetime ~ 1/mu: the product lifetime*speed should be speed-invariant.
    common = set.intersection(*(set(v) for v in per_speed.values()))
    for k in sorted(common):
        prods = [per_speed[mu][k] * mu for mu in speeds]
        result.add_note(
            f"level {k}: lifetime*mu across speeds = "
            + ", ".join(f"{p:.0f}" for p in prods)
            + " (constancy => lifetime = Theta(delta_k / mu), Eq. 7/8)"
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
