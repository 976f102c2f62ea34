"""EXP-A8 (extension) — "why six is a magic number", revisited.

The paper's hop-count scaling leans on Kleinrock & Silvester [2], whose
famous result is that an average degree around six maximizes progress
per hop in a random packet-radio network.  Degree also gates everything
else here: connectivity (too low → partitioned), link churn f_0 (radius
in the denominator of Eq. 4), cluster arity, and ultimately the handoff
bill.  This experiment sweeps the target degree at fixed node count and
tabulates the whole chain, locating the sweet spot the reference names.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import levels_for
from repro.experiments.common import ExperimentResult
from repro.sim import Scenario, expand_grid, run_sweep, sweep_points

__all__ = ["run"]


def _alpha1(res) -> float:
    """Level-1 aggregation: nodes per level-1 cluster."""
    size1 = res.level_series.mean_size(1)
    return res.scenario.n / size1 if size1 else 0.0


METRICS = {
    "giant": lambda r: r.giant_fraction,
    "h": lambda r: r.mean_h(),
    "f0": lambda r: r.f0,
    "alpha1": _alpha1,
    "handoff": lambda r: r.handoff_rate,
}


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    n = 300 if quick else 800
    steps = 30 if quick else 80
    degrees = (4.0, 6.0, 9.0, 12.0, 16.0)

    result = ExperimentResult(
        exp_id="EXP-A8",
        title='Degree sensitivity ("six is a magic number" [2])',
        columns=["target degree", "giant frac", "h (hops)", "f_0",
                 "alpha_1", "handoff (pkts/node/s)"],
    )
    base = Scenario(n=n, steps=steps, warmup=10, speed=1.0,
                    hop_mode="euclidean", max_levels=levels_for(n),
                    hop_sample_every=max(steps // 3, 1))
    grid = [sc for d in degrees
            for sc in expand_grid(replace(base, target_degree=d), None, seeds)]
    for d, m in zip(degrees, sweep_points(run_sweep(grid), METRICS)):
        result.add_row(d, round(m["giant"], 3), round(m["h"], 2),
                       round(m["f0"], 3), round(m["alpha1"], 2),
                       round(m["handoff"], 3))

    result.add_note(
        "Reading: below ~6 the giant component crumbles (connectivity "
        "fails before anything else).  Raising the degree buys shorter "
        "paths and slightly cheaper handoff, but every extra link also "
        "churns — f_0 grows ~linearly with degree (|E|/|V| in Eq. 4's "
        "numerator) — so total control traffic per node keeps rising.  "
        "The usable band starts right at the reference's magic number: "
        "degree 6-9 is the first regime that is connected, short-pathed, "
        "and not yet churn-dominated."
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
