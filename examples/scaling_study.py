#!/usr/bin/env python
"""Scaling study: reproduce the paper's headline Theta(log^2 |V|) bound.

Sweeps the node count at fixed density with L = Theta(log n) hierarchy
levels, meters migration (phi) and reorganization (gamma) handoff rates,
and fits the total against the competing growth shapes.  This is the
executable version of the paper's conclusion: "the capacity of MANET
links need only grow at a polylogarithmic rate".

Runs on the cached sweep runner (:mod:`repro.sim.sweep`): pass
``--parallel`` to fan the grid over all cores and ``--cache`` to
memoize finished simulations on disk, so re-running the study (or
widening the grid) only simulates what is new.

Run:  python examples/scaling_study.py [--full] [--parallel] [--cache]
"""

import os
import sys
from dataclasses import replace

import numpy as np

from repro.analysis import (
    compare_shapes,
    fit_power,
    levels_for,
    shape_by_flatness,
)
from repro.sim import (
    Scenario,
    default_cache_dir,
    expand_grid,
    print_progress,
    run_sweep,
    sweep_points,
)

METRICS = {
    "phi": lambda r: r.phi,
    "gamma": lambda r: r.gamma,
    "total": lambda r: r.handoff_rate,
}


def main():
    full = "--full" in sys.argv
    use_parallel = "--parallel" in sys.argv
    use_cache = "--cache" in sys.argv
    ns = (100, 200, 400, 800, 1600, 3200) if full else (100, 200, 400, 800)
    seeds = (0, 1, 2) if full else (0, 1)
    steps = 80 if full else 40

    base = Scenario(n=100, steps=steps, warmup=10, speed=1.0,
                    hop_mode="euclidean")
    workers = (os.cpu_count() or 1) if use_parallel else 0
    print(f"sweeping n in {ns} with {len(seeds)} seeds, {steps} steps each"
          f" ({'parallel' if use_parallel else 'serial'}"
          f"{', cached' if use_cache else ''})...")
    grid = expand_grid(
        base, ns, seeds,
        scenario_for=lambda sc, n: replace(sc, max_levels=levels_for(n)),
    )
    results = run_sweep(
        grid,
        workers=workers,
        cache_dir=default_cache_dir() if use_cache else None,
        progress=print_progress,
    )
    points = sweep_points(results, METRICS)

    print(f"\n{'n':>6} {'L':>3} {'phi':>8} {'gamma':>8} {'total':>8} "
          f"{'total/log^2n':>13} {'total/sqrt(n)':>14}")
    for p in points:
        n = p.n
        print(f"{n:>6} {levels_for(n):>3} {p['phi']:>8.3f} {p['gamma']:>8.3f} "
              f"{p['total']:>8.3f} {p['total'] / np.log(n) ** 2:>13.4f} "
              f"{p['total'] / np.sqrt(n):>14.4f}")

    xs = [p.n for p in points]
    ys = [p["total"] for p in points]
    print("\nshape comparison (AIC, best first):",
          [f.shape for f in compare_shapes(xs, ys)])
    print("flatness ranking (CV of total/g(n)):",
          [(s, round(v, 3)) for s, v in shape_by_flatness(xs, ys)])
    p_exp, _ = fit_power(xs, ys)
    print(f"power-law exponent: {p_exp:.3f} "
          "(log^2-like curves sit well below sqrt's 0.5)")
    print("\nReading: if the total/log^2n column is ~flat while "
          "total/sqrt(n) declines, the paper's polylog bound holds.")


if __name__ == "__main__":
    main()
