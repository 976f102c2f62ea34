"""EXP-T5 — Section 5: gamma = O(log^2 |V|) and the (i)-(vii) taxonomy.

Meters reorganization-handoff packets per node per second across |V|,
fits the scaling shape, and breaks raw reorganization events down by the
paper's seven trigger kinds per level — the empirical counterpart of
Section 5.2's enumeration.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis import (
    compare_shapes,
    fit_power,
    levels_for,
    shape_by_flatness,
)
from repro.core import EventKind
from repro.experiments.common import ExperimentResult
from repro.sim import Scenario, expand_grid, run_sweep, sweep_points

__all__ = ["run"]


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (100, 200, 400, 800, 1600) if quick else (100, 200, 400, 800, 1600, 3200, 6400)
    steps = 40 if quick else 100
    base = Scenario(n=100, steps=steps, warmup=10, speed=1.0, hop_mode="euclidean")

    grid = expand_grid(
        base, ns, seeds,
        scenario_for=lambda sc, n: replace(sc, max_levels=levels_for(n)),
    )
    points = sweep_points(
        run_sweep(grid),
        {"gamma": lambda r: r.gamma},
        keep_results=True,
    )

    result = ExperimentResult(
        exp_id="EXP-T5",
        title="Reorganization handoff gamma vs |V| (Section 5: O(log^2 |V|))",
        columns=["n", "L", "gamma (pkts/node/s)", "std", "gamma / log^2 n"],
    )
    for p in points:
        result.add_row(
            p.n, levels_for(p.n), round(p["gamma"], 4), round(p.stds["gamma"], 4),
            round(p["gamma"] / np.log(p.n) ** 2, 5),
        )

    xs = [p.n for p in points]
    ys = [p["gamma"] for p in points]
    fits = compare_shapes(xs, ys, shapes=("log2", "sqrt", "log", "linear"))
    result.add_note(
        f"AIC best shape: {fits[0].shape}; ranking: {[f.shape for f in fits]}"
    )
    flat = shape_by_flatness(xs, ys)
    result.add_note(
        "flatness ranking (CV of gamma/g(n); robust to the integer-L "
        f"staircase): {[(s, round(v, 3)) for s, v in flat]} "
        "(paper predicts log2 flattest)"
    )
    p_exp, _ = fit_power(xs, ys)
    result.add_note(f"power-law exponent: {p_exp:.3f} (sqrt would be ~0.5)")

    # Event taxonomy at the largest size.
    big = points[-1]
    if big.results:
        res = big.results[0]
        rates = res.ledger.reorg_event_rates()
        by_kind: dict[str, float] = {}
        for (kind, level), rate in rates.items():
            by_kind[kind.value] = by_kind.get(kind.value, 0.0) + rate
        order = [k.value for k in EventKind if k is not EventKind.MIGRATION]
        result.add_note(
            f"event rates at n={big.n} by kind (events/node/s): "
            + ", ".join(f"({k}) {by_kind.get(k, 0.0):.4f}" for k in order)
        )
        gk = res.ledger.gamma_k()
        result.add_note(
            f"gamma_k at n={big.n}: "
            + ", ".join(f"k={k}: {v:.3f}" for k, v in gk.items())
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
