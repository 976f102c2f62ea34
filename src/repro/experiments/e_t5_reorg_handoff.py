"""EXP-T5 — Section 5: gamma = O(log^2 |V|) and the (i)-(vii) taxonomy.

Meters reorganization-handoff packets per node per second across |V|,
fits the scaling shape, and breaks raw reorganization events down by the
paper's seven trigger kinds per level — the empirical counterpart of
Section 5.2's enumeration.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import (
    compare_shapes,
    fit_power,
    levels_for,
    shape_by_flatness,
)
from repro.core import EventKind
from repro.experiments import study
from repro.experiments.common import ExperimentResult
from repro.sim import sweep_points

__all__ = ["run"]


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    runs = study.runs("memoryless", study.sizes(quick), quick, seeds)
    points = sweep_points(runs, {"gamma": lambda r: r.gamma})
    xs = [p.n for p in points]
    ys = [p["gamma"] for p in points]

    result = ExperimentResult(
        exp_id="EXP-T5",
        title="Reorganization handoff gamma vs |V| (Section 5: O(log^2 |V|))",
        columns=["n", "L", "gamma (pkts/node/s)", "std", "gamma / log^2 n"],
    )
    for p in points:
        result.add_row(
            p.n, levels_for(p.n), round(p["gamma"], 4),
            round(p.stds["gamma"], 4), round(p["gamma"] / np.log(p.n) ** 2, 5),
        )

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
    big = xs[-1]
    res = next(r for r in runs if r.scenario.n == big)
    rate = {k: e["rate"] for k, e in res.ledger.reorg_event_breakdown().items()}
    order = [k.value for k in EventKind if k is not EventKind.MIGRATION]
    result.add_note(
        f"event rates at n={big} by kind (events/node/s): "
        + ", ".join(f"({k}) {rate.get(k, 0.0):.4f}" for k in order)
    )
    gk = res.ledger.gamma_k()
    result.add_note(
        f"gamma_k at n={big}: "
        + ", ".join(f"k={k}: {v:.3f}" for k, v in gk.items())
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
