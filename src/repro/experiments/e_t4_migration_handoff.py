"""EXP-T4 — Section 4: phi = O(log^2 |V|).

The headline migration-handoff bound.  Sweeps |V| with L = Theta(log n)
levels, meters phi (migration-handoff packets per node per second) and
its per-level decomposition phi_k, and runs the shape comparison: the
paper's claim holds if the log^2 fit beats sqrt/linear and phi_k stays
O(log n) per level.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import (
    compare_shapes,
    fit_power,
    fit_shape,
    levels_for,
    shape_by_flatness,
)
from repro.experiments import study
from repro.experiments.common import ExperimentResult
from repro.sim import sweep_points

__all__ = ["run"]


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    runs = study.runs("memoryless", study.sizes(quick), quick, seeds)
    points = sweep_points(runs, {"phi": lambda r: r.phi})
    xs = [p.n for p in points]
    ys = [p["phi"] for p in points]

    result = ExperimentResult(
        exp_id="EXP-T4",
        title="Migration handoff phi vs |V| (Section 4: O(log^2 |V|))",
        columns=["n", "L", "phi (pkts/node/s)", "std", "phi / log^2 n"],
    )
    for p in points:
        result.add_row(
            p.n, levels_for(p.n), round(p["phi"], 4), round(p.stds["phi"], 4),
            round(p["phi"] / np.log(p.n) ** 2, 5),
        )

    fits = compare_shapes(xs, ys, shapes=("log2", "sqrt", "log", "linear"))
    result.add_note(
        f"AIC best shape: {fits[0].shape}; ranking: {[f.shape for f in fits]}"
    )
    flat = shape_by_flatness(xs, ys)
    result.add_note(
        "flatness ranking (CV of phi/g(n); robust to the integer-L "
        f"staircase): {[(s, round(v, 3)) for s, v in flat]} "
        "(paper predicts log2 flattest)"
    )
    p_exp, _ = fit_power(xs, ys)
    result.add_note(
        f"power-law exponent: {p_exp:.3f} (polylog drifts toward 0; "
        "sqrt growth would give ~0.5, linear ~1)"
    )
    # The bound's two factors, checked separately: phi_k = O(log n) per
    # level, and L = Theta(log n) levels.
    per_level: dict[int, list[tuple[int, float]]] = {}
    for res in runs:
        for k, v in res.ledger.phi_k().items():
            per_level.setdefault(k, []).append((res.scenario.n, v))
    for k in sorted(per_level):
        pts_k = per_level[k]
        if len({n for n, _ in pts_k}) >= 3:
            xs_k = [n for n, _ in pts_k]
            ys_k = [v for _, v in pts_k]
            f_log = fit_shape(xs_k, ys_k, "log")
            f_sqrt = fit_shape(xs_k, ys_k, "sqrt")
            winner = "log" if f_log.sse <= f_sqrt.sse else "sqrt"
            result.add_note(
                f"phi_k at level {k} across n: log-fit R^2={f_log.r2:.2f}, "
                f"better shape: {winner} (paper: O(log n) per level)"
            )
    big = xs[-1]
    phi_k = next(r for r in runs if r.scenario.n == big).ledger.phi_k()
    result.add_note(
        f"phi_k at n={big}: "
        + ", ".join(f"k={k}: {v:.3f}" for k, v in phi_k.items())
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
