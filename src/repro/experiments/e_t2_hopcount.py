"""EXP-T2 — Eq. (3) and [2]: hop-count scaling.

Two claims:

* network-wide h = Theta(sqrt(|V|)) (Kleinrock-Silvester, Section 1.2),
* per-level h_k = Theta(sqrt(c_k)) (Eq. 3).

The first is a sweep over |V| with a shape comparison; the second reads
one deep hierarchy and regresses h_k against sqrt(c_k).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import compare_shapes, fit_shape, levels_for
from repro.experiments.common import ExperimentResult
from repro.sim import (
    Scenario, expand_grid, run_scenario, run_sweep, sweep_points,
)

__all__ = ["run"]


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (100, 200, 400, 800) if quick else (100, 200, 400, 800, 1600)
    steps = 12 if quick else 30
    base = Scenario(n=100, steps=steps, warmup=5, speed=1.0,
                    hop_mode="euclidean", hop_sample_every=4)

    points = sweep_points(run_sweep(expand_grid(base, ns, seeds)),
                          {"h": lambda r: r.mean_h()})

    result = ExperimentResult(
        exp_id="EXP-T2",
        title="Hop count scaling: h vs sqrt(|V|), h_k vs sqrt(c_k)",
        columns=["n", "h (hops)", "h / sqrt(n)"],
    )
    for p in points:
        result.add_row(p.n, round(p["h"], 3), round(p["h"] / np.sqrt(p.n), 4))

    fits = compare_shapes(
        [p.n for p in points], [p["h"] for p in points],
        shapes=("sqrt", "log", "linear", "log2"),
    )
    result.add_note(f"network h best shape: {fits[0].shape} (expected: sqrt); "
                    f"ranking: {[f.shape for f in fits]}")

    # Per-level h_k vs sqrt(c_k) from one deeper run.
    n_big = 800 if quick else 1600
    res = run_scenario(
        Scenario(n=n_big, steps=8, warmup=5, speed=1.0, hop_mode="euclidean",
                 max_levels=levels_for(n_big), seed=11, hop_sample_every=2),
    )
    hks = res.mean_h_k()
    cks = {
        k: n_big / res.level_series.mean_size(k)
        for k in res.level_series.levels()
        if k >= 1 and res.level_series.mean_size(k) > 0
    }
    pairs = [(k, cks[k], hks[k]) for k in sorted(hks) if k in cks and hks[k] > 0]
    for k, c, hk in pairs:
        result.add_note(
            f"n={n_big}: level {k}: c_k={c:.1f}, h_k={hk:.2f}, "
            f"h_k/sqrt(c_k)={hk / np.sqrt(c):.3f}"
        )
    if len(pairs) >= 3:
        f = fit_shape([c for _, c, _ in pairs], [h for _, _, h in pairs], "sqrt")
        result.add_note(
            f"h_k vs sqrt(c_k) fit: a={f.a:.3f}, b={f.b:.3f}, R^2={f.r2:.3f} "
            "(Eq. 3 predicts a clean sqrt law)"
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
