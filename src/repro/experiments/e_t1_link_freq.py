"""EXP-T1 — Eq. (4): f_0 = Theta(1) in |V|.

Sweeps the node count at fixed density and measures the per-node level-0
link state change frequency.  The paper predicts a flat curve (f_0
depends on mu/R_tx, not on |V|); the shape comparison should prefer
"const" over any growing shape.  A second mini-sweep varies mu to verify
f_0 = Theta(mu / R_tx).
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import compare_shapes, f0_prediction
from repro.experiments.common import ExperimentResult
from repro.sim import Scenario, expand_grid, run_sweep, sweep_points

__all__ = ["run"]


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (100, 200, 400, 800) if quick else (100, 200, 400, 800, 1600, 3200)
    steps = 30 if quick else 80
    base = Scenario(n=100, steps=steps, warmup=10, speed=1.0, hop_mode="euclidean")

    points = sweep_points(run_sweep(expand_grid(base, ns, seeds)),
                          {"f0": lambda r: r.f0})

    result = ExperimentResult(
        exp_id="EXP-T1",
        title="Level-0 link change frequency f_0 vs |V| (Eq. 4: Theta(1))",
        columns=["n", "f_0 (events/node/s)", "std", "f_0 / (mu/R_tx)"],
    )
    norm = f0_prediction(1.0, base.r_tx)
    for p in points:
        result.add_row(p.n, round(p["f0"], 4), round(p.stds["f0"], 4),
                       round(p["f0"] / norm, 3))

    fits = compare_shapes(
        [p.n for p in points], [p["f0"] for p in points],
        shapes=("const", "log", "sqrt", "linear"),
    )
    result.add_note(f"best shape: {fits[0].shape}; ranking: {[f.shape for f in fits]}")
    values = [p["f0"] for p in points]
    spread = max(values) / min(values)
    growing = values[-1] > values[0] * 1.2
    result.add_note(
        f"Eq. (4) check — f_0 = Theta(1) means *no growth* with |V|: "
        f"max/min = {spread:.3f}, trend "
        f"{'GROWS (violation)' if growing else 'flat/declining (consistent with O(1))'}. "
        "The mild decline comes from RWP legs lengthening with the region."
    )

    # Speed dependence: f_0 proportional to mu.
    speeds = (0.5, 1.0, 2.0)
    runs = run_sweep([replace(base, n=200, speed=mu, seed=99,
                              hop_sample_every=10_000) for mu in speeds])
    ratios = [res.f0 / mu for mu, res in zip(speeds, runs)]
    result.add_note(
        "f_0 / mu at n=200 for mu in {0.5, 1, 2}: "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + " (constant => f_0 = Theta(mu/R_tx))"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
