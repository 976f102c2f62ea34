"""EXP-A2 (ablation) — radio-model vs contraction cluster graphs.

The paper's Section 5.3.1 argues level-k links live Theta(h_k / mu)
because breaking one requires clusterheads to drift Theta(sqrt(c_k))
apart — implicitly a *geometric* link model.  Deriving level-k links by
edge contraction instead (two clusters linked iff any boundary link
crosses) makes adjacency hinge on single level-0 links, which flip at
Theta(1) rate regardless of level.  This ablation measures both
constructions on identical traces and shows the contraction mode breaks
the Theta(1/h_k) decay that the gamma bound needs — the justification
for the repository's radio-mode default (DESIGN.md fidelity note 2).
"""

from __future__ import annotations

import numpy as np

from repro.experiments import study
from repro.experiments.common import ExperimentResult
from repro.sim import sweep_points

__all__ = ["run"]


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    n = 800 if quick else 1600

    result = ExperimentResult(
        exp_id="EXP-A2",
        title="Ablation: radio-model vs contraction level-k links",
        columns=["mode", "level k", "g'_k drift (1/link/s)", "h_k",
                 "drift * h_k", "gamma"],
    )
    summaries = {}
    metrics = {
        "gamma": lambda r: r.gamma,
        "gpd": lambda r: r.g_prime_k_drift(),
        "hk": lambda r: r.mean_h_k(),
    }
    for mode, arm in (("radio", "memoryless"), ("contraction", "contraction")):
        (p,) = sweep_points(study.runs(arm, (n,), quick, seeds), metrics)
        prods = []
        for k, gpd in p["gpd"].items():
            hk = p["hk"].get(k, np.nan)
            prod = gpd * hk if np.isfinite(hk) else float("nan")
            if np.isfinite(prod) and gpd > 0:
                prods.append(prod)
            result.add_row(
                mode, k, round(gpd, 4),
                round(hk, 2) if np.isfinite(hk) else "n/a",
                round(prod, 3) if np.isfinite(prod) else "n/a",
                round(p["gamma"], 3),
            )
        if len(prods) >= 2:
            summaries[mode] = max(prods) / min(prods)

    for mode, spread in summaries.items():
        result.add_note(
            f"{mode}: drift g'_k * h_k spread = {spread:.2f} "
            "(1.0 would be the exact Eq. 14 constancy)"
        )
    result.add_note(
        "Reading: the radio model keeps g'_k ~ 1/h_k (small spread); "
        "contraction-mode adjacency flickers at high levels, inflating "
        "the spread and gamma — dropping the paper's geometric link "
        "assumption measurably breaks the bound's premise."
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
