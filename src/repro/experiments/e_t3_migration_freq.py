"""EXP-T3 — Eqs. (7)-(9): level-k migration frequency f_k = Theta(1/h_k).

From deep simulation runs, tabulates per level: the measured pure node
migration frequency f_k, the measured intra-cluster hop count h_k, and
the product f_k * h_k — which the paper predicts is level-independent
(Eq. 9), the exact condition that collapses phi_k to O(log|V|).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import fit_shape
from repro.experiments import study
from repro.experiments.common import ExperimentResult
from repro.sim import sweep_points

__all__ = ["run"]


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (400, 800) if quick else (400, 800, 1600, 3200)
    points = sweep_points(study.runs("memoryless", ns, quick, seeds), {
        "fk": lambda r: r.ledger.f_k(), "hk": lambda r: r.mean_h_k(),
    })

    result = ExperimentResult(
        exp_id="EXP-T3",
        title="Migration frequency f_k vs 1/h_k (Eqs. 7-9)",
        columns=["n", "level k", "f_k (events/node/s)", "h_k", "f_k * h_k"],
    )
    products = []
    for p in points:
        for k, fk in p["fk"].items():
            hk = p["hk"].get(k, np.nan)
            prod = fk * hk if np.isfinite(hk) else float("nan")
            result.add_row(p.n, k, round(fk, 4), round(hk, 2),
                           round(prod, 4) if np.isfinite(prod) else "n/a")
            if np.isfinite(prod):
                products.append((p.n, k, fk, hk, prod))

    # Shape check: f_k against 1/h_k within the deepest run.
    deepest_n = ns[-1]
    rows = [(hk, fk) for n, k, fk, hk, _ in products if n == deepest_n]
    if len(rows) >= 3:
        f = fit_shape([h for h, _ in rows], [fk for _, fk in rows], "inv_sqrt")
        result.add_note(
            f"n={deepest_n}: f_k vs h_k fit to a/sqrt(h_k): R^2={f.r2:.3f} "
            "(crude; the sharper check is the flat product below)"
        )
    if products:
        prods = [p for *_, p in products]
        result.add_note(
            f"f_k * h_k across all levels/sizes: mean={np.mean(prods):.4f}, "
            f"max/min={max(prods) / min(prods):.2f} "
            "(Eq. 9 predicts a level-independent constant)"
        )
        # Monotone decay of f_k with k at the largest n.
        fks = [(k, fk) for n, k, fk, _, _ in products if n == deepest_n]
        fks.sort()
        decreasing = all(a[1] >= b[1] * 0.7 for a, b in zip(fks, fks[1:]))
        result.add_note(
            f"f_k monotone decay at n={deepest_n}: "
            f"{[round(v, 4) for _, v in fks]} ({'yes' if decreasing else 'noisy'})"
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
