"""EXP-T6 — Eqs. (13)-(14): cluster-link structure and change frequency.

Per-level checks feeding the Section 5 bound:

* Eq. (13b): |E_k| / |V| = Theta(1/c_k) — level-k links per *physical*
  node decay inversely with aggregation;
* Eq. (14) via Section 5.3.1: the *drift* component of g'_k (link
  changes between persisting clusterheads — cluster migration) is
  O(1/h_k).  Election-churn link changes (Section 5.3.2's events) are
  tabulated separately; their packet impact is bounded through the
  recursion argument of EXP-F3, not through Eq. (14).

Degenerate top levels (fewer than 4 clusters on average) are excluded
from the constancy checks — the paper's Theta() statements assume
non-trivial cluster populations.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import fit_shape
from repro.experiments import study
from repro.experiments.common import ExperimentResult
from repro.sim import sweep_points

__all__ = ["run"]


def _levels(res) -> dict[int, tuple[float, float]]:
    """(mean |V_k|, mean |E_k|) of each level k >= 1 that had clusters."""
    ls = res.level_series
    return {k: (ls.mean_size(k), ls.mean_edges(k)) for k in ls.levels()
            if k >= 1 and ls.mean_size(k) > 0}


METRICS = {
    "ek": lambda r: {k: e / r.scenario.n for k, (_, e) in _levels(r).items()},
    "ck": lambda r: {k: r.scenario.n / v for k, (v, _) in _levels(r).items()},
    "vk": lambda r: {k: v for k, (v, _) in _levels(r).items()},
    "gp": lambda r: r.g_prime_k(),
    "gpd": lambda r: r.g_prime_k_drift(),
    "hk": lambda r: r.mean_h_k(),
}


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    n = 800 if quick else 3200

    result = ExperimentResult(
        exp_id="EXP-T6",
        title="Cluster links: |E_k|/|V| vs 1/c_k (Eq. 13b), drift g'_k vs 1/h_k (Eq. 14)",
        columns=["level k", "c_k", "|V_k|", "|E_k|/|V|", "(|E_k|/|V|)*c_k",
                 "g'_k drift", "g'_k all", "drift*h_k", "h_k"],
    )
    (p,) = sweep_points(study.runs("memoryless", (n,), quick, seeds), METRICS)

    def r(x, digits=4):
        return round(x, digits) if np.isfinite(x) else "n/a"

    rows = []
    for k, ek in p["ek"].items():
        ck, vk = p["ck"][k], p["vk"][k]
        gp, gpd, hk = (p[key].get(k, np.nan) for key in ("gp", "gpd", "hk"))
        drift_hk = gpd * hk if np.isfinite(gpd) and np.isfinite(hk) else float("nan")
        result.add_row(k, r(ck, 1), r(vk, 1), r(ek), r(ek * ck, 2),
                       r(gpd), r(gp), r(drift_hk, 3), r(hk, 2))
        rows.append((k, ck, vk, ek, gpd, gp, hk))

    solid = [row for row in rows if row[2] >= 4]  # exclude degenerate top
    consts = [ek * ck for _, ck, _, ek, _, _, _ in solid]
    if consts:
        result.add_note(
            f"(|E_k|/|V|) * c_k spread over non-degenerate levels: "
            f"max/min = {max(consts) / min(consts):.2f} "
            "(Eq. 13b predicts a constant ~d_k/2)"
        )
    prods = [gpd * hk for _, _, _, _, gpd, _, hk in solid
             if np.isfinite(gpd) and np.isfinite(hk)]
    if len(prods) >= 2:
        result.add_note(
            f"drift g'_k * h_k spread: max/min = {max(prods) / min(prods):.2f} "
            "(Eq. 14 / Sec 5.3.1 predicts a constant)"
        )
    pts = [(hk, gpd) for _, _, _, _, gpd, _, hk in solid
           if np.isfinite(gpd) and np.isfinite(hk)]
    if len(pts) >= 3:
        f = fit_shape([h for h, _ in pts], [g for _, g in pts], "inv_sqrt")
        result.add_note(f"drift g'_k vs h_k inverse fit R^2 = {f.r2:.3f}")
    churn = [(gp - gpd) / gp for _, _, _, _, gpd, gp, _ in solid
             if np.isfinite(gp) and np.isfinite(gpd) and gp > 0]
    if churn:
        result.add_note(
            "election-churn share of link events per level: "
            + ", ".join(f"{c:.0%}" for c in churn)
            + " (bounded via the Sec 5.3.2 recursion, not Eq. 14)"
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
