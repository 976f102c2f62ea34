"""EXP-A1 (ablation) — memoryless vs sticky (LCC) ALCA elections.

DESIGN.md's fidelity notes flag the election dynamics as the main
modeling degree of freedom: the paper specifies the ALCA declaratively
("highest ID in the closed neighborhood"), which re-evaluated per step
gives *memoryless* elections, while deployed protocols add
least-cluster-change hysteresis.  EXPERIMENTS.md deviation 1 traces the
gamma_k level-growth to memoryless churn.  This ablation quantifies the
difference on identical mobility traces.
"""

from __future__ import annotations

from repro.experiments import study
from repro.experiments.common import ExperimentResult
from repro.sim import sweep_points

__all__ = ["run"]


def _event_rate(res, *kinds) -> float:
    """Summed rate of the reorganisation event kinds ``kinds``."""
    rate = res.ledger.reorg_event_breakdown()
    return sum(rate[k]["rate"] for k in kinds if k in rate)


METRICS = {
    "phi": lambda r: r.phi,
    "gamma": lambda r: r.gamma,
    "links": lambda r: _event_rate(r, "i", "ii"),
    "elections": lambda r: _event_rate(r, "iii", "v"),
}


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (200, 400) if quick else (200, 400, 800, 1600)
    modes = ("memoryless", "sticky")
    by_mode = {mode: sweep_points(study.runs(mode, ns, quick, seeds), METRICS)
               for mode in modes}

    result = ExperimentResult(
        exp_id="EXP-A1",
        title="Ablation: memoryless vs sticky (LCC) ALCA elections",
        columns=["n", "mode", "phi", "gamma", "total",
                 "link events i+ii (/node/s)", "elections iii+v (/node/s)"],
    )
    deltas = []
    for i, n in enumerate(ns):
        per_mode = {}
        for mode in modes:
            p = by_mode[mode][i]
            row = (p["phi"], p["gamma"], p["phi"] + p["gamma"], p["links"],
                   p["elections"])
            per_mode[mode] = row
            result.add_row(n, mode, round(row[0], 3), round(row[1], 3),
                           round(row[2], 3), round(row[3], 4), round(row[4], 4))
        deltas.append(
            (n,
             per_mode["memoryless"][2] / max(per_mode["sticky"][2], 1e-9),
             per_mode["memoryless"][3] / max(per_mode["sticky"][3], 1e-9))
        )
    for n, total_ratio, link_ratio in deltas:
        result.add_note(
            f"n={n}: sticky elections cut cluster-link events by "
            f"{(1 - 1 / link_ratio):.0%} and change total handoff by "
            f"{(1 - 1 / total_ratio):+.0%} relative to memoryless"
        )
    result.add_note(
        "Reading: hysteresis removes snapshot noise from head identities "
        "(fewer (i)/(ii) events and less phi), while necessity-driven "
        "reorganization — the component the paper's bound is about — "
        "remains."
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
