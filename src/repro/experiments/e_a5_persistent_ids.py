"""EXP-A5 (extension) — cluster-identity persistence recovers gamma.

EXP-T5's documented deviation: with clusters named by head ID (the
Fig. 1 convention), head churn renames clusters, rekeys Theta(c_k) LM
entries per event, and drives gamma measurably above log^2 n.  The
diagnosis predicts a *structural* fix: give clusters stable identities
that survive head handover (``election_mode="persistent"``,
:mod:`repro.hierarchy.persistent`).

This experiment runs both identity schemes over the same sweep and
compares gamma's scaling shape.  If the diagnosis is right, the
persistent curve's gamma/log^2 n column is flat while the head-named
curve drifts upward — turning the deviation into a confirmed causal
finding.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import flatness
from repro.experiments import study
from repro.experiments.common import ExperimentResult
from repro.sim import sweep_points

__all__ = ["run"]


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = study.sizes(quick)

    result = ExperimentResult(
        exp_id="EXP-A5",
        title="Extension: head-named vs persistent cluster identities (gamma fix)",
        columns=["n", "mode", "phi", "gamma", "gamma / log^2 n"],
    )
    curves: dict[str, list[float]] = {}
    for mode in ("memoryless", "persistent"):
        curves[mode] = []
        for p in sweep_points(study.runs(mode, ns, quick, seeds), {
            "phi": lambda r: r.phi, "gamma": lambda r: r.gamma,
        }):
            curves[mode].append(p["gamma"])
            result.add_row(p.n, mode, round(p["phi"], 3), round(p["gamma"], 3),
                           round(p["gamma"] / np.log(p.n) ** 2, 4))

    for mode, ys in curves.items():
        cv_log2 = flatness(list(ns), ys, "log2")
        cv_sqrt = flatness(list(ns), ys, "sqrt")
        winner = "log2" if cv_log2 < cv_sqrt else "sqrt"
        result.add_note(
            f"{mode}: gamma flatness CV — log2 {cv_log2:.3f} vs sqrt "
            f"{cv_sqrt:.3f} (flatter: {winner})"
        )
    reduction = [
        m / max(p, 1e-9) for m, p in zip(curves["memoryless"], curves["persistent"])
    ]
    result.add_note(
        "gamma reduction from identity persistence per size: "
        + ", ".join(f"{r:.2f}x" for r in reduction)
    )
    result.add_note(
        "Reading: if the persistent rows' gamma/log^2 n column is flat "
        "where the memoryless rows drift up, the EXP-T5 deviation is "
        "causally explained by cluster *renaming*, not by reorganization "
        "itself — and the paper's gamma bound is recoverable with one "
        "protocol change the paper's model abstracts away."
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
