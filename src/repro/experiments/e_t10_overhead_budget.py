"""EXP-T10 — Section 6: the LM overhead budget.

The conclusion argues the total control budget decomposes into

* handoff: Theta(log^2 |V|) per node per second (this paper),
* registration: Theta(log |V|) ([17]),
* queries: order of the requester-target hop count, once per session —
  "absorbed in the associated session".

This experiment meters all three from the scaling study's runs
(:mod:`repro.experiments.study`) and reports their shares, plus the
measured query cost relative to the session path length it precedes.
The query-cost probe replays the final topology from
``SimResult.final_positions`` without re-simulating.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import fit_power
from repro.core import full_assignment, resolve_batch
from repro.experiments import study
from repro.experiments.common import ExperimentResult
from repro.sim import static_snapshot, sweep_points
from repro.sim.hops import EuclideanHops

__all__ = ["run"]


def _query_probe(res) -> tuple[list[float], list[float]]:
    """Query cost on a run's final snapshot: (packet counts, ratios)."""
    sc = res.scenario
    pts = res.final_positions
    hier = static_snapshot(sc, pts).hierarchy
    assignment = full_assignment(hier)
    hop = EuclideanHops(pts, sc.r_tx)
    pairs = np.random.default_rng(sc.seed + 1000).integers(0, sc.n, size=(30, 2))
    src, dst = pairs[pairs[:, 0] != pairs[:, 1]].T
    out = resolve_batch(hier, assignment, src, dst, hop)
    hit = out.hits
    q_costs = out.packets[hit].tolist()
    sessions = np.maximum(hop.batch(src[hit], dst[hit]), 1).tolist()
    q_ratios = [p / s for p, s in zip(q_costs, sessions)]
    return q_costs, q_ratios


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (200, 400, 800) if quick else (200, 400, 800, 1600, 3200)
    runs = study.runs("memoryless", ns, quick, seeds)

    result = ExperimentResult(
        exp_id="EXP-T10",
        title="LM overhead budget: handoff vs registration vs query",
        columns=["n", "handoff (pkts/node/s)", "registration", "handoff/reg",
                 "query pkts (mean)", "query/session-path"],
    )
    points = sweep_points(runs, {
        "handoff": lambda r: r.handoff_rate,
        "reg": lambda r: r.ledger.registration_rate,
    })
    handoffs = [p["handoff"] for p in points]
    regs = [p["reg"] for p in points]
    for p in points:
        # Query cost is a mean over every query of every run at this n.
        probes = [_query_probe(r) for r in runs if r.scenario.n == p.n]
        q_costs = [c for costs, _ in probes for c in costs]
        q_ratios = [q for _, ratios in probes for q in ratios]
        result.add_row(
            p.n, round(p["handoff"], 3), round(p["reg"], 3),
            round(p["handoff"] / max(p["reg"], 1e-9), 2),
            round(float(np.mean(q_costs)), 2) if q_costs else "n/a",
            round(float(np.mean(q_ratios)), 2) if q_ratios else "n/a",
        )

    ratios = [h / max(r, 1e-9) for h, r in zip(handoffs, regs)]
    result.add_note(
        f"handoff dominates registration at every size "
        f"(ratio {min(ratios):.1f}x-{max(ratios):.1f}x), as the log^2-vs-log "
        "budget of Section 6 predicts."
    )
    if len(ns) >= 4:
        ph, _ = fit_power(list(ns), handoffs)
        pr, _ = fit_power(list(ns), [max(r, 1e-9) for r in regs])
        result.add_note(
            f"growth exponents (wide grid): handoff {ph:.3f} vs "
            f"registration {pr:.3f}"
        )
    result.add_note(
        "query/session-path column: a small constant means query overhead "
        "is absorbed into the session it precedes (Section 6)."
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
