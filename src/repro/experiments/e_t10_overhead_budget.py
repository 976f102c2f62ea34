"""EXP-T10 — Section 6: the LM overhead budget.

The conclusion argues the total control budget decomposes into

* handoff: Theta(log^2 |V|) per node per second (this paper),
* registration: Theta(log |V|) ([17]),
* queries: order of the requester-target hop count, once per session —
  "absorbed in the associated session".

This experiment meters all three from one simulation per size and
reports their shares, plus the measured query cost relative to the
session path length it precedes.  The simulations run through the
sweep runner (:mod:`repro.sim.sweep`), so they parallelize across
workers and memoize in the result cache; the query-cost probe replays
the final topology from ``SimResult.final_positions`` without
re-simulating.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis import fit_power, levels_for
from repro.core import full_assignment, resolve_batch
from repro.experiments.common import ExperimentResult
from repro.hierarchy import build_hierarchy
from repro.radio import unit_disk_edges
from repro.sim import Scenario, expand_grid, run_sweep
from repro.sim.hops import EuclideanHops

__all__ = ["run"]


def _query_probe(res) -> tuple[list[float], list[float]]:
    """Query cost on a run's final snapshot: (packet counts, ratios)."""
    sc = res.scenario
    pts = res.final_positions
    edges = unit_disk_edges(pts, sc.r_tx)
    hier = build_hierarchy(
        np.arange(sc.n), edges, max_levels=levels_for(sc.n),
        level_mode="radio", positions=pts, r0=sc.r_tx,
    )
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


def run(quick: bool = True, seeds=(0, 1), workers: int | None = None,
        cache_dir=None) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (200, 400, 800) if quick else (200, 400, 800, 1600, 3200)
    steps = 40 if quick else 100

    base = Scenario(n=200, steps=steps, warmup=10, speed=1.0,
                    hop_mode="euclidean")
    scenarios = expand_grid(
        base, ns, seeds,
        scenario_for=lambda sc, n: replace(sc, max_levels=levels_for(n)),
    )
    results = run_sweep(scenarios, hop_sample_every=10_000,
                        workers=workers, cache_dir=cache_dir)

    result = ExperimentResult(
        exp_id="EXP-T10",
        title="LM overhead budget: handoff vs registration vs query",
        columns=["n", "handoff (pkts/node/s)", "registration", "handoff/reg",
                 "query pkts (mean)", "query/session-path"],
    )
    handoffs, regs = [], []
    per_n = len(list(seeds))
    for i, n in enumerate(ns):
        chunk = results[i * per_n : (i + 1) * per_n]
        h_rates = [res.handoff_rate for res in chunk]
        r_rates = [res.ledger.registration_rate for res in chunk]
        q_costs, q_ratios = [], []
        for res in chunk:
            costs, ratios = _query_probe(res)
            q_costs.extend(costs)
            q_ratios.extend(ratios)
        handoff = float(np.mean(h_rates))
        reg = float(np.mean(r_rates))
        handoffs.append(handoff)
        regs.append(reg)
        result.add_row(
            n, round(handoff, 3), round(reg, 3),
            round(handoff / max(reg, 1e-9), 2),
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
