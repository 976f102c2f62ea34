"""EXP-A10 (extension) — handoff overhead over a lossy control plane.

The paper's Theta(log^2 |V|) handoff bound (and every experiment up to
EXP-A9) assumes lossless control-packet delivery.  This extension drops
that assumption: every LM transfer, registration, and query probe
traverses a seeded Bernoulli per-hop channel with bounded
retransmission (exponential backoff + jitter, per-message timeout; see
``repro.faults`` and docs/ROBUSTNESS.md).  The sweep crosses loss rate
with network size and asks four questions:

1. **Retransmission inflation** — how much does the channel inflate
   phi + gamma, and does the total keep its log^2-shape in n?
2. **Abandonment** — how often does a transfer exhaust its retry budget,
   leaving a stale location server?
3. **Staleness recovery** — how long until the normal handoff machinery
   re-lands an abandoned entry?
4. **Query degradation** — what fraction of location queries still
   resolve (directly, or via the metered expanding-ring fallback)?

Per-hop loss compounds over route length, so high-level transfers
(long server-to-server routes) fail disproportionately — exactly the
regime where the paper's per-level accounting concentrates its cost.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis import levels_for
from repro.experiments.common import ExperimentResult
from repro.sim import Scenario, expand_grid, run_sweep, sweep_points

__all__ = ["run"]

METRICS = {
    "phi": lambda r: r.phi,
    "gamma": lambda r: r.gamma,
    "retx": lambda r: r.ledger.retransmission_rate,
    "abandon": lambda r: r.ledger.abandonment_rate,
    "recovery": lambda r: r.ledger.mean_recovery_time,
    "query_ok": lambda r: r.query_success_rate,
    "degraded": lambda r: r.queries.degraded_fraction,
}


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (150, 300) if quick else (200, 400, 800)
    rates = (0.0, 0.02, 0.05, 0.1) if quick else (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
    steps = 30 if quick else 80

    result = ExperimentResult(
        exp_id="EXP-A10",
        title="Extension: LM overhead over a lossy control plane "
              "(loss rate x n, bounded retries)",
        columns=["loss/hop", "n", "phi", "gamma", "total", "total/log^2 n",
                 "retx rate", "abandon rate", "recovery (s)", "query ok",
                 "degraded"],
    )
    base = Scenario(steps=steps, warmup=10, speed=1.0, hop_mode="euclidean",
                    retry_attempts=4, queries_per_step=5,
                    hop_sample_every=10_000)
    grid = [
        sc for rate in rates for sc in expand_grid(
            replace(base, loss_rate=rate), ns, seeds,
            scenario_for=lambda sc, n: replace(sc, max_levels=levels_for(n)),
        )
    ]
    # {loss: {n: mean total}} for the shape notes.
    totals: dict[float, dict[int, float]] = {}
    for p in sweep_points(run_sweep(grid), METRICS):
        rate, n = p.scenario.loss_rate, p.n
        total = p["phi"] + p["gamma"]
        totals.setdefault(rate, {})[n] = total
        result.add_row(
            rate, n, round(p["phi"], 3), round(p["gamma"], 3), round(total, 3),
            round(total / np.log(n) ** 2, 5), round(p["retx"], 4),
            round(p["abandon"], 4), round(p["recovery"], 2),
            f"{p['query_ok']:.3f}", f"{p['degraded']:.3f}",
        )

    _add_shape_notes(result, totals, ns)
    return result


def _add_shape_notes(result: ExperimentResult, totals, ns) -> None:
    """Summarize how the channel bends the total-overhead curve."""
    control = totals.get(0.0, {})
    worst = max(totals)
    if control and worst > 0.0:
        inflations = [
            totals[worst][n] / max(control[n], 1e-12) for n in ns if n in control
        ]
        result.add_note(
            f"Retransmission inflation at loss={worst}: total overhead is "
            f"{min(inflations):.2f}x-{max(inflations):.2f}x the lossless "
            "control, roughly uniform in n — the channel multiplies the "
            "constant, not the growth rate."
        )
    if len(ns) >= 3:
        from repro.analysis import compare_shapes

        for rate in sorted(totals):
            fits = compare_shapes(
                list(ns), [totals[rate][n] for n in ns],
                shapes=("log2", "sqrt", "log", "linear"),
            )
            result.add_note(
                f"loss={rate}: AIC-best shape for total(n) is "
                f"{fits[0].shape} (ranking {[f.shape for f in fits]})."
            )
    else:
        result.add_note(
            "Shape check needs >= 3 sizes; run with quick=False for the "
            "AIC comparison across n."
        )
    result.add_note(
        "Graceful degradation: failed queries fall back to an "
        "expanding-ring flood (metered, not free), so 'query ok' counts "
        "resolution through *either* path; abandonment leaves stale "
        "servers that the next steps' handoffs repair (recovery column)."
    )


if __name__ == "__main__":  # pragma: no cover
    run().print()
