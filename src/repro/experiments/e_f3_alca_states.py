"""EXP-F3 — Fig. 3 + Eq. (22): ALCA state dynamics and q_1.

Runs the mobile simulator and, per hierarchy level j, measures the ALCA
state machine of Fig. 3: occupancy of each state (number of electors),
the fraction of state transitions that are adjacent (the continuous-time
model's unit-transition property), and p_j — the probability a level-j
node sits in the *critical* state 1.

From the measured p_j vector it evaluates the paper's recursive-
rejection chain (Eqs. 15-21) and the q_1 > epsilon condition of
Eq. (22), which the paper explicitly left to "future work" simulation —
this experiment is that future work.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import levels_for
from repro.clustering import recursion_quantities
from repro.experiments.common import ExperimentResult
from repro.sim import Scenario, expand_grid, run_sweep

__all__ = ["run"]


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (150, 300) if quick else (150, 300, 600, 1200)
    steps = 40 if quick else 120
    dt = 0.5  # fine-grained: approaches Fig. 3's adjacent-transition regime

    result = ExperimentResult(
        exp_id="EXP-F3",
        title="ALCA state machine (Fig. 3) and q_1 quantification (Eq. 22)",
        columns=["n", "level j", "p_j (state 1)", "adjacent frac",
                 "critical crossings", "occupancy[0..3]"],
    )
    q1_values = []
    event_totals: dict[str, int] = {}
    base = Scenario(steps=steps, warmup=10, dt=dt, speed=1.0,
                    hop_mode="euclidean", hop_sample_every=10_000)
    grid = expand_grid(
        base, ns, seeds,
        scenario_for=lambda sc, n: replace(sc, max_levels=levels_for(n)),
    )
    for res in run_sweep(grid):
        n, seed = res.scenario.n, res.scenario.seed
        for kind, entry in res.ledger.reorg_event_breakdown().items():
            event_totals[kind] = event_totals.get(kind, 0) + int(entry["count"])
        p_vec = res.p_levels()
        for j, stats in sorted(res.state_stats.items()):
            occ = [round(stats.occupancy.get(s, 0.0), 3) for s in range(4)]
            result.add_row(
                n, j, round(stats.p_state1, 4),
                round(stats.adjacent_fraction, 3),
                stats.critical_crossings, str(occ),
            )
        k = len(p_vec)
        if k >= 2:
            rq = recursion_quantities(p_vec, k)
            q1_values.append((n, seed, float(rq.q[0]), rq.q1_over_Q_lower_bound))

    for n, seed, q1, bound in q1_values:
        result.add_note(
            f"n={n} seed={seed}: q_1 = {q1:.4f}, q_1/Q lower bound = {bound:.4f}"
        )
    if q1_values:
        min_q1 = min(q for _, _, q, _ in q1_values)
        result.add_note(
            f"Eq. (22) check: min q_1 across runs = {min_q1:.4f} "
            f"({'> 0: bounded away from zero' if min_q1 > 0 else 'VIOLATED'})"
        )
    result.add_note(
        "Fig. 3 check: transitions concentrate on |delta| <= 1 as dt shrinks "
        "(adjacent fraction column)."
    )
    if event_totals:
        top = max(event_totals, key=event_totals.get)
        counts = ", ".join(f"({k}) {v}" for k, v in event_totals.items())
        result.add_note(
            f"Section 5 taxonomy: reorg events {counts} — "
            f"type ({top}) dominates gamma across these runs."
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
