"""EXP-T8 — GLS (Sec. 3.1) vs CHLM (Sec. 3.2) under identical mobility.

Runs both location services over the *same* random-waypoint trace on a
square region (GLS needs the grid; CHLM clusters the same deployment)
and compares per-node packet rates: handoff (server reassignment) plus
maintenance (GLS distance-triggered updates vs CHLM registration).  Both
schemes charge transfers with the same Euclidean hop estimator, so the
comparison isolates protocol structure.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import levels_for
from repro.core import HandoffEngine
from repro.core.handoff import REG_PACKETS
from repro.experiments.common import ExperimentResult, SeedRecord
from repro.geometry import square_for_density
from repro.gls import GridHierarchy, GridLocationService
from repro.mobility import RandomWaypoint
from repro.sim import Scenario, static_snapshot, sweep_points
from repro.sim.hops import EuclideanHops

__all__ = ["run"]


def _one_run(sc: Scenario) -> dict[str, float]:
    n, r_tx = sc.n, sc.r_tx
    region = square_for_density(n, sc.density)
    rng = np.random.default_rng(sc.seed)
    model = RandomWaypoint(n, region, sc.speed, rng)
    for _ in range(sc.warmup):
        model.step(sc.dt)

    grid = GridHierarchy.for_region(region, l=2.0 * r_tx)
    gls = GridLocationService(grid=grid, node_ids=np.arange(n))
    chlm = HandoffEngine()

    # Baselines.
    pts = model.positions.copy()
    hop = EuclideanHops(pts, r_tx)
    gls.observe(pts, hop)
    chlm.observe(static_snapshot(sc, pts).hierarchy, hop)

    totals = {"gls_handoff": 0, "gls_update": 0, "chlm_handoff": 0, "chlm_reg": 0}
    for _ in range(sc.steps):
        model.step(sc.dt)
        pts = model.positions.copy()
        hop = EuclideanHops(pts, r_tx)
        g = gls.observe(pts, hop)
        c = chlm.observe(static_snapshot(sc, pts).hierarchy, hop)
        totals["gls_handoff"] += g.handoff_packets
        totals["gls_update"] += g.update_packets
        totals["chlm_handoff"] += c.total_handoff_packets
        totals["chlm_reg"] += int(c.counts[REG_PACKETS].sum())
    norm = n * sc.duration
    return {k: v / norm for k, v in totals.items()}


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (150, 300, 600) if quick else (150, 300, 600, 1200, 2400)
    steps = 30 if quick else 80
    scenarios = [Scenario(n=n, speed=1.0, steps=steps, warmup=10,
                          max_levels=levels_for(n), seed=seed)
                 for n in ns for seed in seeds]
    records = [SeedRecord(sc, _one_run(sc)) for sc in scenarios]
    points = sweep_points(records, {"rates": lambda r: r.values})

    result = ExperimentResult(
        exp_id="EXP-T8",
        title="GLS vs CHLM packet overhead under identical RWP mobility",
        columns=["n", "CHLM handoff", "CHLM reg", "CHLM total",
                 "GLS handoff", "GLS update", "GLS total", "GLS/CHLM"],
    )
    for p in points:
        m = p["rates"]
        chlm_total = m["chlm_handoff"] + m["chlm_reg"]
        gls_total = m["gls_handoff"] + m["gls_update"]
        result.add_row(
            p.n, round(m["chlm_handoff"], 3), round(m["chlm_reg"], 3),
            round(chlm_total, 3), round(m["gls_handoff"], 3),
            round(m["gls_update"], 3), round(gls_total, 3),
            round(gls_total / max(chlm_total, 1e-9), 2),
        )
    result.add_note(
        "Both schemes are polylog-style LM services; CHLM additionally "
        "rides the routing hierarchy (no separate grid state).  The paper "
        "claims comparability, not dominance — the ratio column should be "
        "a modest constant across n."
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
