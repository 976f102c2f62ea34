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
from repro.experiments.common import ExperimentResult
from repro.geometry import square_for_density
from repro.gls import GridHierarchy, GridLocationService
from repro.hierarchy import build_hierarchy
from repro.mobility import RandomWaypoint
from repro.radio import radius_for_degree, unit_disk_edges
from repro.sim.hops import EuclideanHops

__all__ = ["run"]


def _one_run(n: int, steps: int, warmup: int, seed: int) -> dict[str, float]:
    density = 0.02
    degree = 9.0
    speed = 1.0
    dt = 1.0
    region = square_for_density(n, density)
    r_tx = radius_for_degree(degree, density)
    rng = np.random.default_rng(seed)
    model = RandomWaypoint(n, region, speed, rng)
    for _ in range(warmup):
        model.step(dt)

    grid = GridHierarchy.for_region(region, l=2.0 * r_tx)
    gls = GridLocationService(grid=grid, node_ids=np.arange(n))
    chlm = HandoffEngine()
    L = levels_for(n)

    def build(pts):
        edges = unit_disk_edges(pts, r_tx)
        return build_hierarchy(
            np.arange(n), edges, max_levels=L,
            level_mode="radio", positions=pts, r0=r_tx,
        )

    # Baselines.
    pts = model.positions.copy()
    hop = EuclideanHops(pts, r_tx)
    gls.observe(pts, hop)
    chlm.observe(build(pts), hop)

    totals = {"gls_handoff": 0, "gls_update": 0, "chlm_handoff": 0, "chlm_reg": 0}
    for _ in range(steps):
        model.step(dt)
        pts = model.positions.copy()
        hop = EuclideanHops(pts, r_tx)
        g = gls.observe(pts, hop)
        c = chlm.observe(build(pts), hop)
        totals["gls_handoff"] += g.handoff_packets
        totals["gls_update"] += g.update_packets
        totals["chlm_handoff"] += c.total_handoff_packets
        totals["chlm_reg"] += int(c.counts[REG_PACKETS].sum())
    norm = n * steps * dt
    return {k: v / norm for k, v in totals.items()}


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (150, 300, 600) if quick else (150, 300, 600, 1200, 2400)
    steps = 30 if quick else 80

    result = ExperimentResult(
        exp_id="EXP-T8",
        title="GLS vs CHLM packet overhead under identical RWP mobility",
        columns=["n", "CHLM handoff", "CHLM reg", "CHLM total",
                 "GLS handoff", "GLS update", "GLS total", "GLS/CHLM"],
    )
    for n in ns:
        acc: dict[str, list[float]] = {}
        for seed in seeds:
            rates = _one_run(n, steps, warmup=10, seed=seed)
            for k, v in rates.items():
                acc.setdefault(k, []).append(v)
        m = {k: float(np.mean(v)) for k, v in acc.items()}
        chlm_total = m["chlm_handoff"] + m["chlm_reg"]
        gls_total = m["gls_handoff"] + m["gls_update"]
        result.add_row(
            n, round(m["chlm_handoff"], 3), round(m["chlm_reg"], 3),
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
