"""EXP-A7 (extension) — the Kleinrock-Kamoun state/stretch tradeoff.

Hierarchical routing's whole bargain ([7], Section 2.1): exponentially
less routing state in exchange for a bounded path-length penalty.
EXP-T9 measured the state side; this experiment adds the price tag —
the stretch distribution of hop-by-hop hierarchical forwarding against
flat shortest paths — across network sizes and hierarchy depths.

Rows report, per (n, L): mean per-node map size, state reduction vs
flat, delivery ratio, and mean / p95 stretch.  The tradeoff claim holds
if stretch stays a small constant while state reduction grows with n.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import levels_for
from repro.experiments.common import ExperimentResult, SeedRecord
from repro.graphs import CompactGraph
from repro.routing import ForwardingFabric
from repro.sim import BfsHops, Scenario, static_snapshot, sweep_points

__all__ = ["run"]


def _measure(sc: Scenario, pairs: int = 150) -> dict[str, float]:
    rng = np.random.default_rng(sc.seed)
    snap = static_snapshot(sc, sc.region.sample(sc.n, rng))
    g = CompactGraph(np.arange(sc.n), snap.edges)
    fabric = ForwardingFabric(snap.hierarchy, g)
    flat = BfsHops(g)

    stretches = []
    delivered = attempted = 0
    for _ in range(pairs):
        s, d = (int(x) for x in rng.integers(0, sc.n, size=2))
        fp = flat(s, d)
        if fp <= 0:
            continue
        attempted += 1
        res = fabric.forward(s, d)
        if res.delivered:
            delivered += 1
            stretches.append(res.hops / fp)
    return {
        "state": float(fabric.table_sizes().mean()),
        "delivery": delivered / max(attempted, 1),
        "stretch_mean": float(np.mean(stretches)) if stretches else float("nan"),
        "stretch_p95": float(np.percentile(stretches, 95)) if stretches else float("nan"),
    }


def _measure_steady(sc: Scenario, steps: int = 6, pairs: int = 40,
                    drift: float = 0.2) -> dict[str, float]:
    """Steady-state variant: the same delivery / stretch quantities over
    drifting snapshots, with one fabric built per snapshot."""
    rng = np.random.default_rng(sc.seed)
    pts = sc.region.sample(sc.n, rng)
    stretches: list[float] = []
    states: list[float] = []
    delivered = attempted = 0
    for _ in range(steps):
        snap = static_snapshot(sc, pts)
        g = CompactGraph(np.arange(sc.n), snap.edges)
        fabric = ForwardingFabric(snap.hierarchy, g)
        states.append(float(fabric.table_sizes().mean()))
        flat = BfsHops(g)
        for _ in range(pairs):
            s, d = (int(x) for x in rng.integers(0, sc.n, size=2))
            fp = flat(s, d)
            if fp <= 0:
                continue
            attempted += 1
            res = fabric.forward(s, d)
            if res.delivered:
                delivered += 1
                stretches.append(res.hops / fp)
        pts = pts + rng.normal(scale=drift, size=pts.shape)
    return {
        "state": float(np.mean(states)),
        "delivery": delivered / max(attempted, 1),
        "stretch_mean": float(np.mean(stretches)) if stretches else float("nan"),
    }


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (200, 400, 800) if quick else (200, 400, 800, 1600, 3200)
    scenarios = [Scenario(n=n, max_levels=levels_for(n), seed=seed)
                 for n in ns for seed in seeds]
    records = [SeedRecord(sc, _measure(sc)) for sc in scenarios]
    points = sweep_points(records, {"route": lambda r: r.values})

    result = ExperimentResult(
        exp_id="EXP-A7",
        title="Extension: routing state vs path stretch (Kleinrock-Kamoun tradeoff)",
        columns=["n", "L", "map entries/node", "state vs flat",
                 "delivery", "stretch mean", "stretch p95"],
    )
    reductions, stretches = [], []
    for p in points:
        n, mean = p.n, p["route"]
        reduction = (n - 1) / max(mean["state"], 1e-9)
        reductions.append(reduction)
        stretches.append(mean["stretch_mean"])
        result.add_row(
            n, p.scenario.max_levels, round(mean["state"], 1),
            f"{reduction:.0f}x smaller",
            round(mean["delivery"], 3), round(mean["stretch_mean"], 2),
            round(mean["stretch_p95"], 2),
        )
    result.add_note(
        f"state reduction grows {reductions[0]:.0f}x -> {reductions[-1]:.0f}x "
        f"while mean stretch stays ~{np.mean(stretches):.2f} — the [7] "
        "tradeoff: logarithmic state for a constant-factor detour."
    )
    # Depth sensitivity at the largest size.
    n = ns[-1]
    for L in (2, levels_for(n) + 1):
        m = _measure(Scenario(n=n, max_levels=L, seed=seeds[0]))
        result.add_note(
            f"n={n}, L={L}: state {m['state']:.1f}/node, "
            f"stretch {m['stretch_mean']:.2f} "
            "(deeper hierarchies trade state for stretch)"
        )
    # Steady state under mobility: a fabric per drifting snapshot.
    n0 = ns[0]
    m = _measure_steady(
        Scenario(n=n0, max_levels=levels_for(n0), seed=seeds[0]))
    result.add_note(
        f"steady state (fabric per snapshot, n={n0}): "
        f"state {m['state']:.1f}/node, delivery {m['delivery']:.3f}, "
        f"stretch {m['stretch_mean']:.2f}"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
