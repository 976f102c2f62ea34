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
from repro.experiments.common import ExperimentResult
from repro.geometry import disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges
from repro.routing import FlatRouter, ForwardingFabric

__all__ = ["run"]


def _measure(n: int, L: int, seed: int, pairs: int = 150) -> dict[str, float]:
    density = 0.02
    r_tx = radius_for_degree(9.0, density)
    region = disc_for_density(n, density)
    rng = np.random.default_rng(seed)
    pts = region.sample(n, rng)
    edges = unit_disk_edges(pts, r_tx)
    g = CompactGraph(np.arange(n), edges)
    h = build_hierarchy(np.arange(n), edges, max_levels=L,
                        level_mode="radio", positions=pts, r0=r_tx)
    fabric = ForwardingFabric(h, g)
    flat = FlatRouter(g)

    stretches = []
    delivered = attempted = 0
    for _ in range(pairs):
        s, d = (int(x) for x in rng.integers(0, n, size=2))
        fp = flat.hop_count(s, d)
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


def _measure_steady(n: int, L: int, seed: int, steps: int = 6,
                    pairs: int = 40, drift: float = 0.2) -> dict[str, float]:
    """Steady-state variant: the same delivery / stretch quantities over
    drifting snapshots, with one fabric built per snapshot."""
    density = 0.02
    r_tx = radius_for_degree(9.0, density)
    region = disc_for_density(n, density)
    rng = np.random.default_rng(seed)
    pts = region.sample(n, rng)
    stretches: list[float] = []
    states: list[float] = []
    delivered = attempted = 0
    for _ in range(steps):
        edges = unit_disk_edges(pts, r_tx)
        g = CompactGraph(np.arange(n), edges)
        h = build_hierarchy(np.arange(n), edges, max_levels=L,
                            level_mode="radio", positions=pts, r0=r_tx)
        fabric = ForwardingFabric(h, g)
        states.append(float(fabric.table_sizes().mean()))
        flat = FlatRouter(g)
        for _ in range(pairs):
            s, d = (int(x) for x in rng.integers(0, n, size=2))
            fp = flat.hop_count(s, d)
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

    result = ExperimentResult(
        exp_id="EXP-A7",
        title="Extension: routing state vs path stretch (Kleinrock-Kamoun tradeoff)",
        columns=["n", "L", "map entries/node", "state vs flat",
                 "delivery", "stretch mean", "stretch p95"],
    )
    reductions, stretches = [], []
    for n in ns:
        L = levels_for(n)
        acc: dict[str, list[float]] = {}
        for seed in seeds:
            m = _measure(n, L, seed)
            for k, v in m.items():
                acc.setdefault(k, []).append(v)
        mean = {k: float(np.nanmean(v)) for k, v in acc.items()}
        reduction = (n - 1) / max(mean["state"], 1e-9)
        reductions.append(reduction)
        stretches.append(mean["stretch_mean"])
        result.add_row(
            n, L, round(mean["state"], 1), f"{reduction:.0f}x smaller",
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
        m = _measure(n, L, seeds[0])
        result.add_note(
            f"n={n}, L={L}: state {m['state']:.1f}/node, "
            f"stretch {m['stretch_mean']:.2f} "
            "(deeper hierarchies trade state for stretch)"
        )
    # Steady state under mobility: a fabric per drifting snapshot.
    n0 = ns[0]
    m = _measure_steady(n0, levels_for(n0), seeds[0])
    result.add_note(
        f"steady state (fabric per snapshot, n={n0}): "
        f"state {m['state']:.1f}/node, delivery {m['delivery']:.3f}, "
        f"stretch {m['stretch_mean']:.2f}"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
