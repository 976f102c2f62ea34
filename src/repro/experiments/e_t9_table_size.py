"""EXP-T9 — Section 2.1 / Kleinrock-Kamoun [7]: routing state.

Compares flat routing tables (|V| - 1 entries per node) with the strict
hierarchical map (peers in the level-1 cluster plus sibling clusters per
level).  The hierarchical map should grow ~logarithmically, the flat
table linearly — the reduction that motivates hierarchical routing in
the first place.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import compare_shapes, levels_for
from repro.experiments.common import ExperimentResult
from repro.routing import flat_table_size, hierarchical_table_sizes
from repro.sim import Scenario, static_snapshot, sweep_points

__all__ = ["run"]


def _map_sizes(snap) -> dict[str, float]:
    """Mean and largest per-node map size on ``snap``."""
    sizes = hierarchical_table_sizes(snap.hierarchy)
    return {"mean": sizes.mean(), "max": sizes.max()}


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (100, 200, 400, 800, 1600) if quick else (100, 200, 400, 800, 1600, 3200, 6400)
    scenarios = [Scenario(n=n, max_levels=levels_for(n), seed=seed)
                 for n in ns for seed in seeds]
    snaps = [static_snapshot(sc, sc.region.sample(
        sc.n, np.random.default_rng(sc.seed))) for sc in scenarios]
    points = sweep_points(snaps, {"map": _map_sizes})

    result = ExperimentResult(
        exp_id="EXP-T9",
        title="Routing state: hierarchical map vs flat table",
        columns=["n", "flat entries", "hier mean", "hier max",
                 "hier/flat", "hier / log n"],
    )
    means = []
    for p in points:
        n, mean = p.n, p["map"]["mean"]
        means.append(mean)
        flat = flat_table_size(n)
        result.add_row(
            n, flat, round(mean, 1), int(p["map"]["max"]),
            round(mean / flat, 4), round(mean / np.log(n), 2),
        )

    fits = compare_shapes(list(ns), means, shapes=("log", "log2", "sqrt", "linear"))
    result.add_note(
        f"hierarchical map best shape: {fits[0].shape} "
        f"(expected log-ish; ranking: {[f.shape for f in fits]})"
    )
    reduction = flat_table_size(ns[-1]) / means[-1]
    result.add_note(
        f"at n={ns[-1]} the hierarchical map is {reduction:.0f}x smaller "
        "than the flat table"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
