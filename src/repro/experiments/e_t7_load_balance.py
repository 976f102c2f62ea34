"""EXP-T7 — Section 3.2: server-load equitability.

The paper warns that applying GLS's Eq. (5) hash directly to cluster IDs
"would result in a disproportionately large number of nodes ... selecting
45" — i.e. the circular-successor rule skews badly on small, gappy
candidate sets — and therefore CHLM needs "a slightly more complex
hashing function".  This experiment quantifies that claim: it computes
full server assignments under both hashes on identical hierarchies and
compares load statistics (max/mean ratio, standard deviation, top-decile
share).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import levels_for
from repro.core import full_assignment
from repro.experiments.common import ExperimentResult
from repro.sim import Scenario, static_snapshot, sweep_points

__all__ = ["run"]

HASHES = ("rendezvous", "naive")


def _load_stats(snap, hash_name: str) -> dict[str, float]:
    """Load statistics of one hash's full assignment on ``snap``."""
    n = snap.scenario.n
    values = np.zeros(n, dtype=np.float64)
    for node, count in full_assignment(snap.hierarchy, hash_name).load().items():
        values[node] = count
    top = np.sort(values)[-max(n // 10, 1):].sum() / max(values.sum(), 1)
    return {"mean": float(values.mean()), "max": int(values.max()),
            "std": float(values.std()), "top": float(top)}


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    ns = (500, 1000) if quick else (500, 1000, 2000)
    scenarios = [Scenario(n=n, max_levels=levels_for(n), seed=seed)
                 for n in ns for seed in seeds]
    snaps = [static_snapshot(sc, sc.region.sample(
        sc.n, np.random.default_rng(sc.seed))) for sc in scenarios]
    points = sweep_points(snaps, {
        h: lambda snap, h=h: _load_stats(snap, h) for h in HASHES})

    result = ExperimentResult(
        exp_id="EXP-T7",
        title="CHLM server-load equitability: rendezvous vs naive Eq. (5) hash",
        columns=["n", "hash", "mean load", "max load", "max/mean",
                 "std", "top-10% share"],
    )
    for p in points:
        for h in HASHES:
            s = p[h]
            result.add_row(p.n, h, round(s["mean"], 2), round(s["max"], 1),
                           round(s["max"] / max(s["mean"], 1e-9), 2),
                           round(s["std"], 2), round(s["top"], 3))
    for p in points:
        factor = p["naive"]["max"] / max(p["rendezvous"]["max"], 1e-9)
        result.add_note(
            f"n={p.n}: naive max-load is {factor:.1f}x the rendezvous max-load "
            "(the paper's skew warning, quantified)"
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
