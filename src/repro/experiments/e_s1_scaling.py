"""EXP-S1 — scale substrate: handoff overhead and batch queries at 10^5 nodes.

The paper's headline claim (Eq. 6c) is asymptotic — phi = O(log^2 |V|)
— but every other experiment in this harness stops around |V| = 3200,
where log^2 |V| only spans a factor of ~2.  This study pushes the
measured per-node handoff rate to |V| = 10^5 (a 4x span of log^2 |V|),
which is only tractable on the vectorized substrate:

* simulations run through the sweep runner (:mod:`repro.sim.sweep`),
  which fans the grid over worker processes; a result is ~1.5 MiB
  pickled at 10^5 nodes, so shipping it back costs milliseconds;
* edges come from a numpy cell grid each step, and at n >= 2000 (where
  :func:`repro.core.servers.patch_pays` says it pays at this 1 m/s
  churn) server assignments are patched only along the descent chains
  each step's hierarchy diff marks dirty — chains read back from the
  previous servers and hierarchy, never stored, so a 10^5-node step
  holds no per-depth copy of them;
* a query throughput probe at the largest size replays the final
  topology and resolves a batch of lookups through
  :class:`repro.core.BatchResolver`.

Few metered steps (the default ``steps=3``) keep the wall clock in
minutes, but they measure an early-transient rate, not the stationary
one: the per-node rate keeps rising long after the warm-up (at
n = 6 400 it is still rising after 100 steps), so these rows understate
the settled rate.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.analysis import levels_for, phi_total_prediction
from repro.core import BatchResolver, full_assignment
from repro.experiments.common import ExperimentResult
from repro.sim import (
    Scenario, expand_grid, run_sweep, static_snapshot, sweep_points,
)
from repro.sim.hops import EuclideanHops

__all__ = ["run"]

#: Lookups in the query throughput probe.
BATCH_PROBE_QUERIES = 10_000


def _batch_probe(res) -> dict:
    """Query throughput on a run's final snapshot.

    Rebuilds the topology from ``SimResult.final_positions`` (no
    re-simulation), then times ``BATCH_PROBE_QUERIES`` lookups through
    the batch resolver.
    """
    sc = res.scenario
    pts = res.final_positions
    hier = static_snapshot(sc, pts).hierarchy
    assignment = full_assignment(hier)
    hop = EuclideanHops(pts, sc.r_tx)
    rng = np.random.default_rng(sc.seed + 2000)
    src = rng.integers(0, sc.n, size=BATCH_PROBE_QUERIES)
    dst = rng.integers(0, sc.n, size=BATCH_PROBE_QUERIES)

    resolver = BatchResolver(hier, assignment, hop)
    resolver.resolve(src[:8], dst[:8])  # warm the per-level tables
    t0 = time.perf_counter()
    batch = resolver.resolve(src, dst)
    batch_s = time.perf_counter() - t0
    return {
        "n": sc.n,
        "queries": BATCH_PROBE_QUERIES,
        "batch_seconds": batch_s,
        "batch_qps": BATCH_PROBE_QUERIES / batch_s,
        "batch_us_per_query": batch_s / BATCH_PROBE_QUERIES * 1e6,
        "hit_fraction": float(np.mean(batch.hit_level >= 0)),
    }


def run(quick: bool = True, seeds=(0, 1),
        report_path=None) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring).

    ``report_path`` (optional) additionally writes the table rows and
    the batch-query probe as JSON — CI uploads it as the scaling-report
    artifact.
    """
    ns = (1_000, 3_000, 10_000) if quick else (1_000, 3_000, 10_000, 30_000, 100_000)
    seeds = list(seeds)

    base = Scenario(n=1_000, steps=3, warmup=2, speed=1.0,
                    hop_mode="euclidean", hop_sample_every=10_000)
    scenarios = expand_grid(
        base, ns, seeds,
        scenario_for=lambda sc, n: replace(sc, max_levels=levels_for(n)),
    )
    results = run_sweep(scenarios)
    points = sweep_points(results, {"rate": lambda r: r.handoff_rate})
    means = [p["rate"] for p in points]
    stds = [p.stds["rate"] for p in points]

    # Least-squares coefficient for the Eq. (6c) reference curve
    # c * log^2 n (single free parameter, fitted over the whole grid).
    x = phi_total_prediction(ns)
    c = float(np.dot(x, means) / np.dot(x, x))
    refs = phi_total_prediction(ns, coeff=c)

    result = ExperimentResult(
        exp_id="EXP-S1",
        title="Scale study: handoff rate to |V| = 1e5 vs c*log^2|V| (Eq. 6c)",
        columns=["n", "handoff (pkts/node/s)", "std",
                 "c*log^2 n", "measured/ref"],
    )
    for n, m, s, r in zip(ns, means, stds, refs):
        result.add_row(n, round(m, 3), round(s, 3), round(float(r), 3),
                       round(m / float(r), 3))

    spread = (means[-1] / means[0]) / (float(refs[-1]) / float(refs[0]))
    result.add_note(
        f"fitted c = {c:.4f}; measured growth over the grid is "
        f"{spread:.2f}x the log^2 reference's "
        "(1.0 = perfect Eq. 6c scaling)."
    )

    probe = _batch_probe(results[-len(seeds)])  # first run at the largest n
    result.add_note(
        f"batch query probe at n={probe['n']}: "
        f"{probe['batch_qps']:,.0f} queries/s "
        f"({probe['batch_us_per_query']:.1f} us/query), hit fraction "
        f"{probe['hit_fraction']:.3f}."
    )

    if report_path is not None:
        report = {
            "exp_id": "EXP-S1",
            "ns": list(ns),
            "seeds": seeds,
            "handoff_rate_mean": means,
            "handoff_rate_std": stds,
            "fitted_coeff": c,
            "reference": [float(r) for r in refs],
            "batch_probe": probe,
        }
        Path(report_path).write_text(json.dumps(report, indent=2) + "\n")
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
