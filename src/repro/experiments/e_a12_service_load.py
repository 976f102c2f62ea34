"""EXP-A12 (extension) — open-loop service load and latency SLOs.

The paper meters handoff overhead per mobility event; a deployed
location service additionally faces *open-loop load* — lookups and
updates arrive at their own rate, whether or not the last one finished.
This extension drives the PR-8 service front-end (:mod:`repro.service`)
up a load ladder over one deployment and tabulates the queueing story
the per-event analysis cannot see: sojourn-time percentiles against
offered load, the latency knee past the service capacity, and what
token-bucket admission control buys back.

Four regimes share one scenario (only the service knobs vary):

* **underload** — arrivals well below capacity; latency is pure service
  time and the queue never builds;
* **at-capacity** — arrivals near the worker pool's service rate; waits
  appear but the backlog stays bounded;
* **overload** — arrivals past capacity with admission off; the bounded
  queue saturates and the excess is *dropped* after queueing (worst
  case: the backlog penalty is paid, then work is lost);
* **admitted** — the same overload with a token bucket sized to
  capacity; the excess is *shed* before service and the served tail
  latency recovers.

Per regime the table reports offered/served totals, shed and dropped
counts, p50/p95/p99 sojourn latency (simulated seconds), throughput,
and peak queue depth.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.sim import Scenario, run_scenario

__all__ = ["run"]


def _scenario(n, steps, seed, *, arrival_rate, admission_rate):
    return Scenario(
        n=n, steps=steps, warmup=5, speed=1.5, seed=seed,
        max_levels=3, target_degree=12.0, hop_mode="euclidean",
        arrival_rate=arrival_rate, admission_rate=admission_rate,
        service_workers=4, service_queue_capacity=64,
        hop_sample_every=10_000,
    )


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    n = 150 if quick else 400
    steps = 25 if quick else 60

    # The worker pool serves roughly workers / ((1 + packets) * hop_time)
    # requests/s; the ladder brackets that knee from both sides.
    regimes = [
        ("underload", dict(arrival_rate=30.0, admission_rate=0.0)),
        ("at-capacity", dict(arrival_rate=90.0, admission_rate=0.0)),
        ("overload", dict(arrival_rate=240.0, admission_rate=0.0)),
        ("admitted", dict(arrival_rate=240.0, admission_rate=90.0)),
    ]

    result = ExperimentResult(
        exp_id="EXP-A12",
        title="Extension: open-loop service load, admission control, latency SLOs",
        columns=["regime", "offered", "served", "shed", "dropped",
                 "p50 (s)", "p95 (s)", "p99 (s)", "thru (req/s)", "peak queue"],
    )
    for name, knobs in regimes:
        offered, served, shed, dropped = [], [], [], []
        p50s, p95s, p99s, thru, peakq = [], [], [], [], []
        for seed in seeds:
            sc = _scenario(n, steps, seed, **knobs)
            rep = run_scenario(sc).extras["service"]
            offered.append(rep.offered)
            served.append(rep.served)
            shed.append(rep.shed)
            dropped.append(rep.dropped)
            p50s.append(rep.p50)
            p95s.append(rep.p95)
            p99s.append(rep.p99)
            thru.append(rep.throughput)
            peakq.append(rep.peak_queue_depth)
        result.add_row(
            name,
            round(float(np.mean(offered)), 1),
            round(float(np.mean(served)), 1),
            round(float(np.mean(shed)), 1),
            round(float(np.mean(dropped)), 1),
            round(float(np.nanmean(p50s)), 4),
            round(float(np.nanmean(p95s)), 4),
            round(float(np.nanmean(p99s)), 4),
            round(float(np.mean(thru)), 1),
            round(float(np.mean(peakq)), 1),
        )
    result.add_note(
        "Finding: below capacity, sojourn latency is flat at the pure "
        "service time and the queue never builds.  Past the knee, the "
        "bounded queue saturates: p99 latency inflates by the full "
        "backlog and the excess is dropped only *after* inflating "
        "everyone else's wait.  A token bucket sized near capacity "
        "instead sheds the excess *before* it queues: fewer requests "
        "are served, but every served one meets a tail close to the "
        "underload latency — the overload trade-off made explicit at "
        "the front door rather than paid implicitly by every client in "
        "the backlog."
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
