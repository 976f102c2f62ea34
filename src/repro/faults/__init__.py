"""Fault injection: lossy control plane, retry/backoff, degradation metering.

The paper's Theta(log^2 |V|) handoff bound assumes every LM control
packet is delivered.  This package drops that assumption:

* :class:`LossModel` — seeded Bernoulli per-hop loss (route length
  grades the effective channel),
* :class:`RetryPolicy` — bounded retransmission on a fixed
  exponential-backoff schedule with jitter, and a per-message timeout,
* :class:`DeliveryEngine` — attempt-level accounting (delivered /
  retransmitted / abandoned packets), and the one pass that runs the
  handoff meter's lossless charge rows through it (``handoff``),
* :func:`expanding_ring_cost` / :class:`QueryLedger` — the metered
  fallback path for queries that hit stale or abandoned state.

The chaos layer builds on that plane:

* :mod:`repro.faults.chaos` — seed-deterministic timed episodes
  (crash/recover, targeted clusterhead kills, geographic partitions,
  burst-loss windows), given as the tuple ``Scenario.chaos`` — the one
  way to inject faults — and the :class:`ChaosEngine` that injects
  them into the simulator pipeline,
* :mod:`repro.faults.invariants` — per-step hierarchy invariant
  checking (:func:`check_invariants`), feeding the recovery-SLO layer
  (:class:`repro.sim.collectors.ChaosCollector`).

Zero loss with retries disabled is an exact no-op: every meter then
produces bit-identical numbers to the pre-fault engine (tested by
``tests/sim/test_lossy_equivalence.py``); likewise an empty fault
schedule is bit-identical to a chaos-free run
(``tests/sim/test_chaos_equivalence.py``).  See ``docs/ROBUSTNESS.md``.
"""

from repro.faults.chaos import (
    ChaosEngine,
    CrashEpisode,
    LossBurstEpisode,
    PartitionEpisode,
    parse_episode,
)
from repro.faults.delivery import Delivery, DeliveryEngine
from repro.faults.fallback import QueryLedger, expanding_ring_cost
from repro.faults.invariants import (
    InvariantReport,
    InvariantViolationError,
    check_invariants,
)
from repro.faults.loss import MAX_HOP_LOSS, LossModel
from repro.faults.retry import RetryPolicy

__all__ = [
    "ChaosEngine",
    "CrashEpisode",
    "Delivery",
    "DeliveryEngine",
    "InvariantReport",
    "InvariantViolationError",
    "LossBurstEpisode",
    "LossModel",
    "MAX_HOP_LOSS",
    "PartitionEpisode",
    "QueryLedger",
    "RetryPolicy",
    "check_invariants",
    "expanding_ring_cost",
    "parse_episode",
]
