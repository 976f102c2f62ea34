"""Attempt-level delivery accounting over a lossy control plane.

The pre-fault meters charge every LM transfer as ``charge = hops``:
delivery is assumed.  :class:`DeliveryEngine` replaces that rule with
attempt-level accounting: a message is attempted over its route, each
failed attempt is retried under a :class:`~repro.faults.retry.RetryPolicy`,
and the caller receives a :class:`Delivery` stating what the channel
actually cost — packets transmitted (including retransmissions and the
partial route of lost attempts), whether the message ultimately arrived,
and how much backoff latency it accrued.

With a zero-rate :class:`~repro.faults.loss.LossModel` the engine is an
exact pass-through (one attempt, ``packets == hops``, no RNG draws), so
lossless runs stay bit-identical to the pre-fault engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.loss import LossModel
from repro.faults.retry import RetryPolicy

__all__ = ["Delivery", "FaultStats", "DeliveryEngine"]


@dataclass(frozen=True)
class Delivery:
    """Outcome of sending one control message."""

    delivered: bool
    attempts: int
    packets: int
    """Total packet transmissions spent across all attempts."""
    latency: float
    """Backoff time accrued before the final attempt, in seconds."""
    hops: int
    """Route length — what a lossless channel would have charged."""

    @property
    def retransmitted(self) -> int:
        """Transmissions beyond the lossless single-attempt cost.

        For an abandoned message every transmission was wasted, so the
        whole spend counts as retransmission overhead.
        """
        if self.delivered:
            return max(self.packets - self.hops, 0)
        return self.packets


@dataclass
class FaultStats:
    """Running totals across every message an engine has sent."""

    messages: int = 0
    delivered: int = 0
    abandoned: int = 0
    attempts: int = 0
    packets: int = 0
    retransmitted_packets: int = 0
    backoff_time: float = 0.0

    def observe(self, d: Delivery) -> None:
        """Fold one delivery outcome into the totals."""
        self.messages += 1
        self.attempts += d.attempts
        self.packets += d.packets
        self.retransmitted_packets += d.retransmitted
        self.backoff_time += d.latency
        if d.delivered:
            self.delivered += 1
        else:
            self.abandoned += 1


@dataclass
class DeliveryEngine:
    """Stateful lossy-channel sender shared by all LM meters in a run.

    Parameters
    ----------
    loss:
        The per-hop channel model.
    retry:
        Retransmission policy applied to every message.
    rng:
        Dedicated generator (spawn it from the scenario seed so fault
        injection never perturbs the placement/mobility streams).
    """

    loss: LossModel
    retry: RetryPolicy
    rng: np.random.Generator
    stats: FaultStats = field(default_factory=FaultStats)

    def send(self, hops: int) -> Delivery:
        """Deliver one message over ``hops`` hops, retrying per policy."""
        hops = max(int(hops), 0)
        if hops == 0:
            out = Delivery(True, 1, 0, 0.0, 0)
            self.stats.observe(out)
            return out
        packets = 0
        latency = 0.0
        attempt = 0
        delivered = False
        while True:
            attempt += 1
            ok, tx = self.loss.attempt(hops, self.rng)
            packets += tx
            if ok:
                delivered = True
                break
            if attempt >= self.retry.max_attempts:
                break
            delay = self.retry.backoff(attempt, self.rng)
            if latency + delay > self.retry.timeout:
                break
            latency += delay
        out = Delivery(delivered, attempt, packets, latency, hops)
        self.stats.observe(out)
        return out
