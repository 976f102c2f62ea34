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

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.handoff import RETRANSMITTED, HandoffReport, fold_charges
from repro.core.servers import ServerAssignment
from repro.faults.loss import LossModel
from repro.faults.retry import RetryPolicy

__all__ = ["Delivery", "DeliveryEngine"]


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
    stale: dict = field(default_factory=dict, init=False)
    """The handoff entries left behind, ``(subject, level) -> abandon
    time``: see :meth:`handoff`."""

    def send(self, hops: int) -> Delivery:
        """Deliver one message over ``hops`` hops, retrying per policy."""
        hops = max(int(hops), 0)
        if hops == 0:
            return Delivery(True, 1, 0, 0.0, 0)
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
        return Delivery(delivered, attempt, packets, latency, hops)

    def handoff(self, report: HandoffReport, intent: ServerAssignment,
                now: float) -> tuple[HandoffReport, tuple]:
        """Send one step's handoff charges through the channel.

        ``report`` is :meth:`~repro.core.handoff.HandoffEngine.observe`'s
        lossless report and ``intent`` the step's hash assignment.  Every
        moved entry and every registration is sent once: the entries in
        ascending ``(subject, level)`` order, together with the stale
        keys, then the registrations in column order.  That order fixes
        the RNG stream, whatever plan found the moved entries.

        An *abandoned* transfer leaves the entry on its outgoing server
        (-1: a fresh placement failed, no holder).  Its key turns
        **stale**, timestamped ``now``: the hash points at a server that
        never received the entry, so queries miss.  The engine's ordinary
        diff retries it from its holder on the following steps.  A stale
        key recovers when a transfer lands or the hash swings back to the
        holder, and the abandon-to-recovery time is summed.  It expires
        when its level vanishes.  A zero-rate channel draws nothing and
        changes no charge.

        Returns the report re-folded with the packets the channel spent
        and its level-free counts, and the entries that stayed behind as
        ``(level, row, holder)`` columns, for
        :meth:`~repro.core.handoff.HandoffEngine.hold`.
        """
        level, row, holder, hops, migration = report.moved
        reg_level, reg_hops = report.registered
        hops, reg_hops = hops.copy(), reg_hops.copy()
        stale = self.stale
        slot = dict(zip(zip(intent.subjects[row].tolist(), level.tolist()),
                        range(hops.size)))
        retransmitted = abandoned = abandoned_regs = recovered = 0
        recovery_time = 0.0
        stayed = []
        for key in sorted(slot.keys() | stale.keys()):
            i = slot.get(key)
            if i is not None:
                out = self.send(int(hops[i]))
                retransmitted += out.retransmitted
                hops[i] = out.packets
                if not out.delivered:
                    abandoned += 1
                    stayed.append(i)
                    stale.setdefault(key, now)
                    continue
            elif intent.server_of(*key) is None:
                continue  # the hierarchy got shallower: expires below
            if key in stale:  # landed, or the hash swung back
                recovered += 1
                recovery_time += now - stale.pop(key)
        self.stale = {k: t for k, t in stale.items()
                      if intent.server_of(*k) is not None}
        for i, hop_count in enumerate(reg_hops.tolist()):
            out = self.send(hop_count)
            retransmitted += out.retransmitted
            abandoned_regs += not out.delivered
            reg_hops[i] = out.packets

        moved = (level, row, holder, hops, migration)
        flat = report.flat.copy()
        flat[RETRANSMITTED:] = (retransmitted, abandoned, abandoned_regs,
                                recovered, len(self.stale))
        stayed = np.array(stayed, dtype=np.intp)
        return replace(
            report, moved=moved, registered=(reg_level, reg_hops),
            counts=fold_charges(report.counts.copy(), moved,
                                (reg_level, reg_hops)),
            flat=flat, recovery_time_total=recovery_time,
        ), (level[stayed], row[stayed], holder[stayed])
