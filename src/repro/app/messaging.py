"""End-to-end messaging on the full stack.

The system this paper's machinery exists for: a node opens a session to
a peer it knows only by ID.  One delivery is

1. **resolve** — CHLM query for the destination's hierarchical address
   (probing servers level by level, §3.2),
2. **forward** — hop-by-hop strict hierarchical forwarding *using the
   resolved address*, not oracle knowledge (§2.1).

:class:`MessagingService` maintains the stack across mobility steps —
crucially, sessions opened at step t resolve against the step-(t-1)
LM database (the one-update-round lag a real network pays), so the
measured session success rate is the honest end-to-end number, stale
addresses and all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import HandoffEngine, resolve_batch
from repro.graphs import CompactGraph
from repro.hierarchy.levels import ClusteredHierarchy
from repro.hierarchy.stepper import hierarchy_stepper
from repro.radio.linkevents import LinkTracker
from repro.radio.unit_disk import unit_disk_edges
from repro.routing.fabric_cache import FabricCache
from repro.routing.forwarding import ForwardingFabric

__all__ = ["SessionResult", "MessagingService"]


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one end-to-end session attempt."""

    source: int
    target: int
    resolved: bool
    delivered: bool
    query_packets: int
    data_hops: int
    stale_address: bool
    """True when the resolved address differs from the target's current
    address (the database lagged the topology)."""


class MessagingService:
    """Full-stack LM + routing service over a mobile node population.

    Parameters
    ----------
    n, r_tx, max_levels:
        Population size, unit-disk radius, hierarchy depth cap.
    hash_fn:
        CHLM hash the handoff engine places servers with and sessions
        resolve with.

    The forwarding fabric is maintained across steps by a
    :class:`~repro.routing.fabric_cache.FabricCache` fed with the step's
    link events.
    """

    def __init__(self, n: int, r_tx: float, max_levels: int | None = None,
                 hash_fn: str = "rendezvous"):
        if n <= 1 or r_tx <= 0:
            raise ValueError("need n > 1 and a positive radius")
        self.n = int(n)
        self.r_tx = float(r_tx)
        self.max_levels = max_levels
        self._engine = HandoffEngine(hash_fn=hash_fn)
        self._stepper = hierarchy_stepper(self.n, self.r_tx,
                                          max_levels=max_levels)
        self._tracker = LinkTracker(self.n)
        self._fabric_cache = FabricCache()
        self._hierarchy: ClusteredHierarchy | None = None
        self._fabric: ForwardingFabric | None = None
        self._graph: CompactGraph | None = None
        # The database sessions query: last step's hierarchy/assignment.
        self._db_hierarchy: ClusteredHierarchy | None = None
        self._db_assignment = None

    @property
    def ready(self) -> bool:
        """Whether at least two topology updates have been observed (the
        LM database exists and lags by one round)."""
        return self._db_assignment is not None and self._fabric is not None

    def observe(self, positions, hop_fn) -> None:
        """Advance the stack to the new topology snapshot.

        The previous snapshot's hierarchy/assignment become the queryable
        database; the new snapshot carries the data plane.
        """
        pts = np.asarray(positions, dtype=np.float64)
        if pts.shape[0] != self.n:
            raise ValueError("positions must cover all nodes")
        edges = unit_disk_edges(pts, self.r_tx)
        h = self._stepper(edges, pts)
        # Database = what was current before this update.
        self._db_hierarchy = self._hierarchy
        self._db_assignment = self._engine.assignment
        self._engine.observe(h, hop_fn)
        self._hierarchy = h
        self._graph = CompactGraph(np.arange(self.n), edges)
        self._fabric = self._fabric_cache.update(
            h, self._graph, self._tracker.observe(edges))

    def send(self, s: int, d: int, hop_fn) -> SessionResult:
        """Attempt one session from ``s`` to ``d``.

        Resolution runs against the lagged database; forwarding runs on
        the current data plane with the *resolved* address.
        """
        if not self.ready:
            raise RuntimeError("observe() at least twice before sending")
        if s == d:
            return SessionResult(s, d, True, True, 0, 0, False)
        q = resolve_batch(self._db_hierarchy, self._db_assignment, [s], [d],
                          hop_fn, self._engine.hash_fn).result(0)
        if q.hit_level < 0 or q.address is None:
            return SessionResult(s, d, False, False, q.packets, 0, False)
        current = self._hierarchy.address(d)
        stale = tuple(q.address) != tuple(current)
        res = self._fabric.forward(s, d, address=tuple(q.address))
        return SessionResult(
            source=s, target=d, resolved=True, delivered=res.delivered,
            query_packets=q.packets, data_hops=res.hops if res.delivered else 0,
            stale_address=stale,
        )
