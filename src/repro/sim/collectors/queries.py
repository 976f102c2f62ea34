"""Location-query sampling through the (possibly lossy) stack.

Owns the dedicated "queries" RNG stream.  Self-pairs (s == d) are
redrawn — a node "querying" its own location resolves trivially and
would inflate the measured hit rate for free — and counted in
``QueryLedger.self_pairs``.  Redrawing (rather than skipping) keeps the
per-step attempt count exactly ``queries_per_step``.

Resolution is batched (``repro.core.batch_query``): the step's whole
query set goes through one vectorized :class:`BatchResolver`.  Lossless
runs take the pure array path; lossy runs walk batch-precomputed probe
plans against the shared delivery engine *in query order*, so the
channel RNG consumes draws in exactly the sequence the scalar loop did
— the ledger stays bit-identical either way.
"""

from __future__ import annotations

import numpy as np

from repro.sim.collectors.base import Collector

__all__ = ["QueryCollector"]


class QueryCollector(Collector):
    """Samples random s-d location queries each step via the engine's
    effective assignment, metering direct hits, expanding-ring
    fallbacks, and outright failures."""

    name = "queries"
    phase = "diff"

    def __init__(self, rng: np.random.Generator, delivery=None):
        from repro.faults import QueryLedger

        self._rng = rng
        self._delivery = delivery
        self.ledger = QueryLedger()

    def _draw_pairs(self, sc) -> tuple[np.ndarray, np.ndarray]:
        """The step's (s, d) pairs, drawn exactly as the historical
        scalar loop did (including self-pair redraws) so the "queries"
        stream stays bit-identical."""
        ledger = self.ledger
        src = np.empty(sc.queries_per_step, dtype=np.int64)
        dst = np.empty(sc.queries_per_step, dtype=np.int64)
        for i in range(sc.queries_per_step):
            pair = self._rng.integers(0, sc.n, size=2)
            s, d = int(pair[0]), int(pair[1])
            while s == d:
                ledger.self_pairs += 1
                pair = self._rng.integers(0, sc.n, size=2)
                s, d = int(pair[0]), int(pair[1])
            src[i] = s
            dst[i] = d
        return src, dst

    def on_step(self, snap) -> None:
        """Resolve this step's query batch against the effective
        assignment; failed probes fall back to an expanding-ring flood
        (successful but metered as degradation), unreachable targets
        fail outright."""
        from repro.core.batch_query import BatchResolver
        from repro.faults import expanding_ring_cost

        sc = snap.scenario
        ledger = self.ledger
        if sc.queries_per_step <= 0:
            ledger.close_step()
            return
        src, dst = self._draw_pairs(sc)
        resolver = BatchResolver(snap.hierarchy, snap.assignment, snap.hop_fn)
        if self._delivery is None:
            out = resolver.resolve(src, dst)
            packets = out.packets
            hit_levels = out.hit_level
        else:
            plans = resolver.plans(src, dst)
            packets = np.empty(src.size, dtype=np.int64)
            hit_levels = np.empty(src.size, dtype=np.int64)
            for i in range(src.size):
                packets[i], hit_levels[i], _, _ = plans.walk(i, self._delivery)
        misses = np.flatnonzero(hit_levels < 0)
        target_hops = np.zeros(src.size, dtype=np.int64)
        if misses.size:
            target_hops[misses] = resolver.hops(src[misses], dst[misses])
        for i in range(src.size):
            pkts = int(packets[i])
            if hit_levels[i] >= 0:
                ledger.record_direct(pkts)
                continue
            th = int(target_hops[i])
            if th > 0:
                flood = expanding_ring_cost(th, sc.n, sc.density, sc.r_tx)
                ledger.record_fallback(pkts, flood)
            else:
                ledger.record_failure(pkts)
        ledger.close_step()

    def finalize(self, elapsed: float) -> dict:
        """Contribute ``queries`` (the :class:`QueryLedger`)."""
        return {"queries": self.ledger}
