"""The open-loop service front-end: workload in, SLO report out.

:class:`ServiceFrontend` ties the pieces together each metered step:

1. the :class:`~repro.service.workload.WorkloadGenerator` draws the
   step's arrivals from the dedicated ``"service"`` RNG stream,
2. the :class:`~repro.service.queueing.TokenBucket` sheds arrivals past
   the configured admission rate,
3. admitted requests resolve against the live simulator snapshot
   through the batch engine — CHLM probes via one per-step
   :class:`~repro.core.batch_query.BatchResolver` (lossless steps are
   pure vectorized array ops; lossy steps walk batch-precomputed probe
   plans on the thread pool with per-request delivery engines) or GLS
   lookups via :meth:`repro.gls.service.GridLocationService.query_cost`
   on the pool — measuring only *wall time*; every simulated quantity
   (packets, retries) is computed from per-request RNGs seeded at
   generation time, so results are bit-identical however threads
   interleave (and identical to the historical per-request scalar
   path, the oracle `tests/service/test_frontend.py` checks against),
4. the :class:`~repro.service.queueing.ServiceQueue` converts each
   request's packet count into service time
   (``(1 + packets) * service_hop_time``) and assigns deterministic
   start/completion times; arrivals to a full backlog are dropped.

The front-end is a *pure observer*: it owns its RNG streams and builds
its own per-request delivery engines, so enabling it never perturbs the
run's core metrics.  Dropped requests are rejected before service and
charge no simulated packets.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.service.queueing import ServiceQueue, TokenBucket
from repro.service.report import ServiceReport
from repro.service.workload import Request, WorkloadGenerator

__all__ = ["ServiceFrontend"]


class ServiceFrontend:
    """Drives one scenario's open-loop workload against live state.

    Parameters
    ----------
    scenario:
        The run's :class:`~repro.sim.scenario.Scenario`; the service
        fields (``arrival_rate`` etc.) configure every stage.
    rng:
        The engine's dedicated ``"service"`` stream.
    delivery:
        The engine's shared :class:`~repro.faults.DeliveryEngine`, or
        None on a lossless run.  Only its *current loss model* is read
        (so chaos loss bursts apply); all service-side channel draws
        come from per-request private RNGs, never the shared stream.
    """

    def __init__(self, scenario, rng: np.random.Generator, delivery=None):
        sc = scenario
        self.sc = sc
        self._workload = WorkloadGenerator(
            n=sc.n, rate=sc.arrival_rate, process=sc.arrival_process,
            dt=sc.dt, update_fraction=sc.service_update_fraction, rng=rng,
        )
        self._bucket = TokenBucket(rate=sc.admission_rate)
        self._queue = ServiceQueue(sc.service_workers,
                                   sc.service_queue_capacity)
        self._shared_delivery = delivery
        self._report = ServiceReport(duration=sc.duration)
        self._gls = None
        self._pool = None

    # -- lifecycle ----------------------------------------------------------------

    def __getstate__(self):
        """Checkpoint support: the thread pool is wall-clock machinery,
        never state — drop it and rebuild lazily after restore."""
        state = self.__dict__.copy()
        state["_pool"] = None
        return state

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.sc.service_workers,
                thread_name_prefix="repro-serve",
            )
        return self._pool

    def close(self) -> None:
        """Shut the dispatcher pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- per-step processing --------------------------------------------------------

    def process_step(self, snap) -> None:
        """Generate, admit, resolve, and queue one step's arrivals."""
        sc = self.sc
        rep = self._report
        t0 = snap.step * sc.dt
        requests = self._workload.step(snap.step, t0)
        rep.offered += len(requests)
        rep.arrivals_series.append(len(requests))
        shed0 = self._bucket.shed
        drop0 = self._queue.dropped
        admitted = [r for r in requests if self._bucket.admit(r.t)]
        if sc.service_scheme == "gls":
            self._observe_gls(snap)
        resolved = self._dispatch(admitted, snap)
        for req, (packets, outcome) in zip(admitted, resolved):
            service_time = (1 + packets) * sc.service_hop_time
            decision = self._queue.submit(req.t, service_time)
            if not decision.accepted:
                continue  # dropped before service: nothing charged
            rep.latencies.append(decision.completion - req.t)
            rep.waits.append(decision.start - req.t)
            rep.packets += packets
            if req.kind == "update":
                rep.updates += 1
            else:
                rep.lookups += 1
                if outcome == "direct":
                    rep.direct_hits += 1
                elif outcome == "fallback":
                    rep.fallback_hits += 1
                else:
                    rep.failed += 1
        rep.shed_series.append(self._bucket.shed - shed0)
        rep.dropped_series.append(self._queue.dropped - drop0)
        rep.queue_depth_series.append(self._queue.depth(t0 + sc.dt))

    def finalize(self) -> ServiceReport:
        """Close the dispatcher and return the finished report."""
        rep = self._report
        rep.shed = self._bucket.shed
        rep.dropped = self._queue.dropped
        self.close()
        return rep

    # -- resolution ----------------------------------------------------------------

    def _dispatch(self, admitted: list[Request], snap) -> list[tuple[int, str]]:
        """Resolve every admitted request through the batch engine.

        CHLM requests run through one per-step
        :class:`~repro.core.batch_query.BatchResolver`: lossless steps
        are pure array ops (no thread pool at all), lossy steps keep the
        per-request delivery engines but walk batch-precomputed probe
        plans on the pool.  GLS keeps the scalar per-request path (its
        side-car service is stateful).  Wall time is metered into the
        report; the returned ``(packets, outcome)`` pairs are
        order-preserving and fully deterministic (per-request RNGs,
        read-only snapshot)."""
        if not admitted:
            return []
        loss = (self._shared_delivery.loss
                if self._shared_delivery is not None else None)
        retry = self.sc.retry_policy() if loss is not None else None

        t_wall = time.perf_counter()
        if self.sc.service_scheme == "gls":
            def work(req: Request) -> tuple[int, str]:
                return self._resolve(req, snap, loss, retry)

            out = list(self._ensure_pool().map(work, admitted))
        else:
            out = self._dispatch_chlm(admitted, snap, loss, retry)
        self._report.wall_seconds += time.perf_counter() - t_wall
        return out

    def _dispatch_chlm(
        self, admitted: list[Request], snap, loss, retry
    ) -> list[tuple[int, str]]:
        from repro.core.batch_query import BatchResolver
        from repro.faults import expanding_ring_cost

        sc = self.sc
        resolver = BatchResolver(snap.hierarchy, snap.assignment,
                                 snap.hop_fn, hash_fn=sc.hash_fn)
        upd = [i for i, r in enumerate(admitted) if r.kind == "update"]
        look = [i for i, r in enumerate(admitted) if r.kind != "update"]
        targets = np.fromiter((admitted[i].target for i in upd),
                              dtype=np.int64, count=len(upd))
        src = np.fromiter((admitted[i].source for i in look),
                          dtype=np.int64, count=len(look))
        dst = np.fromiter((admitted[i].target for i in look),
                          dtype=np.int64, count=len(look))
        out: list[tuple[int, str] | None] = [None] * len(admitted)
        if loss is None:
            ucosts = resolver.update_plans(targets).costs()
            for j, i in enumerate(upd):
                out[i] = (int(ucosts[j]), "update")
            res = resolver.resolve(src, dst)
            packets = res.packets
            hit = res.hits
        else:
            uplans = resolver.update_plans(targets)
            lplans = resolver.plans(src, dst)
            pos = {i: j for j, i in enumerate(upd)}
            pos.update({i: j for j, i in enumerate(look)})

            def work(i: int):
                req = admitted[i]
                delivery = self._delivery_for(req, loss, retry)
                if req.kind == "update":
                    return uplans.walk(pos[i], delivery), 0
                pkts, hit_level, _, _ = lplans.walk(pos[i], delivery)
                return pkts, hit_level

            walked = list(self._ensure_pool().map(work, range(len(admitted))))
            for i in upd:
                out[i] = (walked[i][0], "update")
            packets = np.fromiter((walked[i][0] for i in look),
                                  dtype=np.int64, count=len(look))
            hit = np.fromiter((walked[i][1] >= 0 for i in look),
                              dtype=bool, count=len(look))
        misses = np.flatnonzero(~hit)
        target_hops = np.zeros(len(look), dtype=np.int64)
        if misses.size:
            target_hops[misses] = resolver.hops(src[misses], dst[misses])
        for j, i in enumerate(look):
            pkts = int(packets[j])
            if hit[j]:
                out[i] = (pkts, "direct")
            elif target_hops[j] > 0:
                flood = expanding_ring_cost(
                    int(target_hops[j]), sc.n, sc.density, sc.r_tx)
                out[i] = (pkts + flood, "fallback")
            else:
                out[i] = (pkts, "failed")
        return out

    def _delivery_for(self, req: Request, loss, retry):
        if loss is None:
            return None
        from repro.faults import DeliveryEngine

        return DeliveryEngine(
            loss=loss, retry=retry,
            rng=np.random.default_rng(req.delivery_seed),
        )

    def _resolve(self, req: Request, snap, loss, retry) -> tuple[int, str]:
        """One request against the snapshot: (packets charged, outcome).

        Outcomes: ``"update"``, ``"direct"``, ``"fallback"`` (rescued by
        the expanding-ring flood), ``"failed"`` (unreachable)."""
        delivery = self._delivery_for(req, loss, retry)
        if req.kind == "update":
            return self._update_packets(req.target, snap, delivery), "update"
        s, d = req.source, req.target
        if self.sc.service_scheme == "gls":
            packets, hit = self._gls_lookup(s, d, snap, delivery)
        else:
            from repro.core.query import resolve

            qr = resolve(snap.hierarchy, snap.assignment, s, d, snap.hop_fn,
                         hash_fn=self.sc.hash_fn, delivery=delivery)
            packets, hit = qr.packets, qr.hit_level >= 0
        if hit:
            return packets, "direct"
        target_hops = snap.hop_fn(s, d)
        if target_hops > 0:
            from repro.faults import expanding_ring_cost

            packets += expanding_ring_cost(
                target_hops, self.sc.n, self.sc.density, self.sc.r_tx)
            return packets, "fallback"
        return packets, "failed"

    def _update_packets(self, d: int, snap, delivery) -> int:
        """Re-registration cost: one message from ``d`` to each of its
        current location servers (per level)."""
        packets = 0
        if self.sc.service_scheme == "gls":
            assignment = self._gls.assignment
            entries = (assignment.servers_of(d).items()
                       if assignment is not None else ())
            for level, servers in entries:
                for srv in servers:
                    packets += self._send(d, srv, level, snap, delivery)
            return packets
        from repro.core.servers import lm_levels

        for level in range(2, lm_levels(snap.hierarchy) + 1):
            srv = snap.assignment.server_of(d, level)
            if srv is None:
                continue
            packets += self._send(d, srv, level, snap, delivery)
        return packets

    def _send(self, u: int, v: int, level: int, snap, delivery) -> int:
        hops = max(snap.hop_fn(u, v), 0)
        if delivery is None:
            return hops
        return delivery.send(hops, level=level).packets

    # -- GLS scheme ----------------------------------------------------------------

    def _observe_gls(self, snap) -> None:
        """Advance the side-car Grid Location Service to this snapshot
        (its own maintenance is not charged to service requests)."""
        if self._gls is None:
            from repro.geometry.region import SquareRegion
            from repro.gls import GridHierarchy, GridLocationService

            disc = self.sc.region
            square = SquareRegion(side=disc.diameter,
                                  origin=disc.center - disc.radius)
            grid = GridHierarchy.for_region(square, l=2.0 * self.sc.r_tx)
            self._gls = GridLocationService(grid=grid,
                                            node_ids=np.arange(self.sc.n))
        self._gls.observe(snap.positions, snap.hop_fn)

    def _gls_lookup(self, s: int, d: int, snap, delivery) -> tuple[int, bool]:
        """GLS resolution: the grid query's packet charge routed (as one
        round trip) through the request's lossy channel."""
        cost = self._gls.query_cost(s, d, snap.positions, snap.hop_fn)
        if cost < 0:
            return 0, False
        if delivery is None:
            return cost, True
        out = delivery.send(cost)
        return out.packets, out.delivered
