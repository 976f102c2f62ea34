"""Vectorized CHLM location-query resolution.

:func:`repro.core.query.resolve` climbs one query at a time through
per-level hashed descents — fine for a few hundred queries per step,
hopeless for the service front-end's "millions of requests" regime
(ROADMAP).  The per-query work is pure table lookups: the descent is the
same grouped rendezvous stage :func:`repro.core.servers.full_assignment`
already vectorizes, the hit test is an equality against the assignment
table, and the round-trip charge is a hop count.  This module batches
all of it:

* :class:`BatchResolver` reads the per-level server tables of a
  :class:`~repro.core.servers.ServerAssignment` (dense int64 columns
  indexed by base-node position, ``-1`` = no entry) and resolves whole
  int64 ``src``/``dst`` arrays with dense-stage descents and
  batched hop lookups.
* :meth:`BatchResolver.resolve` is the lossless path: bit-identical to
  the scalar oracle (same packets, hit levels, servers, probe counts),
  with early exit per level as queries hit.
* :meth:`BatchResolver.plans` precomputes *probe plans* — per-level
  candidate/round-trip/hit-eligibility tables — so lossy runs keep their
  per-request :class:`~repro.faults.DeliveryEngine` draws (identical RNG
  consumption order) while all hashing and hop counting happens in
  batch.

The scalar ``resolve`` stays the reference oracle under the repo's
bit-identical-equivalence pattern (tests/core/test_batch_query.py fuzzes
the two against each other, including stale/patched assignments and
missing-server entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.query import QueryResult
from repro.core.servers import (
    ServerAssignment,
    _global_stage,
    _stage_salt,
    _vectorized_rendezvous_stage,
    lm_levels,
)
from repro.hierarchy.delta import LazyClusters
from repro.hierarchy.levels import ClusteredHierarchy

__all__ = [
    "BatchQueryResult",
    "BatchProbePlans",
    "BatchUpdatePlans",
    "BatchResolver",
    "resolve_batch",
]


def batch_hops(hop_fn, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Hop counts for aligned ID arrays, via the provider's vectorized
    ``batch`` method when it has one (BfsHops/EuclideanHops do), else a
    scalar fallback loop.  Returns raw counts (may be -1 = unreachable;
    callers clamp exactly like the scalar path)."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.size == 0:
        return np.empty(0, dtype=np.int64)
    batch = getattr(hop_fn, "batch", None)
    if batch is not None:
        return np.asarray(batch(us, vs), dtype=np.int64)
    return np.fromiter(
        (hop_fn(int(u), int(v)) for u, v in zip(us, vs)),
        dtype=np.int64,
        count=us.size,
    )


@dataclass(frozen=True)
class BatchQueryResult:
    """Array-of-structs outcome of one resolved batch.

    ``hit_level[i]`` follows the scalar convention (0 trivial, 1 shared
    level-1 cluster, k >= 2 the probed hit level, -1 failure); ``server``
    uses -1 where the scalar result has ``None``.
    """

    requesters: np.ndarray
    targets: np.ndarray
    hit_level: np.ndarray
    server: np.ndarray
    packets: np.ndarray
    probes: np.ndarray
    _h: ClusteredHierarchy = field(repr=False)

    def __len__(self) -> int:
        return int(self.hit_level.size)

    @property
    def hits(self) -> np.ndarray:
        """Boolean mask of queries that resolved (hit_level >= 0)."""
        return self.hit_level >= 0

    def result(self, i: int) -> QueryResult:
        """The scalar :class:`QueryResult` view of query ``i``."""
        level = int(self.hit_level[i])
        srv = int(self.server[i])
        d = int(self.targets[i])
        return QueryResult(
            requester=int(self.requesters[i]),
            target=d,
            hit_level=level,
            server=srv if srv >= 0 else None,
            address=self._h.address(d) if level >= 0 else None,
            packets=int(self.packets[i]),
            probes=int(self.probes[i]),
        )

    def results(self) -> list[QueryResult]:
        """All queries as scalar :class:`QueryResult` views, in order."""
        return [self.result(i) for i in range(len(self))]


@dataclass(frozen=True)
class BatchProbePlans:
    """Precomputed probe tables for lossy per-request replay.

    Row ``i`` holds query i's full climb: for each LM level (column j,
    level ``levels[j]``) the hashed candidate server, the lossless
    round-trip charge, whether the scalar path would probe at all
    (``probed``; False only for hash functions that can abstain), and
    whether a *delivered* probe terminates there (``hit_ok``: the two
    nodes share the level and the candidate is the actual assignment
    entry).  :meth:`walk` replays one request through a delivery engine
    with exactly the scalar ``resolve``'s send sequence.
    """

    requesters: np.ndarray
    targets: np.ndarray
    levels: np.ndarray
    candidate: np.ndarray
    round_trip: np.ndarray
    probed: np.ndarray
    hit_ok: np.ndarray
    trivial: np.ndarray
    level1: np.ndarray

    def __len__(self) -> int:
        return int(self.trivial.size)

    def walk(self, i: int, delivery) -> tuple[int, int, int, int]:
        """Replay query ``i`` through ``delivery`` (None = lossless).

        Returns ``(packets, hit_level, server, probes)`` with server -1
        for None — the exact fields of the scalar result, minus the
        address (callers that need it use the hierarchy)."""
        if self.trivial[i]:
            return 0, 0, -1, 0
        if self.level1[i]:
            return 0, 1, -1, 0
        packets = 0
        probes = 0
        for j in range(self.levels.size):
            if not self.probed[i, j]:
                continue
            probes += 1
            rt = int(self.round_trip[i, j])
            if delivery is None:
                packets += rt
            else:
                out = delivery.send(rt, level=int(self.levels[j]))
                packets += out.packets
                if not out.delivered:
                    continue
            if self.hit_ok[i, j]:
                return packets, int(self.levels[j]), int(self.candidate[i, j]), probes
        return packets, -1, -1, probes


@dataclass(frozen=True)
class BatchUpdatePlans:
    """Per-level re-registration plans for a batch of update targets.

    Column j is LM level ``levels[j]``; ``present`` marks targets that
    actually have a level-j server entry (stale assignments can lack
    some), ``hops`` the already-clamped message cost to it."""

    targets: np.ndarray
    levels: np.ndarray
    hops: np.ndarray
    present: np.ndarray

    def __len__(self) -> int:
        return int(self.targets.size)

    def costs(self) -> np.ndarray:
        """Lossless packet totals per target (sum of per-level sends)."""
        return np.where(self.present, self.hops, 0).sum(axis=1)

    def walk(self, i: int, delivery) -> int:
        """Replay target ``i``'s updates through a delivery engine,
        preserving the scalar send order (levels ascending)."""
        packets = 0
        for j in range(self.levels.size):
            if not self.present[i, j]:
                continue
            packets += delivery.send(
                int(self.hops[i, j]), level=int(self.levels[j])
            ).packets
        return packets


class BatchResolver:
    """Vectorized CHLM resolution against one (hierarchy, assignment)
    snapshot.

    Construction cost is the per-level CSR cluster groupings (the
    server tables are the assignment's own columns, read in place);
    every subsequent :meth:`resolve`/:meth:`plans` call is array ops
    only.  Non-rendezvous hash functions fall back to the scalar oracle
    per query (same results, no speedup)."""

    def __init__(
        self,
        h: ClusteredHierarchy,
        assignment: ServerAssignment,
        hop_fn,
        hash_fn="rendezvous",
    ):
        self._h = h
        self._assignment = assignment
        self._hop_fn = hop_fn
        self._hash_fn = hash_fn
        self._vectorized = hash_fn == "rendezvous"
        self._top = lm_levels(h)
        self._base = h.levels[0].node_ids
        self._lazy = {
            depth: LazyClusters(h.levels[depth - 1].election)
            for depth in range(1, h.num_levels + 1)
        }
        if not np.array_equal(assignment.subjects, self._base):
            raise ValueError("assignment and hierarchy cover different nodes")
        # A stale assignment can lack a level the hierarchy has.
        absent = np.full(self._base.size, -1, dtype=np.int64)
        self._tables = {
            level: assignment.tables.get(level, absent)
            for level in range(2, self._top + 1)
        }

    def hops(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Raw batched hop counts (see :func:`batch_hops`)."""
        return batch_hops(self._hop_fn, us, vs)

    def _descend(self, dsub: np.ndarray, idx_s_sub: np.ndarray, level: int) -> np.ndarray:
        """Candidate servers for a sub-batch at one LM level: d hashed
        down s's cluster tree (the scalar ``_probe_server``), grouped."""
        h = self._h
        if level == h.num_levels + 1:
            current = _global_stage(h, dsub, level)
            start_depth = h.num_levels
        else:
            current = h.ancestry(level)[idx_s_sub]
            start_depth = level
        for depth in range(start_depth, 0, -1):
            current = _vectorized_rendezvous_stage(
                dsub, current, self._lazy[depth], _stage_salt(level, depth)
            )
        return current

    # -- lossless resolution ----------------------------------------------------

    def resolve(self, src, dst) -> BatchQueryResult:
        """Resolve the whole batch losslessly; bit-identical to calling
        the scalar oracle per pair with ``delivery=None``."""
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src/dst must be aligned 1-D arrays")
        if not self._vectorized:
            return self._resolve_scalar(src, dst)
        h = self._h
        q = src.size
        hit_level = np.full(q, -1, dtype=np.int64)
        server = np.full(q, -1, dtype=np.int64)
        packets = np.zeros(q, dtype=np.int64)
        probes = np.zeros(q, dtype=np.int64)
        idx_s = h._base_index(src) if q else np.empty(0, dtype=np.int64)
        idx_d = h._base_index(dst) if q else np.empty(0, dtype=np.int64)
        trivial = src == dst
        hit_level[trivial] = 0
        active = ~trivial
        if h.num_levels >= 1:
            anc1 = h.ancestry(1)
            level1 = active & (anc1[idx_s] == anc1[idx_d])
            hit_level[level1] = 1
            active &= ~level1
        for level in range(2, self._top + 1):
            sub = np.flatnonzero(active)
            if sub.size == 0:
                break
            dsub = dst[sub]
            candidate = self._descend(dsub, idx_s[sub], level)
            rt = 2 * np.maximum(self.hops(src[sub], candidate), 0)
            packets[sub] += rt
            probes[sub] += 1
            if level == h.num_levels + 1:
                shared = np.ones(sub.size, dtype=bool)
            else:
                anc = h.ancestry(level)
                shared = anc[idx_s[sub]] == anc[idx_d[sub]]
            actual = self._tables[level][idx_d[sub]]
            hit = shared & (actual == candidate)
            won = sub[hit]
            hit_level[won] = level
            server[won] = candidate[hit]
            active[won] = False
        return BatchQueryResult(
            requesters=src, targets=dst, hit_level=hit_level,
            server=server, packets=packets, probes=probes, _h=h,
        )

    def _resolve_scalar(self, src: np.ndarray, dst: np.ndarray) -> BatchQueryResult:
        from repro.core.query import resolve

        q = src.size
        hit_level = np.full(q, -1, dtype=np.int64)
        server = np.full(q, -1, dtype=np.int64)
        packets = np.zeros(q, dtype=np.int64)
        probes = np.zeros(q, dtype=np.int64)
        for i in range(q):
            qr = resolve(
                self._h, self._assignment, int(src[i]), int(dst[i]),
                self._hop_fn, hash_fn=self._hash_fn,
            )
            hit_level[i] = qr.hit_level
            server[i] = -1 if qr.server is None else qr.server
            packets[i] = qr.packets
            probes[i] = qr.probes
        return BatchQueryResult(
            requesters=src, targets=dst, hit_level=hit_level,
            server=server, packets=packets, probes=probes, _h=self._h,
        )

    # -- lossy probe plans ------------------------------------------------------

    def plans(self, src, dst) -> BatchProbePlans:
        """Precompute every query's full climb (no early exit — a lost
        probe climbs past its would-be hit level, so lossy replay needs
        all levels)."""
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src/dst must be aligned 1-D arrays")
        h = self._h
        q = src.size
        levels = np.arange(2, self._top + 1, dtype=np.int64)
        nlev = levels.size
        candidate = np.full((q, nlev), -1, dtype=np.int64)
        round_trip = np.zeros((q, nlev), dtype=np.int64)
        probed = np.zeros((q, nlev), dtype=bool)
        hit_ok = np.zeros((q, nlev), dtype=bool)
        trivial = src == dst
        idx_s = h._base_index(src) if q else np.empty(0, dtype=np.int64)
        idx_d = h._base_index(dst) if q else np.empty(0, dtype=np.int64)
        level1 = np.zeros(q, dtype=bool)
        if h.num_levels >= 1:
            anc1 = h.ancestry(1)
            level1 = ~trivial & (anc1[idx_s] == anc1[idx_d])
        climbing = ~trivial & ~level1
        sub = np.flatnonzero(climbing)
        if sub.size:
            if self._vectorized:
                dsub = dst[sub]
                for j, level in enumerate(levels.tolist()):
                    cand = self._descend(dsub, idx_s[sub], level)
                    rt = 2 * np.maximum(self.hops(src[sub], cand), 0)
                    candidate[sub, j] = cand
                    round_trip[sub, j] = rt
                    probed[sub, j] = True
                    if level == h.num_levels + 1:
                        shared = np.ones(sub.size, dtype=bool)
                    else:
                        anc = h.ancestry(level)
                        shared = anc[idx_s[sub]] == anc[idx_d[sub]]
                    actual = self._tables[level][idx_d[sub]]
                    hit_ok[sub, j] = shared & (actual == cand)
            else:
                self._plans_scalar(
                    src, dst, sub, levels, candidate, round_trip, probed, hit_ok
                )
        return BatchProbePlans(
            requesters=src, targets=dst, levels=levels, candidate=candidate,
            round_trip=round_trip, probed=probed, hit_ok=hit_ok,
            trivial=trivial, level1=level1,
        )

    def _plans_scalar(
        self, src, dst, sub, levels, candidate, round_trip, probed, hit_ok
    ) -> None:
        from repro.core.query import _probe_server

        h = self._h
        for i in sub.tolist():
            s, d = int(src[i]), int(dst[i])
            for j, level in enumerate(levels.tolist()):
                cand = _probe_server(h, s, d, level, self._hash_fn)
                if cand is None:
                    continue
                probed[i, j] = True
                candidate[i, j] = cand
                round_trip[i, j] = 2 * max(self._hop_fn(s, cand), 0)
                is_global = level == h.num_levels + 1
                if is_global or h.cluster_of(s, level) == h.cluster_of(d, level):
                    hit_ok[i, j] = self._assignment.server_of(d, level) == cand

    # -- update (re-registration) plans -----------------------------------------

    def update_plans(self, targets) -> BatchUpdatePlans:
        """Per-level re-registration costs for a batch of subjects: one
        message from each target to each of its current servers."""
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        levels = np.arange(2, self._top + 1, dtype=np.int64)
        q = targets.size
        hops = np.zeros((q, levels.size), dtype=np.int64)
        present = np.zeros((q, levels.size), dtype=bool)
        idx = self._h._base_index(targets) if q else np.empty(0, dtype=np.int64)
        for j, level in enumerate(levels.tolist()):
            srv = self._tables[level][idx]
            m = srv >= 0
            present[:, j] = m
            if m.any():
                hops[m, j] = np.maximum(self.hops(targets[m], srv[m]), 0)
        return BatchUpdatePlans(
            targets=targets, levels=levels, hops=hops, present=present
        )


def resolve_batch(
    h: ClusteredHierarchy,
    assignment: ServerAssignment,
    src,
    dst,
    hop_fn,
    hash_fn="rendezvous",
) -> BatchQueryResult:
    """One-shot batched resolution (see :class:`BatchResolver`); use the
    resolver directly to amortize table construction across calls."""
    return BatchResolver(h, assignment, hop_fn, hash_fn).resolve(src, dst)
