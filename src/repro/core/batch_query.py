"""CHLM location queries, resolved in batches.

A requester ``s`` resolving target ``d`` climbs its own cluster
hierarchy: at each level k = 2, 3, ..., it computes — purely from the
hash and the internal hierarchy of *its own* level-k cluster — the node
that *would be* d's level-k server if d shared that cluster, and asks
it.  The probe hits at the lowest level m where s and d actually share a
cluster (the true server stores d's address); lower probes miss.  The
cost is the sum of probe round trips up to the hit; the paper argues
this is of the order of the s-d hop count and is absorbed into the
communication session it precedes (Section 6).

Every query of a batch climbs at once: the descent is the rendezvous
stage kernel :func:`repro.core.servers.full_assignment` runs, the hit
test is an equality against the assignment table, and the round-trip
charge is a batched hop count.

* :class:`BatchResolver` reads the per-level server tables of a
  :class:`~repro.core.servers.ServerAssignment` (dense int64 columns
  indexed by base-node position, ``-1`` = no entry) and resolves whole
  int64 ``src``/``dst`` arrays.
* :meth:`BatchResolver.resolve` is the lossless path, with early exit
  per level as queries hit.
* :meth:`BatchResolver.plans` precomputes *probe plans* — per-level
  candidate/round-trip/hit-eligibility tables — for lossy runs (EXP-A10):
  each request walks its plan through its own
  :class:`~repro.faults.DeliveryEngine`, an abandoned probe gets no reply
  and the requester climbs to the next level.  Against the handoff
  engine's *effective* assignment, probes that land on a server whose
  entry transfer was abandoned miss naturally, so stale state degrades
  queries without extra modeling.  Callers meter the expanding-ring
  fallback for queries that fail outright (see
  :func:`repro.faults.expanding_ring_cost`).

The per-query scalar climb is the reference oracle under the repo's
bit-identical-equivalence pattern: ``tests/core/descent_oracle.py``,
which ``tests/core/test_batch_query.py`` fuzzes this module against,
including stale/patched assignments, missing-server entries and the
lossy replay's RNG draw order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    "QueryResult",
    "BatchQueryResult",
    "BatchProbePlans",
    "BatchResolver",
    "resolve_batch",
]


def batch_hops(hop_fn, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Hop counts for aligned ID arrays, via the provider's vectorized
    ``batch`` method when it has one (BfsHops/EuclideanHops do), else a
    scalar fallback loop.  Returns raw counts (may be -1 = unreachable;
    callers clamp exactly like the scalar path).  Integer ID arrays of
    any width (int32 ones included) are passed on as they are."""
    us, vs = np.asarray(us), np.asarray(vs)
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
class QueryResult:
    """Outcome of one location query."""

    requester: int
    target: int
    hit_level: int
    """Lowest shared cluster level where the query resolved (0 when
    requester == target, -1 on failure)."""
    server: int | None
    """The server that answered (None on failure or trivial query)."""
    address: tuple[int, ...] | None
    """The resolved hierarchical address of the target."""
    packets: int
    """Total probe packets spent (round trips to each probed server)."""
    probes: int
    """Number of servers contacted."""


@dataclass(frozen=True)
class BatchQueryResult:
    """Array-of-structs outcome of one resolved batch.

    ``hit_level[i]`` follows :class:`QueryResult`'s convention (0
    trivial, 1 shared level-1 cluster, k >= 2 the probed hit level, -1
    failure); ``server`` uses -1 where :class:`QueryResult` has ``None``.
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
        """The :class:`QueryResult` view of query ``i``."""
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
        """All queries as :class:`QueryResult` views, in order."""
        return [self.result(i) for i in range(len(self))]


@dataclass(frozen=True)
class BatchProbePlans:
    """Precomputed probe tables for lossy per-request replay.

    Row ``i`` holds query i's full climb: for each LM level (column j,
    level ``levels[j]``) the hashed candidate server, the lossless
    round-trip charge, and whether a *delivered* probe terminates there
    (``hit_ok``: the two nodes share the level and the candidate is the
    actual assignment entry).  :meth:`walk` replays one request through
    a delivery engine, one send per level climbed.
    """

    requesters: np.ndarray
    targets: np.ndarray
    levels: np.ndarray
    candidate: np.ndarray
    round_trip: np.ndarray
    hit_ok: np.ndarray
    trivial: np.ndarray
    level1: np.ndarray

    def __len__(self) -> int:
        return int(self.trivial.size)

    def walk(self, i: int, delivery) -> tuple[int, int, int, int]:
        """Replay query ``i`` through ``delivery`` (None = lossless).

        Returns ``(packets, hit_level, server, probes)`` with server -1
        for None — the fields of :class:`QueryResult`, minus the address
        (callers that need it use the hierarchy)."""
        if self.trivial[i]:
            return 0, 0, -1, 0
        if self.level1[i]:
            return 0, 1, -1, 0
        packets = 0
        for j in range(self.levels.size):
            rt = int(self.round_trip[i, j])
            if delivery is None:
                packets += rt
            else:
                out = delivery.send(rt)
                packets += out.packets
                if not out.delivered:
                    continue
            if self.hit_ok[i, j]:
                return packets, int(self.levels[j]), int(self.candidate[i, j]), j + 1
        return packets, -1, -1, self.levels.size


class BatchResolver:
    """Vectorized CHLM resolution against one (hierarchy, assignment)
    snapshot.

    Construction cost is the per-level CSR cluster groupings (the
    server tables are the assignment's own columns, read in place);
    every subsequent :meth:`resolve`/:meth:`plans` call is array ops
    only."""

    def __init__(
        self,
        h: ClusteredHierarchy,
        assignment: ServerAssignment,
        hop_fn,
    ):
        self._h = h
        self._hop_fn = hop_fn
        self._top = lm_levels(h)
        self._base = h.levels[0].node_ids
        self._lazy = {
            depth: LazyClusters(h.levels[depth - 1].election)
            for depth in range(1, h.num_levels + 1)
        }
        if not np.array_equal(assignment.subjects, self._base):
            raise ValueError("assignment and hierarchy cover different nodes")
        # A stale assignment can lack a level the hierarchy has.
        absent = np.full(self._base.size, -1, dtype=np.int32)
        self._tables = {
            level: assignment.tables.get(level, absent)
            for level in range(2, self._top + 1)
        }

    def hops(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Raw batched hop counts (see :func:`batch_hops`)."""
        return batch_hops(self._hop_fn, us, vs)

    def _queries(self, src, dst):
        """The validated batch: ``(src, dst, idx_s, idx_d, trivial,
        level1)`` — base-node positions of both ends, the self-queries,
        and the other pairs sharing a level-1 cluster (complete topology
        is known inside it: no LM messaging, Section 3.2)."""
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src/dst must be aligned 1-D arrays")
        h = self._h
        idx_s, idx_d = h._base_index(src), h._base_index(dst)
        trivial = src == dst
        level1 = np.zeros(src.size, dtype=bool)
        if h.num_levels >= 1:
            anc1 = h.ancestry(1)
            level1 = ~trivial & (anc1[idx_s] == anc1[idx_d])
        return src, dst, idx_s, idx_d, trivial, level1

    def _probe(self, level, src, dst, idx_s, idx_d):
        """Every query's probe at one LM level: ``(candidate, round_trip,
        hit)``.  The candidate is d hashed down *s's* level-``level``
        cluster — at the virtual global level every node shares the
        whole network, so it is d's true server — and a delivered probe
        hits when the two share the cluster and the candidate is the
        assignment's entry."""
        h = self._h
        if level == h.num_levels + 1:
            current = _global_stage(h, dst, level,
                                    _vectorized_rendezvous_stage)
            shared = True
            start_depth = h.num_levels
        else:
            anc = h.ancestry(level)
            current = anc[idx_s]
            shared = current == anc[idx_d]
            start_depth = level
        for depth in range(start_depth, 0, -1):
            current = _vectorized_rendezvous_stage(
                dst, current, self._lazy[depth], _stage_salt(level, depth))
        round_trip = 2 * np.maximum(self.hops(src, current), 0)
        hit = shared & (self._tables[level][idx_d] == current)
        return current, round_trip, hit

    # -- lossless resolution ----------------------------------------------------

    def resolve(self, src, dst) -> BatchQueryResult:
        """Resolve the whole batch losslessly."""
        src, dst, idx_s, idx_d, trivial, level1 = self._queries(src, dst)
        q = src.size
        hit_level = np.full(q, -1, dtype=np.int64)
        server = np.full(q, -1, dtype=np.int64)
        packets = np.zeros(q, dtype=np.int64)
        probes = np.zeros(q, dtype=np.int64)
        hit_level[trivial] = 0
        hit_level[level1] = 1
        active = ~trivial & ~level1
        for level in range(2, self._top + 1):
            sub = np.flatnonzero(active)
            if sub.size == 0:
                break
            candidate, round_trip, hit = self._probe(
                level, src[sub], dst[sub], idx_s[sub], idx_d[sub])
            packets[sub] += round_trip
            probes[sub] += 1
            won = sub[hit]
            hit_level[won] = level
            server[won] = candidate[hit]
            active[won] = False
        return BatchQueryResult(
            requesters=src, targets=dst, hit_level=hit_level,
            server=server, packets=packets, probes=probes, _h=self._h,
        )

    # -- lossy probe plans ------------------------------------------------------

    def plans(self, src, dst) -> BatchProbePlans:
        """Precompute every query's full climb (no early exit — a lost
        probe climbs past its would-be hit level, so lossy replay needs
        all levels)."""
        src, dst, idx_s, idx_d, trivial, level1 = self._queries(src, dst)
        q = src.size
        levels = np.arange(2, self._top + 1, dtype=np.int64)
        candidate = np.full((q, levels.size), -1, dtype=np.int64)
        round_trip = np.zeros((q, levels.size), dtype=np.int64)
        hit_ok = np.zeros((q, levels.size), dtype=bool)
        sub = np.flatnonzero(~trivial & ~level1)
        for j, level in enumerate(levels.tolist()):
            candidate[sub, j], round_trip[sub, j], hit_ok[sub, j] = self._probe(
                level, src[sub], dst[sub], idx_s[sub], idx_d[sub])
        return BatchProbePlans(
            requesters=src, targets=dst, levels=levels, candidate=candidate,
            round_trip=round_trip, hit_ok=hit_ok,
            trivial=trivial, level1=level1,
        )


def resolve_batch(
    h: ClusteredHierarchy,
    assignment: ServerAssignment,
    src,
    dst,
    hop_fn,
) -> BatchQueryResult:
    """One-shot batched resolution (see :class:`BatchResolver`); use the
    resolver directly to amortize table construction across calls."""
    return BatchResolver(h, assignment, hop_fn).resolve(src, dst)
