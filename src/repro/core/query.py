"""CHLM location queries.

A requester ``s`` resolving target ``d`` climbs its own cluster
hierarchy: at each level k = 2, 3, ..., it computes — purely from the
hash and the internal hierarchy of *its own* level-k cluster — the node
that *would be* d's level-k server if d shared that cluster, and asks
it.  The probe hits at the lowest level m where s and d actually share a
cluster (the true server stores d's address); lower probes miss.

The returned cost is the sum of probe round-trips up to the hit; the
paper argues this is of the order of the s-d hop count and is absorbed
into the communication session it precedes (Section 6).

Lossy control plane (EXP-A10): pass ``delivery`` and each probe's round
trip is routed through the channel — an abandoned probe gets no reply
and the requester climbs to the next level.  Run against the handoff
engine's *effective* assignment, probes that land on a server whose
entry transfer was abandoned miss naturally (the hash's candidate is
not the actual holder), so stale state degrades queries without any
extra modeling.  Callers meter the expanding-ring fallback for queries
that fail outright (see :func:`repro.faults.expanding_ring_cost`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.servers import ServerAssignment, select_server
from repro.hierarchy.levels import ClusteredHierarchy

__all__ = ["QueryResult", "resolve"]

HopFn = Callable[[int, int], int]


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


def resolve(
    h: ClusteredHierarchy,
    assignment: ServerAssignment,
    s: int,
    d: int,
    hop_fn: HopFn,
    hash_fn="rendezvous",
    delivery=None,
) -> QueryResult:
    """Resolve ``d``'s hierarchical address on behalf of ``s``.

    ``assignment`` must be the current CHLM assignment for ``h`` (used
    to verify hits — the probed candidate is the real server exactly
    when the two nodes share the level-k cluster).  With ``delivery``
    set, probe round trips traverse the lossy channel: lost probes
    charge the packets actually transmitted and yield no answer.
    """
    if s == d:
        return QueryResult(
            requester=s, target=d, hit_level=0, server=None,
            address=h.address(d), packets=0, probes=0,
        )
    packets = 0
    probes = 0
    # Level 1: complete topology knowledge within the level-1 cluster —
    # no LM messaging needed (Section 3.2).
    if h.num_levels >= 1 and h.cluster_of(s, 1) == h.cluster_of(d, 1):
        return QueryResult(
            requester=s, target=d, hit_level=1, server=None,
            address=h.address(d), packets=0, probes=0,
        )
    from repro.core.servers import lm_levels

    for level in range(2, lm_levels(h) + 1):
        # Who would be d's level-k server inside *s's* level-k cluster?
        # select_server descends from cluster_of(subject, level); compute
        # it with s's cluster substituted by hashing d against s's
        # cluster tree.  At the virtual global level every node shares
        # the implicit whole-network cluster, so the probe is the true
        # server and the query always terminates there.
        candidate = _probe_server(h, s, d, level, hash_fn)
        if candidate is None:
            continue
        round_trip = 2 * max(hop_fn(s, candidate), 0)
        probes += 1
        if delivery is not None:
            out = delivery.send(round_trip, level=level)
            packets += out.packets
            if not out.delivered:
                continue  # probe (or its reply) lost: climb to next level
        else:
            packets += round_trip
        is_global = level == h.num_levels + 1
        if is_global or h.cluster_of(s, level) == h.cluster_of(d, level):
            # The probe landed on d's actual level-k server.
            actual = assignment.server_of(d, level)
            if actual == candidate:
                return QueryResult(
                    requester=s, target=d, hit_level=level, server=candidate,
                    address=h.address(d), packets=packets, probes=probes,
                )
    return QueryResult(
        requester=s, target=d, hit_level=-1, server=None,
        address=None, packets=packets, probes=probes,
    )


def _probe_server(h, s, d, level, hash_fn):
    """d's would-be level-``level`` server within s's level cluster."""
    from repro.core.servers import _resolve_hash, _stage_salt, select_server

    if level == h.num_levels + 1:
        # Global level: s's "cluster" is the whole network, so the probe
        # coincides with d's actual global server.
        return select_server(h, d, level, hash_fn)
    hfn = _resolve_hash(hash_fn)
    current = h.cluster_of(s, level)
    for depth in range(level, 0, -1):
        members = h.clusters(depth)[current]
        choice = hfn(d, _stage_salt(level, depth), members)
        if choice is None:
            return None
        current = int(choice)
    return current
