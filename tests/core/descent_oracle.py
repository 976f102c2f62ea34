"""Per-key reference CHLM descent: the scalar hashes, server selection
and query climb.

Production runs one vectorized descent for both hashes
(:func:`repro.core.servers.hash_stage`): ``full_assignment``,
``patch_assignment`` and :class:`~repro.core.BatchResolver` hash a whole
depth's rows per kernel call.  This module is the loop they replaced,
kept as the oracle: one subject, one stage, one candidate list at a
time, straight from Section 3.2 and Eq. (5).  ``test_servers.py``,
``test_batch_query.py``, ``test_hashing.py`` and the front-end oracle
compare production against it exactly.  :func:`recorded_chains` is the
vectorized descent again, keeping every cell it consults: the record
``patch_assignment`` once stored and now reads back from the servers.

:func:`rendezvous_choice` reads :func:`repro.core.hashing.mix64` off the
module at every call, so a test that monkeypatches the mixer (to force
ties) changes the oracle and the kernels alike.
"""

from __future__ import annotations

import numpy as np

from repro.core import QueryResult, ServerAssignment, hashing, lm_levels
from repro.core.servers import (
    _global_stage,
    _stage_salt,
    _stage_salts,
    _vectorized_rendezvous_stage,
)
from repro.hierarchy.delta import LazyClusters
from repro.hierarchy.levels import ClusteredHierarchy


def eq5_successor(v: int, candidates, modulus: int) -> int | None:
    """Eq. (5) by a linear scan: the candidate z != v minimising
    ``(z - v) mod modulus``, or None when there is none."""
    cand = np.asarray(list(candidates), dtype=np.int64)
    d = np.mod(cand - v, modulus)
    d[d == 0] = modulus
    if cand.size == 0 or d.min() >= modulus:
        return None
    return int(cand[np.argmin(d)])


def assignment_from_mapping(servers, subjects=None) -> ServerAssignment:
    """A hand-made :class:`ServerAssignment` from a ``{(subject, level):
    server}`` mapping; ``subjects`` defaults to the keys'."""
    if subjects is None:
        subjects = sorted({subj for subj, _ in servers})
    subjects = np.asarray(subjects, dtype=np.int64)
    tables: dict[int, np.ndarray] = {}
    for (subj, level), srv in servers.items():
        table = tables.get(level)
        if table is None:
            table = tables[level] = np.full(subjects.size, -1, dtype=np.int64)
        table[np.searchsorted(subjects, subj)] = srv
    return ServerAssignment(subjects=subjects, tables=tables)


def server_map(assignment: ServerAssignment) -> dict[tuple[int, int], int]:
    """The ``{(subject, level): server}`` mapping of an assignment's
    entries (the inverse of :func:`assignment_from_mapping`)."""
    out: dict[tuple[int, int], int] = {}
    for level in sorted(assignment.tables):
        table = assignment.tables[level]
        idx = np.flatnonzero(table >= 0)
        for subj, srv in zip(assignment.subjects[idx].tolist(),
                             table[idx].tolist()):
            out[(subj, level)] = srv
    return out


def recorded_chains(h: ClusteredHierarchy) -> dict[int, dict[int, np.ndarray]]:
    """The rendezvous descent of every (subject, level), recording the
    cells it consults: ``chains[level][depth]`` is the per-subject array
    of the level-``depth`` cluster the level-``level`` descent entered
    at that depth (for the virtual global level, depth ``num_levels``
    holds the global stage's winner), and ``chains[level][0]`` the
    server.  The vectorized descent of ``full_assignment``, with every
    stage's input kept."""
    subjects = h.levels[0].node_ids
    num_levels = h.num_levels
    levels = range(2, lm_levels(h) + 1)
    chains: dict[int, dict[int, np.ndarray]] = {level: {} for level in levels}
    current: dict[int, np.ndarray] = {}
    if levels:
        current[num_levels + 1] = _global_stage(
            h, subjects, num_levels + 1, _vectorized_rendezvous_stage)
    for depth in range(num_levels, 0, -1):
        if depth >= 2:
            current[depth] = h.ancestry(depth)
        active = sorted(current)
        for level in active:
            chains[level][depth] = current[level]
        winners = _vectorized_rendezvous_stage(
            subjects, np.stack([current[level] for level in active]),
            LazyClusters(h.levels[depth - 1].election),
            _stage_salts(active, depth)[:, None],
        )
        current.update(zip(active, winners))
    for level in levels:
        chains[level][0] = current[level]
    return chains


def rendezvous_choice(subject: int, salt: int, candidates) -> int | None:
    """Highest-random-weight choice among ``candidates``.

    Every participant evaluating the same ``(subject, salt, candidates)``
    picks the same winner (unambiguous), and for uniform mixing each
    candidate wins with probability ~1/len(candidates) (equitable).
    ``salt`` varies per hierarchy level / descent stage so a subject's
    choices at different stages are independent.
    """
    cand = np.asarray(list(candidates), dtype=np.int64)
    if cand.size == 0:
        return None
    with np.errstate(over="ignore"):
        key = (
            np.uint64(np.uint64(subject) * hashing._GOLDEN)
            ^ hashing.mix64(np.uint64(salt))
            ^ (cand.astype(np.uint64) * hashing._SALT_CAND)
        )
    weights = hashing.mix64(key)
    best = int(np.argmax(weights))
    # Deterministic tie-break on ID (ties are ~impossible with 64 bits,
    # but the selection must be a total order).
    ties = np.flatnonzero(weights == weights[best])
    if ties.size > 1:
        best = int(ties[np.argmax(cand[ties])])
    return int(cand[best])


def naive_circular_choice(subject: int, salt: int, candidates,
                          modulus: int = 1 << 20) -> int | None:
    """The Eq. (5) rule applied verbatim to a candidate set.

    The *negative control* for EXP-T7: on small, gappy candidate sets
    (cluster IDs) it skews server load badly, which is exactly why the
    paper says CHLM needs "a slightly more complex hashing function".
    ``salt`` is ignored — Eq. (5) has no per-stage salt.  When the only
    candidate is the subject itself (a singleton cluster), the node
    serves its own entry.
    """
    del salt
    chosen = eq5_successor(subject, candidates, modulus)
    if chosen is not None:
        return chosen
    cand = list(candidates)
    return int(cand[0]) if cand else None


HASH_REGISTRY = {
    "rendezvous": rendezvous_choice,
    "naive": naive_circular_choice,
}


def _hash(hash_fn):
    try:
        return HASH_REGISTRY[hash_fn]
    except KeyError:
        known = ", ".join(sorted(HASH_REGISTRY))
        raise ValueError(f"unknown hash {hash_fn!r}; known: {known}") from None


def select_server(h: ClusteredHierarchy, subject: int, level: int,
                  hash_fn="rendezvous") -> int | None:
    """Level-``level`` LM server of ``subject`` under hierarchy ``h``.

    ``level`` ranges over 2..``lm_levels(h)``; the topmost value is the
    virtual global level.  Returns the chosen level-0 node ID, or None
    when the level does not exist for this hierarchy.
    """
    if level < 2:
        raise ValueError("CHLM places servers for levels >= 2 only")
    if level > lm_levels(h):
        return None
    if level == h.num_levels + 1:
        current = _hash(hash_fn)(subject, _stage_salt(level, level),
                                 h.levels[-1].node_ids)
        return _descend(h, subject, level, current, h.num_levels, hash_fn)
    return _descend(h, subject, level, h.cluster_of(subject, level), level,
                    hash_fn)


def _descend(h, subject, level, current, start_depth, hash_fn):
    """Hash ``subject`` down from the level-``start_depth`` cluster
    ``current`` to a level-0 node, one stage per depth."""
    hfn = _hash(hash_fn)
    for depth in range(start_depth, 0, -1):
        current = int(hfn(subject, _stage_salt(level, depth),
                          h.clusters(depth)[current]))
    return current


def _probe_server(h, s, d, level, hash_fn):
    """d's would-be level-``level`` server within s's level cluster."""
    if level == h.num_levels + 1:
        # Global level: s's "cluster" is the whole network, so the probe
        # coincides with d's actual global server.
        return select_server(h, d, level, hash_fn)
    return _descend(h, d, level, h.cluster_of(s, level), level, hash_fn)


def resolve(h: ClusteredHierarchy, assignment: ServerAssignment, s: int,
            d: int, hop_fn, hash_fn="rendezvous", delivery=None) -> QueryResult:
    """Resolve ``d``'s hierarchical address on behalf of ``s``, one probe
    at a time (see :mod:`repro.core.batch_query` for the protocol).

    With ``delivery`` set, probe round trips traverse the lossy channel:
    lost probes charge the packets actually transmitted and yield no
    answer, and the requester climbs to the next level.
    """
    if s == d:
        return QueryResult(requester=s, target=d, hit_level=0, server=None,
                           address=h.address(d), packets=0, probes=0)
    # Level 1: complete topology knowledge within the level-1 cluster.
    if h.num_levels >= 1 and h.cluster_of(s, 1) == h.cluster_of(d, 1):
        return QueryResult(requester=s, target=d, hit_level=1, server=None,
                           address=h.address(d), packets=0, probes=0)
    packets = probes = 0
    for level in range(2, lm_levels(h) + 1):
        candidate = _probe_server(h, s, d, level, hash_fn)
        round_trip = 2 * max(hop_fn(s, candidate), 0)
        probes += 1
        if delivery is not None:
            out = delivery.send(round_trip)
            packets += out.packets
            if not out.delivered:
                continue  # probe (or its reply) lost: climb to next level
        else:
            packets += round_trip
        is_global = level == h.num_levels + 1
        shared = is_global or h.cluster_of(s, level) == h.cluster_of(d, level)
        if shared and assignment.server_of(d, level) == candidate:
            return QueryResult(requester=s, target=d, hit_level=level,
                               server=candidate, address=h.address(d),
                               packets=packets, probes=probes)
    return QueryResult(requester=s, target=d, hit_level=-1, server=None,
                       address=None, packets=packets, probes=probes)
