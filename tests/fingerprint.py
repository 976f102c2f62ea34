"""The one bit-identity fingerprint of a :class:`~repro.sim.metrics.SimResult`.

Every equivalence suite (profiled vs plain, lossy knobs inert, serial
vs parallel sweeps, production stepping vs the plain-edges /
full-reassignment oracle) asks the same question — *are these two
runs the same numbers?* — so they share one answer: :func:`fingerprint`
is the superset of the metered series each of them used to list
privately, and :func:`fingerprint_sha256` condenses it to the digest the
golden tests in ``tests/sim/test_golden_fingerprints.py`` pin.
"""

import hashlib

import numpy as np

from repro.core.events import EventKind
from repro.core.handoff import ABANDONED, EVENTS, RECOVERED, RETRANSMITTED

__all__ = ["fingerprint", "fingerprint_sha256"]


def _items(d):
    return tuple(sorted(d.items()))


def _state_stats(stats):
    """Per-level ALCA state statistics (p_j, occupancy, transition
    counts) as nested sorted tuples."""
    return tuple(
        (j, _items(s.occupancy), _items(s.transition_histogram),
         s.p_state1, s.p_state1_heads, s.adjacent_fraction,
         s.critical_crossings, s.samples)
        for j, s in sorted(stats.items())
    )


def fingerprint(res):
    """Every metered series of a ``SimResult`` as one hashable tuple.

    No tolerance anywhere: two fingerprints are equal iff every series,
    every per-level breakdown, every (i)-(vii) event count and every
    level's ALCA state statistics are bit-identical.
    """
    lg = res.ledger
    ls = res.level_series
    reorgs = lg.table()[EVENTS + 1:]
    flat = lg.flat().tolist()
    return (
        res.phi, res.gamma, res.f0, res.handoff_rate,
        res.mean_degree, res.giant_fraction, res.elapsed,
        _items(ls.link_events), _items(ls.drift_link_events),
        _items(ls.address_changes),
        tuple(res.h_network),
        tuple((k, tuple(v)) for k, v in sorted(res.h_levels.items())),
        _items(lg.phi_k()), _items(lg.gamma_k()), _items(lg.f_k()),
        tuple(sorted(
            ((kind.value, lvl), count)
            for kind, row in zip(tuple(EventKind)[1:], reorgs)
            for lvl, count in enumerate(row.tolist()) if count
        )),
        flat[RETRANSMITTED], flat[ABANDONED],
        flat[RECOVERED], lg.recovery_time_total,
        tuple(lg.stale_series),
        _state_stats(res.state_stats),
    )


def _plain(obj):
    """Numpy scalars to python ones, so ``repr`` does not depend on the
    numpy version's scalar formatting."""
    if isinstance(obj, tuple):
        return tuple(_plain(x) for x in obj)
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def fingerprint_sha256(res) -> str:
    """sha256 of the fingerprint's ``repr`` (floats print shortest
    round-trip, so equal digests mean equal bits)."""
    return hashlib.sha256(repr(_plain(fingerprint(res))).encode()).hexdigest()
