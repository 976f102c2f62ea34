"""CHLM hash functions (Section 3.2).

The paper requires an LM hash with two properties: *unambiguous* server
selection (every node computing the hash over the same candidate set gets
the same answer) and *equitable* load distribution.  It explicitly warns
that the GLS rule of Eq. (5) — circular ID successor — fails equity when
the candidate set is small (cluster IDs at a given level): candidates
following a large ID gap absorb a disproportionate share of subjects.
"The specific implementation is not crucial" as long as both goals hold,
so this reproduction uses a rendezvous (highest-random-weight) hash built
on a SplitMix64 mixer: deterministic, uniform, and O(#candidates) per
selection.  EXP-T7 measures both hashes' load skew.
"""

from __future__ import annotations

import numpy as np

from repro.gls.servers import select_server

__all__ = ["mix64", "rendezvous_choice", "naive_circular_choice", "HASH_REGISTRY"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SALT_CAND = np.uint64(0xC2B2AE3D27D4EB4F)


_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix_steps(v):
    """The mixer proper, in place on an array (a numpy scalar, being
    immutable, is rebound instead)."""
    v ^= v >> _SHIFT1
    v *= _MIX1
    v ^= v >> _SHIFT2
    v *= _MIX2
    v ^= v >> _SHIFT3
    return v


def mix64(x, out=None) -> np.ndarray:
    """SplitMix64 finalizer: a fast, well-distributed 64-bit mixer.

    Accepts scalars or arrays; computes in uint64 with wraparound.
    ``out`` is an optional uint64 array that receives the result; it may
    be ``x`` itself, which is then mixed in place (the shifted copies
    are the only temporaries).
    """
    if out is None:
        # A private copy to mix; `[()]` turns a 0-d one into a numpy
        # scalar, several times faster to operate on — and only scalars
        # warn about the wraparound.
        with np.errstate(over="ignore"):
            return _mix_steps(np.array(x, dtype=np.uint64)[()])
    if out is not x:
        out[...] = x
    return _mix_steps(out)


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
            np.uint64(np.uint64(subject) * _GOLDEN)
            ^ mix64(np.uint64(salt))
            ^ (cand.astype(np.uint64) * _SALT_CAND)
        )
    weights = mix64(key)
    best = int(np.argmax(weights))
    # Deterministic tie-break on ID (ties are ~impossible with 64 bits,
    # but the selection must be a total order).
    ties = np.flatnonzero(weights == weights[best])
    if ties.size > 1:
        best = int(ties[np.argmax(cand[ties])])
    return int(cand[best])


def naive_circular_choice(subject: int, salt: int, candidates, modulus: int = 1 << 20) -> int | None:
    """The Eq. (5) rule applied verbatim to a candidate set.

    Kept as the *negative control* for EXP-T7: on small, gappy candidate
    sets (cluster IDs) this skews server load badly, which is exactly why
    the paper says CHLM needs "a slightly more complex hashing function".
    ``salt`` is ignored — Eq. (5) has no per-stage salt, which is part of
    the problem.

    When the only candidate is the subject itself (a singleton cluster),
    the node serves its own entry.
    """
    del salt
    chosen = select_server(subject, candidates, modulus)
    if chosen is not None:
        return chosen
    cand = list(candidates)
    return int(cand[0]) if cand else None


HASH_REGISTRY = {
    "rendezvous": rendezvous_choice,
    "naive": naive_circular_choice,
}
