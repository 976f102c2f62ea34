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
selection.  Candidate ``c`` of subject ``v`` at a stage salted ``s``
weighs ``mix64(v * _GOLDEN ^ mix64(s) ^ c * _SALT_CAND)`` (uint64
wraparound), and the heaviest candidate wins, ties to the largest ID.

Both hashes run as vectorized descent stages in :mod:`repro.core.servers`
(``hash_stage`` picks one by name); EXP-T7 measures their load skew.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mix64"]

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
