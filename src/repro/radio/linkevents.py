"""Link state change detection between topology snapshots.

Equation (4) of the paper defines f_0, the per-node frequency of level-0
link state change events, and argues it is Theta(1) under fixed density:
links live Theta(R_tx / mu) seconds, and each node has Theta(1) of them.
:class:`LinkDiff` holds one step's links that appeared (ups) and
disappeared (downs); the simulator's link collector
(:class:`~repro.sim.collectors.LinkEventCollector`) sums their counts
into this quantity.

The simulator builds a fresh unit-disk graph every step and runs
:func:`link_diff` once per step against the edges the previous
hierarchy was built on.  Level-0 keys are ``u * n + v``; the hierarchy
diff (:func:`repro.core.events.diff_hierarchies`) builds level-tagged
keys of every cluster level at once.  Both diff their two ascending key
runs with :func:`sorted_key_diff`, one merge of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.radio.unit_disk import encode_edges

__all__ = ["LinkDiff", "link_diff", "sorted_key_diff"]


@dataclass
class LinkDiff:
    """Result of one snapshot comparison."""

    ups: np.ndarray  # (k, 2) edges that appeared
    downs: np.ndarray  # (m, 2) edges that disappeared

    @property
    def n_events(self) -> int:
        """Total link state change events (ups + downs)."""
        return int(len(self.ups) + len(self.downs))


def sorted_key_diff(keys: np.ndarray, split: int):
    """``(appeared, vanished)`` between two key sets held in one int64
    array, ``keys[:split]`` before and ``keys[split:]`` after: positions
    in ``after`` of the keys ``before`` lacks and positions in
    ``before`` of the keys ``after`` lacks, each in ascending key order.

    Each half must be strictly ascending, with keys in ``[0, 2**62)``;
    ``keys`` is overwritten.  Each key is shifted up one bit and its
    side (0 before, 1 after) put in the freed lowest bit, so one stable
    sort merges the two ascending runs in linear time: a key both sides
    hold lands as two neighbours, and the keys left alone are the
    changes.  A lone key's position in its own side is the number of
    pairs before it in the merge (each holds one key of its side) plus
    the number of lone keys of its side before it.
    """
    keys <<= 1
    keys[split:] |= 1
    keys.sort(kind="stable")
    # The side bits, cast chunk by chunk: no second int64 array.
    side = np.empty(keys.size, dtype=np.uint8)
    np.bitwise_and(keys, 1, out=side, casting="unsafe")
    keys >>= 1
    twin = keys[1:] == keys[:-1]
    single = np.ones(keys.size, dtype=bool)
    single[1:] &= ~twin
    single[:-1] &= ~twin
    at = single.nonzero()[0]
    new = side[at].view(bool)
    at -= np.arange(at.size)
    at >>= 1  # pairs before each lone key
    appeared, vanished = at[new], at[~new]
    appeared += np.arange(appeared.size)
    vanished += np.arange(vanished.size)
    return appeared, vanished


def link_diff(before: np.ndarray, after: np.ndarray, n: int) -> LinkDiff:
    """The :class:`LinkDiff` from one canonical edge array of nodes
    ``0..n-1`` to the next (rows ``u < v``, lexicographically ascending,
    as :func:`~repro.radio.unit_disk.unit_disk_edges` emits them).  The
    rows come out in that order too."""
    keys = encode_edges(np.concatenate((before, after)), n)
    up, down = sorted_key_diff(keys, before.shape[0])
    # Rows gathered by index: a boolean mask over (m, 2) rows is slower.
    return LinkDiff(ups=after[up], downs=before[down])
