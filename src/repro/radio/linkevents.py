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
hierarchy was built on.  Level-0 keys are ``u * n + v``, and the links
that survive are found by one ``searchsorted`` of the new keys into the
old ones, so the diff holds the two key arrays and one array of
positions, not a merged copy of both.  The hierarchy diff
(:func:`repro.core.events.diff_hierarchies`) feeds level-tagged keys of
every cluster level at once to :func:`sorted_key_diff`, one merge of the
two ascending key arrays.
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


def sorted_key_diff(before: np.ndarray, after: np.ndarray):
    """``(appeared, vanished)``: positions in ``after`` of the keys
    ``before`` lacks and positions in ``before`` of the keys ``after``
    lacks, each in ascending key order.

    Both inputs must be strictly ascending int64 arrays.  The stable
    argsort of their concatenation merges the two runs in linear time,
    so one call replaces the two sort-based ``np.isin`` passes a pair
    of set differences costs.
    """
    both = np.concatenate((before, after))
    order = both.argsort(kind="stable")
    ranked = both[order]
    repeat = ranked[1:] == ranked[:-1]
    single = np.empty(both.size, dtype=bool)
    single[:1] = True
    single[1:] = ~repeat
    single[:-1] &= ~repeat
    at = order[single]
    vanished = at[at < before.size]
    return at[at >= before.size] - before.size, vanished


def link_diff(before: np.ndarray, after: np.ndarray, n: int) -> LinkDiff:
    """The :class:`LinkDiff` from one canonical edge array of nodes
    ``0..n-1`` to the next (rows ``u < v``, lexicographically ascending,
    as :func:`~repro.radio.unit_disk.unit_disk_edges` emits them).  The
    rows come out in that order too.

    Each new key is looked up among the old ones by one
    ``searchsorted``: a new key is an up unless it is found there, and
    an old key is a down unless some new key found it.
    """
    old = encode_edges(before, n)
    new = encode_edges(after, n)
    at = old.searchsorted(new)
    if old.size:
        # A key past the last old one clips onto it, which differs.
        found = old.take(at, mode="clip") == new
    else:
        found = np.zeros(new.size, dtype=bool)
    kept = np.zeros(old.size, dtype=bool)
    kept[at[found]] = True
    # Rows gathered by index: a boolean mask over (m, 2) rows is slower.
    return LinkDiff(ups=after[(~found).nonzero()[0]],
                    downs=before[(~kept).nonzero()[0]])
