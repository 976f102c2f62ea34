"""Link state change detection between topology snapshots.

Equation (4) of the paper defines f_0, the per-node frequency of level-0
link state change events, and argues it is Theta(1) under fixed density:
links live Theta(R_tx / mu) seconds, and each node has Theta(1) of them.
:class:`LinkTracker` meters exactly this quantity: feed it the canonical
edge array after every mobility step and it reports links that appeared
(ups) and disappeared (downs).

Every link diff in the package is one merge of two ascending key
arrays (:func:`sorted_key_diff`): the two inputs are concatenated and
argsorted stably, which is a single linear merge of two sorted runs, and
keys seen once are the changes.  Level-0 keys are ``u * n + v``
(:func:`link_diff`, which the simulator runs once per step when the
Verlet cache has no diff to hand over); the hierarchy diff
(:func:`repro.core.events.diff_hierarchies`) feeds the same kernel
level-tagged keys of every cluster level at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.radio.unit_disk import decode_edges, encode_edges

__all__ = ["LinkDiff", "LinkTracker", "link_diff", "sorted_key_diff"]


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
    rows come out in that order too."""
    up, down = sorted_key_diff(encode_edges(before, n), encode_edges(after, n))
    return LinkDiff(ups=after[up], downs=before[down])


@dataclass
class LinkTracker:
    """Accumulates link up/down events across a run.

    Attributes
    ----------
    n:
        Node count (fixes the edge-key encoding).
    total_ups / total_downs:
        Cumulative event counts.
    per_node_events:
        Event count attributed to each endpoint (each event charges both
        endpoints once, matching the per-node accounting of Eq. (4)).
    """

    n: int
    total_ups: int = 0
    total_downs: int = 0
    steps: int = 0
    per_node_events: np.ndarray = field(default=None)  # type: ignore[assignment]
    _prev_keys: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("node count must be positive")
        if self.per_node_events is None:
            self.per_node_events = np.zeros(self.n, dtype=np.int64)

    def observe(self, edges: np.ndarray) -> LinkDiff:
        """Record a snapshot; return the diff against the previous one.

        The first observation establishes the baseline and reports an
        empty diff.  ``edges`` must be canonical — ``(u, v)`` rows with
        ``u < v``, strictly ascending — or ``ValueError`` is raised: the
        merge reads the keys as sorted sets.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        keys = encode_edges(edges, self.n)
        if (edges[:, 0] >= edges[:, 1]).any() or (keys[1:] <= keys[:-1]).any():
            raise ValueError("edges must be canonical: (u, v) rows with "
                             "u < v, strictly ascending")
        prev, self._prev_keys = self._prev_keys, keys
        if prev is None:
            empty = np.empty((0, 2), dtype=np.int64)
            return LinkDiff(ups=empty, downs=empty.copy())
        up, down = sorted_key_diff(prev, keys)
        diff = LinkDiff(ups=edges[up], downs=decode_edges(prev[down], self.n))
        self.record(diff)
        return diff

    def record(self, diff: LinkDiff) -> None:
        """Accumulate one step's already computed diff (what the
        simulator's link collector does with the step's
        :attr:`~repro.sim.snapshot.StepSnapshot.link_diff`)."""
        self.total_ups += len(diff.ups)
        self.total_downs += len(diff.downs)
        self.steps += 1
        if diff.n_events:
            ends = np.concatenate((diff.ups.ravel(), diff.downs.ravel()))
            self.per_node_events += np.bincount(ends, minlength=self.n)

    def events_per_node_per_second(self, elapsed: float) -> float:
        """Mean link change frequency per node — the measured f_0.

        ``elapsed`` is the simulated time spanned by the observed diffs
        (i.e. excluding the baseline snapshot).
        """
        if elapsed <= 0:
            raise ValueError("elapsed time must be positive")
        return float(self.per_node_events.mean() / elapsed)

    def reset(self) -> None:
        """Forget all state, including the baseline snapshot."""
        self.total_ups = 0
        self.total_downs = 0
        self.steps = 0
        self.per_node_events[:] = 0
        self._prev_keys = None
