"""ALCA cluster state machine (Fig. 3) and its statistics.

The ALCA state of a level-k node is the number of its level-k neighbors
that currently elect it as clusterhead.  Fig. 3 of the paper models this
as a birth-death chain where, in continuous time, only adjacent-state
transitions occur; states 0 and 1 are *critical* — clusterhead status can
only change while crossing the 0 <-> 1 boundary.

:class:`StateTracker` consumes every level's
:class:`~repro.clustering.lca.Election` once per simulation step and
accumulates, per level:

* state occupancy histogram (time-weighted),
* transition magnitude histogram — the empirical check that, as dt -> 0,
  transitions concentrate on |delta| <= 1,
* the paper's p_j estimate (Eq. 18 context): probability that a level-j
  node is in state exactly 1.

Section 5.3.2 leaves "actual quantification of q_1 via simulation" as
future work; :func:`recursion_quantities` computes q_j, Q, P and the
q_1/Q lower bound of Eqs. (15)-(21) from measured p_j vectors, and the
EXP-F3 experiment drives it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.clustering.lca import Election

__all__ = ["StateTracker", "StateStats", "recursion_quantities", "RecursionQuantities"]


@dataclass(frozen=True)
class StateStats:
    """Aggregated ALCA state statistics for one hierarchy level."""

    occupancy: dict[int, float]
    """Fraction of node-steps spent in each state."""

    transition_histogram: dict[int, int]
    """Counts of per-step state changes keyed by |delta|."""

    p_state1: float
    """Empirical p_j: fraction of node-steps in state exactly 1."""

    p_state1_heads: float
    """p restricted to elected (state >= 1) nodes."""

    adjacent_fraction: float
    """Fraction of non-zero transitions with |delta| == 1."""

    critical_crossings: int
    """Number of 0 <-> 1 boundary crossings (status changes)."""

    samples: int
    """Total node-step samples."""


class StateTracker:
    """Accumulates every level's ALCA state statistics across hierarchy
    snapshots, all levels at a time.

    :meth:`observe` takes one snapshot's elections, level by level.  A
    snapshot costs one ``bincount`` over (level, state) for occupancy,
    one sorted match of level-tagged node IDs against the previous
    snapshot, and one ``bincount`` each for the |delta| histogram and the
    critical crossings.  The tracker is robust to node churn: only nodes
    present at the same level in *both* snapshots contribute transitions,
    while occupancy counts every present node.  Transitions are only
    counted between consecutive snapshots: a level missing from one (the
    hierarchy's depth dipped for a step) starts afresh when it returns.
    """

    def __init__(self):
        self._occ = np.zeros((0, 0), dtype=np.int64)    # [level, state]
        self._trans = np.zeros((0, 0), dtype=np.int64)  # [level, |delta|]
        self._critical = np.zeros(0, dtype=np.int64)   # [level]
        self._prev: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def samples(self) -> int:
        """Total node-step samples observed so far, over every level."""
        return int(self._occ.sum())

    def observe(self, elections: Sequence[Election]) -> None:
        """Record one snapshot: ``elections[k]`` is level k's election."""
        if not elections:
            self._prev = None
            return
        sizes = [e.node_ids.size for e in elections]
        level = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        ids = np.concatenate([e.node_ids for e in elections])
        states = np.concatenate([e.elector_count for e in elections])
        self._occ = _add(self._occ, _histogram(level, states))
        if self._prev is not None:
            p_level, p_ids, p_states = self._prev
            # (level, id) keys: ascending, since each level's IDs are.
            lo = min(int(ids.min()), int(p_ids.min()))
            span = max(int(ids.max()), int(p_ids.max())) - lo + 1
            p_keys = p_level * span + (p_ids - lo)
            keys = level * span + (ids - lo)
            pos = np.minimum(np.searchsorted(p_keys, keys), p_keys.size - 1)
            hit = p_keys[pos] == keys
            before, after = p_states[pos[hit]], states[hit]
            lv = level[hit]
            self._trans = _add(self._trans,
                               _histogram(lv, np.abs(after - before)))
            self._critical = _add(self._critical, np.bincount(
                lv[(before == 0) != (after == 0)]))
        self._prev = (level, ids, states)

    def stats(self) -> dict[int, StateStats]:
        """Finalize the aggregate statistics of every level with
        samples."""
        if self.samples == 0:
            raise ValueError("no observations recorded")
        out = {}
        for k, occ in enumerate(self._occ.tolist()):
            samples = sum(occ)
            if not samples:
                continue
            trans = self._trans[k].tolist() if k < len(self._trans) else []
            critical = self._critical[k] if k < len(self._critical) else 0
            moves = sum(trans[1:])
            out[k] = StateStats(
                occupancy={s: c / samples for s, c in enumerate(occ) if c},
                transition_histogram={d: c for d, c in enumerate(trans) if c},
                p_state1=occ[1] / samples if len(occ) > 1 else 0.0,
                p_state1_heads=(
                    occ[1] / sum(occ[1:]) if sum(occ[1:]) else 0.0
                ),
                adjacent_fraction=trans[1] / moves if moves else 1.0,
                critical_crossings=int(critical),
                samples=samples,
            )
        return out


def _histogram(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Counts of the ``(rows[i], cols[i])`` pairs as a 2-D array."""
    if rows.size == 0:
        return np.zeros((0, 0), dtype=np.int64)
    shape = (int(rows.max()) + 1, int(cols.max()) + 1)
    return np.bincount(rows * shape[1] + cols,
                       minlength=shape[0] * shape[1]).reshape(shape)


def _add(acc: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``acc + counts``, both zero-padded to the larger shape (``acc``
    is updated in place when it is large enough)."""
    shape = tuple(np.maximum(acc.shape, counts.shape))
    if shape != acc.shape:
        grown = np.zeros(shape, dtype=np.int64)
        grown[tuple(map(slice, acc.shape))] = acc
        acc = grown
    acc[tuple(map(slice, counts.shape))] += counts
    return acc


@dataclass(frozen=True)
class RecursionQuantities:
    """Eqs. (15)-(21): recursive-rejection chain quantities at level k."""

    k: int
    p: float  # Eq. (18): max over p_1..p_{k-1}
    q: np.ndarray  # Eq. (15a): q_j for j = 1..k-1
    Q: float  # Eq. (15b)
    P: float  # Eq. (21a): p^2 + q_1 (upper bound on Q)
    q1_over_Q: float
    q1_over_Q_lower_bound: float  # Eq. (21b): q_1 / (p^2 + q_1)


def recursion_quantities(p_levels, k: int) -> RecursionQuantities:
    """Evaluate the recursive-rejection bound chain for level ``k``.

    Parameters
    ----------
    p_levels:
        Sequence where ``p_levels[j]`` is the measured p_j (probability
        that a level-j node is in ALCA state 1) for j = 0..k-1 at least.
        Note Eq. (15a) consumes ``p_{k-1}, ..., p_1``.
    k:
        Hierarchy level under analysis; must be >= 2 so the recursion has
        at least one stage.
    """
    p_arr = np.asarray(p_levels, dtype=np.float64)
    if k < 2:
        raise ValueError("recursion analysis requires k >= 2")
    if p_arr.size < k:
        raise ValueError(f"need p_j for j=0..{k - 1}, got {p_arr.size} values")
    if np.any((p_arr < 0) | (p_arr > 1)):
        raise ValueError("probabilities must lie in [0, 1]")

    # Eq. (15a): q_j = (1 - p_{k-j-1}) * prod_{i=1..j} p_{k-i} for j < k-1,
    # and q_{k-1} = prod_{i=1..k-1} p_{k-i}.
    q = np.empty(k - 1, dtype=np.float64)
    for j in range(1, k):
        prod = float(np.prod(p_arr[[k - i for i in range(1, j + 1)]]))
        if j <= k - 2:
            q[j - 1] = (1.0 - p_arr[k - j - 1]) * prod
        else:
            q[j - 1] = prod
    Q = float(q.sum())
    p = float(p_arr[1:k].max()) if k >= 2 else 0.0  # Eq. (18): p_1..p_{k-1}
    q1 = float(q[0])
    P = p**2 + q1  # Eq. (21a)
    return RecursionQuantities(
        k=k,
        p=p,
        q=q,
        Q=Q,
        P=P,
        q1_over_Q=(q1 / Q) if Q > 0 else 1.0,
        q1_over_Q_lower_bound=(q1 / P) if P > 0 else 1.0,
    )
