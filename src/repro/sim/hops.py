"""Hop-count providers for packet metering.

Every overhead meter charges a transfer as the number of packet
transmissions along its route.  Two providers:

* :class:`BfsHops` — exact hop counts on the current unit-disk graph: a
  lazily filled matrix of BFS rows, computed by the bit-parallel sweep
  of :func:`repro.graphs.hop_rows` (about 1 ms for all pairs at
  n = 300; the honest meter for small/medium runs);
* :class:`EuclideanHops` — ``ceil(detour * distance / R_tx)``, the
  standard estimator for large sweeps.  It preserves the Theta(distance)
  scaling the paper's analysis depends on (h_k = Theta(sqrt(c_k))) at a
  fraction of the cost.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphs import SOURCE_BLOCK, CompactGraph, hop_dtype, hop_rows

__all__ = ["BfsHops", "EuclideanHops"]


class BfsHops:
    """Exact hop provider over one topology snapshot.

    Owns the snapshot's BFS rows as one compact integer matrix, filled
    when first asked: every row at once while the whole graph fits one
    sweep of :data:`~repro.graphs.SOURCE_BLOCK` sources (a sweep costs
    the same for one source as for all of them), otherwise the rows of
    the sources a call names and does not hold yet.  A snapshot nobody
    queries runs no BFS.
    """

    def __init__(self, g: CompactGraph):
        self._g = g
        self._rows = np.empty((0, g.n), dtype=hop_dtype(g.n))
        # Row of ``_rows`` holding each source index; -1 = not held.
        self._row_of = np.full(g.n, -1, dtype=np.int64)

    def _held(self, ui: np.ndarray) -> np.ndarray:
        """Rows of ``_rows`` for source indices ``ui``, computed first
        where missing."""
        at = self._row_of[ui]
        if at.size and at.min() < 0:
            n = self._g.n
            absent = self._row_of < 0
            missing = (np.flatnonzero(absent) if n <= SOURCE_BLOCK
                       else np.unique(ui[at < 0]))
            held = n - np.count_nonzero(absent)
            top = held + missing.size
            if top > len(self._rows):
                # Grow geometrically: scalar callers add a row at a time.
                grown = np.empty((min(n, max(top, 2 * held)), n),
                                 dtype=self._rows.dtype)
                grown[:held] = self._rows[:held]
                self._rows = grown
            self._rows[held:top] = hop_rows(self._g, missing)
            self._row_of[missing] = np.arange(held, top)
            at = self._row_of[ui]
        return at

    def __call__(self, u: int, v: int) -> int:
        """Hop count u -> v; -1 when unreachable (caller clamps)."""
        return int(self.batch([u], [v])[0])

    def batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized hop counts for aligned ID arrays: exact BFS
        distances, -1 when unreachable, ``KeyError`` for an ID the
        snapshot does not have (also when ``u == v``)."""
        ui = self._g.index_of_many(us)
        vi = self._g.index_of_many(vs)
        at = self._held(ui)  # may replace ``_rows``: look it up after
        return self._rows[at, vi].astype(np.int64)


class EuclideanHops:
    """Distance-proportional hop estimator over one position snapshot."""

    def __init__(self, positions: np.ndarray, r_tx: float, detour: float = 1.3):
        if r_tx <= 0:
            raise ValueError("transmission radius must be positive")
        if detour < 1.0:
            raise ValueError("detour factor must be >= 1")
        self._pts = np.asarray(positions, dtype=np.float64)
        self._r = float(r_tx)
        self._detour = float(detour)

    def __call__(self, u: int, v: int) -> int:
        """:meth:`batch` for one pair, in Python floats: the same IEEE
        operations in the same order, so the same count.  (A BLAS dot,
        as in ``np.linalg.norm``, may fuse the multiply-add and round
        once, which moves ``ceil`` for pairs a whole number of hops
        apart.)"""
        if u == v:
            return 0
        (xu, yu), (xv, yv) = self._pts[u].tolist(), self._pts[v].tolist()
        dx, dy = xu - xv, yu - yv
        d = math.sqrt(dx * dx + dy * dy)
        return max(math.ceil(self._detour * d / self._r), 1)

    def batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized estimator for aligned ID arrays.

        ``sqrt(dx*dx + dy*dy)``, ``* detour``, ``/ r_tx``, ``ceil``,
        ``max 1`` is the scalar call's IEEE operation sequence, so the
        results are bit-identical, not merely close.  It runs in place
        over two work arrays, ``d`` and ``w``, so a call holds about
        three pair-sized arrays at once rather than ten.  Integer ID
        arrays of any width index the positions as they are."""
        us, vs = np.asarray(us), np.asarray(vs)
        pts = self._pts
        d = pts[us, 0]
        d -= pts[vs, 0]
        d *= d
        w = pts[us, 1]
        w -= pts[vs, 1]
        w *= w
        d += w
        np.sqrt(d, out=d)
        d *= self._detour
        d /= self._r
        np.ceil(d, out=d)
        np.maximum(d, 1.0, out=d)
        hops = d.astype(np.int64)
        hops[us == vs] = 0
        return hops
