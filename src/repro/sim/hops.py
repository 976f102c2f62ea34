"""Hop-count providers for packet metering.

Every overhead meter charges a transfer as the number of packet
transmissions along its route.  Two providers:

* :class:`BfsHops` — exact hop counts on the current unit-disk graph
  (cached single-source BFS; the honest meter for small/medium runs);
* :class:`EuclideanHops` — ``ceil(detour * distance / R_tx)``, the
  standard estimator for large sweeps.  It preserves the Theta(distance)
  scaling the paper's analysis depends on (h_k = Theta(sqrt(c_k))) at a
  fraction of the cost.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import CompactGraph
from repro.routing.flat import FlatRouter

__all__ = ["BfsHops", "EuclideanHops"]


class BfsHops:
    """Exact hop provider over one topology snapshot."""

    def __init__(self, g: CompactGraph):
        self._router = FlatRouter(g)

    def __call__(self, u: int, v: int) -> int:
        """Hop count u -> v; -1 when unreachable (caller clamps)."""
        return self._router.hop_count(u, v)

    def batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized hop counts for aligned ID arrays.

        Groups by source, computes the uncached sources' BFS rows in one
        batched call, and indexes each cached row once — bit-identical to
        the scalar call (exact BFS distances, -1 when unreachable) and
        sharing the same per-source cache."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        out = np.empty(us.size, dtype=np.int64)
        if us.size == 0:
            return out
        vi = self._router.g.index_of_many(vs)
        order = np.argsort(us, kind="stable")
        uniq, starts = np.unique(us[order], return_index=True)
        uniq = uniq.tolist()
        self._router.prefetch(uniq)
        for s, grp in zip(uniq, np.split(order, starts[1:])):
            out[grp] = self._router.distances_from(s)[vi[grp]]
        return out


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
        if u == v:
            return 0
        d = float(np.linalg.norm(self._pts[u] - self._pts[v]))
        return max(int(np.ceil(self._detour * d / self._r)), 1)

    def batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized estimator for aligned ID arrays.

        ``sqrt(dx*dx + dy*dy)`` runs the identical IEEE operation
        sequence as the scalar ``np.linalg.norm`` on a 2-vector, so the
        results are bit-identical, not merely close."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        pu = self._pts[us]
        pv = self._pts[vs]
        dx = pu[:, 0] - pv[:, 0]
        dy = pu[:, 1] - pv[:, 1]
        dist = np.sqrt(dx * dx + dy * dy)
        hops = np.maximum(
            np.ceil(self._detour * dist / self._r), 1.0
        ).astype(np.int64)
        hops[us == vs] = 0
        return hops
