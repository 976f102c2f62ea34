"""Verlet-style unit-disk edge maintenance.

The per-step unit-disk rebuild in the simulator is a *candidate search*:
almost all of its output is identical step over step because nodes move
a small fraction of R_tx per step.  :class:`VerletEdgeCache` applies the
classic molecular-dynamics Verlet-list trick:

* run the cell-grid search once over an **inflated** radius
  ``R_tx * (1 + SKIN)`` and keep that candidate pair list;
* each step, exact edges are the candidates within ``R_tx`` under the
  *current* positions — a single vectorized distance filter;
* rebuild the candidate list only when some node has drifted more than
  the margin ``SKIN * R_tx / 2`` from its position at build time.

**Exactness.**  A pair at true distance ``d <= R_tx`` today was at
distance ``<= d + 2 * drift <= R_tx * (1 + SKIN)`` at build time (two
triangle inequalities), so it is always in the candidate list — the
filter can never miss an edge.  The filter compares the same float64
squared distances the grid search does and keeps the candidate list's
canonical order (``u < v``, ascending keys), so the output array is
bit-identical
to a fresh :func:`~repro.radio.unit_disk.unit_disk_edges` call
(``tests/radio/test_edge_cache.py`` fuzzes this).

**Layout.**  The candidate list is held column-wise — the ``u`` and the
``v`` endpoints as two contiguous int32 arrays (node indices are below
2**31), half the bytes of int64 — and the filter reads the positions as
two contiguous coordinate arrays, so each of its four gathers is one
``take`` over one column (blockwise, see
:meth:`VerletEdgeCache._within`).  Kept edges and
:class:`LinkDiff` rows are gathered from the kept candidate indices into
a fresh C-contiguous int32 ``(m, 2)`` array, the dtype
:func:`~repro.radio.unit_disk.unit_disk_edges` returns.  Against row-wise
``(m, 2)`` pairs gathered from ``(n, 2)`` positions this is 50 -> 18 ms
per call over ~1 M candidates at n = 1e5.

**Regime.**  A list pays when it outlives the step that built it: with
per-step displacement ``s`` it lasts ``~SKIN * R_tx / (2 s)`` steps.
When a single step outruns the margin (the stock 5 m/s at ``dt = 1``)
an inflated list would be discarded unused, at the price of a grid
search over 2.25x the area of the plain one — so the cache measures it and
does the plain build instead (see :meth:`VerletEdgeCache.edges_with_diff`
and docs/PERFORMANCE.md).
"""

from __future__ import annotations

import numpy as np

from repro.radio.linkevents import LinkDiff
from repro.radio.unit_disk import unit_disk_edges

__all__ = ["VerletEdgeCache"]

SKIN = 0.5
"""Candidate-radius inflation: candidates within ``1.5 * r_tx``, margin
``0.25 * r_tx`` of drift.  Output is bit-identical for any positive
value; only the rebuild cadence moves."""

_FILTER_BLOCK = 1 << 17
"""Candidates the per-step filter reads per block (see ``_within``)."""


class VerletEdgeCache:
    """Maintains exact unit-disk edges from a skin-inflated candidate
    list, or from the plain grid build when lists do not last a step.

    Parameters
    ----------
    r_tx:
        Exact unit-disk radius.
    """

    def __init__(self, r_tx: float):
        if not r_tx > 0:  # also NaN, which no comparison would reject
            raise ValueError(f"r_tx must be positive, got {r_tx!r}")
        self._r = float(r_tx)
        self._ref: np.ndarray | None = None
        # Max drift against _ref as of the previous call (0 when that
        # call took the reference).
        self._drift = 0.0
        # (2, m) int32: the ``u`` column, then the ``v`` column ("Layout"
        # above).
        self._candidates: np.ndarray | None = None
        self._prev_keep: np.ndarray | None = None
        self.rebuilds = 0
        """Candidate-list (inflated grid search) rebuilds so far."""
        self.plain_builds = 0
        """Steps served by the plain ``unit_disk_edges`` build because
        one step's drift outran the margin."""

    def edges(self, positions: np.ndarray) -> np.ndarray:
        """Exact canonical unit-disk edges for ``positions``."""
        return self.edges_with_diff(positions)[0]

    def edges_with_diff(
        self, positions: np.ndarray
    ) -> tuple[np.ndarray, LinkDiff | None]:
        """Edges plus the exact :class:`LinkDiff` against the previous
        call's output — for free.

        The diff falls out of two boolean masks over one fixed
        candidate list: an edge appeared iff it is kept now but wasn't
        last step, and vice versa.  Candidates are canonical
        (lex-ordered, ``u < v``), so masked subsets come out in the
        same ascending-key order a sorted set difference of the two
        edge arrays would produce — consumers patching incremental
        state from the diff stay bit-identical to re-diffing.

        Returns ``None`` for the diff when there is no comparable
        previous step (first call, the candidate list was just rebuilt,
        or this step was a plain build): a rebuild swaps the mask's
        index space, so the caller must fall back to its own diffing
        for that step.

        Which build a step gets is decided from the drift the cache
        measures anyway.  The max drift grew by ``drift - previous
        drift`` since the last call, so some node moved at least that far
        in this one step; when that alone outruns the margin, a list
        built now would be discarded by the next such step, so the step
        takes the plain build and its positions become the reference.
        As soon as a one-step drift fits the margin again the inflated
        list is back.
        """
        pos = np.asarray(positions, dtype=np.float64)
        # Worst case: two nodes drifting toward each other, hence the
        # factor 2 against the skin margin.
        margin = SKIN * self._r / 2.0
        stale = self._ref is None or pos.shape != self._ref.shape
        if not stale:
            drift = float(np.sqrt(np.max(
                np.sum((pos - self._ref) ** 2, axis=1))))
            if drift - self._drift > margin:
                self._ref = pos.copy()
                self._drift = 0.0
                self._candidates = self._prev_keep = None
                self.plain_builds += 1
                return unit_disk_edges(pos, self._r), None
            stale = drift > margin or self._candidates is None
        if stale:
            drift = 0.0
            self._ref = pos.copy()
            self._candidates = np.ascontiguousarray(
                unit_disk_edges(pos, self._r * (1.0 + SKIN)).T)
            self._prev_keep = None
            self.rebuilds += 1
        self._drift = drift
        keep = self._within(pos)
        diff = None
        if self._prev_keep is not None:
            diff = LinkDiff(
                ups=self._pairs(keep & ~self._prev_keep),
                downs=self._pairs(self._prev_keep & ~keep),
            )
        self._prev_keep = keep
        return self._pairs(keep), diff

    def _within(self, pos: np.ndarray) -> np.ndarray:
        """Mask of the candidates within ``r_tx`` at ``pos``: float64
        ``dx * dx + dy * dy <= r * r``, the grid search's own comparison.

        The list goes through in blocks of ``_FILTER_BLOCK`` candidates,
        each block's int32 columns widened to intp for ``take`` (which
        would otherwise convert a whole column per gather): at n = 1e5
        this reads 1 M candidates in ~11.4 ms, against ~12.9 ms for one
        int64 pass, and holds no list-sized float temporaries."""
        u, v = self._candidates
        x = np.ascontiguousarray(pos[:, 0])
        y = np.ascontiguousarray(pos[:, 1])
        rr = self._r * self._r
        keep = np.empty(u.size, dtype=bool)
        for start in range(0, u.size, _FILTER_BLOCK):
            block = slice(start, start + _FILTER_BLOCK)
            i, j = u[block].astype(np.intp), v[block].astype(np.intp)
            dx = x.take(i)
            dx -= x.take(j)
            dy = y.take(i)
            dy -= y.take(j)
            dx *= dx
            dy *= dy
            dx += dy
            np.less_equal(dx, rr, out=keep[block])
        return keep

    def _pairs(self, mask: np.ndarray) -> np.ndarray:
        """The candidates selected by ``mask`` as a C-contiguous
        ``(k, 2)`` int32 edge array, in candidate order."""
        at = np.flatnonzero(mask)
        out = np.empty((at.size, 2), dtype=np.int32)
        out[:, 0] = self._candidates[0][at]
        out[:, 1] = self._candidates[1][at]
        return out
