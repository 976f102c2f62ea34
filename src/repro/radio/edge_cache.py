"""Verlet-style unit-disk edge maintenance.

The per-step k-d tree rebuild in the simulator is a *candidate search*:
almost all of its output is identical step over step because nodes move
a small fraction of R_tx per step.  :class:`VerletEdgeCache` applies the
classic molecular-dynamics Verlet-list trick:

* build the k-d tree once over an **inflated** radius
  ``R_tx * (1 + SKIN)`` and keep that candidate pair list;
* each step, exact edges are the candidates within ``R_tx`` under the
  *current* positions — a single vectorized distance filter;
* rebuild the candidate list only when some node has drifted more than
  the margin ``SKIN * R_tx / 2`` from its position at build time.

**Exactness.**  A pair at true distance ``d <= R_tx`` today was at
distance ``<= d + 2 * drift <= R_tx * (1 + SKIN)`` at build time (two
triangle inequalities), so it is always in the candidate list — the
filter can never miss an edge.  The filter compares the same float64
squared distances the k-d tree does and keeps the candidate list's
canonical order (``u < v``, ascending keys), so the output array is
bit-identical
to a fresh :func:`~repro.radio.unit_disk.unit_disk_edges` call
(``tests/radio/test_edge_cache.py`` fuzzes this).

**Regime.**  A list pays when it outlives the step that built it: with
per-step displacement ``s`` it lasts ``~SKIN * R_tx / (2 s)`` steps.
When a single step outruns the margin (the stock 5 m/s at ``dt = 1``)
an inflated list would be discarded unused, at the price of a k-d query
over 2.25x the area of the plain one — so the cache measures it and
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


class VerletEdgeCache:
    """Maintains exact unit-disk edges from a skin-inflated candidate
    list, or from the plain k-d build when lists do not last a step.

    Parameters
    ----------
    r_tx:
        Exact unit-disk radius.
    """

    def __init__(self, r_tx: float):
        if r_tx <= 0:
            raise ValueError("r_tx must be positive")
        self._r = float(r_tx)
        self._ref: np.ndarray | None = None
        # Max drift against _ref as of the previous call (0 when that
        # call took the reference).
        self._drift = 0.0
        self._candidates: np.ndarray | None = None
        self._prev_keep: np.ndarray | None = None
        self.rebuilds = 0
        """Candidate-list (inflated k-d tree) rebuilds so far."""
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
            self._candidates = unit_disk_edges(pos, self._r * (1.0 + SKIN))
            self._prev_keep = None
            self.rebuilds += 1
        self._drift = drift
        cand = self._candidates
        if cand.shape[0] == 0:
            return cand, None
        d = pos[cand[:, 0]] - pos[cand[:, 1]]
        keep = d[:, 0] ** 2 + d[:, 1] ** 2 <= self._r * self._r
        diff = None
        if self._prev_keep is not None:
            diff = LinkDiff(
                ups=cand[keep & ~self._prev_keep],
                downs=cand[self._prev_keep & ~keep],
            )
        self._prev_keep = keep
        return cand[keep], diff
