"""Unit-disk transmission model (Section 1.2 of the paper).

A bidirectional link exists between u and v iff their Euclidean distance
is at most the transmission radius ``r_tx``.  Neighbor discovery is the
single hottest operation of the simulator, so edges come from an exact
cell grid in numpy (:func:`unit_disk_edges`, O(n + candidates)): points
are binned into square cells of side just above ``r_tx``, each point is
paired with the later points of its own cell and with the points of its
four forward neighbour cells, and a pair is kept iff its float64 squared
distance is at most ``r_tx ** 2``.  The kept pairs are put in canonical
order by one sort of their scalar keys and exposed as a raw ``(m, 2)``
int array; graph algorithms run on :class:`~repro.graphs.CompactGraph`.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.geometry.points import as_points

PAIR_CHUNK = 1 << 15
"""Candidate pairs one pass of the distance filter holds, plus at most
one point's own: about 1.5 MiB of temporaries however many points a
call names."""

_BIAS = float(1 << 30)
"""Added to every scaled coordinate, so cell numbers are positive and
truncation is ``floor``; scaled coordinates stay within ``±2**29``."""

# A cell key is one int64 over the two int32 cell numbers: the one in
# the high half is the major axis, the other the minor axis (which is
# which depends on the byte order and does not matter: the search below
# is symmetric).  Past the key of a point's cell (major M, minor m):
# ``+2`` ends cell (M, m + 1); ``2**32 - 1`` and ``2**32 + 2`` bound
# cells (M + 1, m - 1 .. m + 1).  Minor numbers are below 2**31, so
# m - 1 and m + 2 never reach another major row's occupied cells.
_FORWARD = np.array([2, (1 << 32) - 1, (1 << 32) + 2], dtype=np.int64)

_HIGH = int(sys.byteorder == "little")
"""Index of an int64's high int32 half in its two-element int32 view."""


def unit_disk_edges(positions, r_tx: float) -> np.ndarray:
    """Edge array of the unit-disk graph.

    Returns a C-contiguous ``(m, 2)`` int32 array of node-index pairs
    (indices are below 2**31) with
    ``u < v`` for every row, sorted lexicographically — a canonical form
    that makes snapshot diffs (link events) cheap.  An infinite
    ``r_tx`` links every pair.
    """
    pts = np.ascontiguousarray(as_points(positions))
    r = float(r_tx)
    if not r > 0:  # also NaN, which no comparison would reject
        raise ValueError(f"transmission radius must be positive, got {r_tx!r}")
    n = pts.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int32)
    # NaN when a coordinate is (np.maximum propagates it), inf when one is.
    ext = float(np.maximum.reduce(np.abs(pts), axis=None))
    if not ext < np.inf:
        raise ValueError("positions must be finite")
    # Cells of side just above r (wider only where the extent needs more
    # than 2**29 cells per axis): a pair within r is in one cell or two
    # adjacent ones, with a margin that covers the rounding of the
    # scaled coordinates.  An infinite r puts every point in one cell.
    side = r * (1.0 + 2.0 ** -16)
    if side < ext * 2.0 ** -29:
        side = ext * 2.0 ** -29
    kept = _kept_keys(pts, r, side)
    # (min << 32 | max) orders pairs as (u, v) lexicographically.
    keys = kept[0] if len(kept) == 1 else np.concatenate(kept)
    del kept
    keys.sort()
    # The sorted keys' int32 halves are the edges: swapped in place into
    # (u, v) order where the high half comes second.
    halves = keys.view(np.int32).reshape(-1, 2)
    if _HIGH:
        low = halves[:, 0].copy()
        halves[:, 0] = halves[:, 1]
        halves[:, 1] = low
    return halves


def _kept_keys(pts: np.ndarray, r: float, side: float) -> list:
    """The pairs of ``pts`` within ``r``, as a list of int64 key arrays
    ``min << 32 | max`` (one per pass, unsorted), from cells of ``side``.

    Its working arrays are freed when it returns, before the caller
    joins the passes' keys, so the two never add up."""
    n = pts.shape[0]
    cell = pts * (1.0 / side)
    cell += _BIAS
    key = cell.astype(np.int32).view(np.int64)[:, 0]
    del cell
    order = key.argsort()
    key = key[order]
    # Cell c (in cell order) holds the points [cut[c], cut[c + 1]).  Its
    # point p meets two runs of the sorted keys: the rest of its cell
    # with cell (M, m + 1), [p + 1, bounds[c, 0]), and cells
    # (M + 1, m - 1 .. m + 1), [bounds[c, 1], bounds[c, 2]).  The bounds
    # are searched once per occupied cell, among the occupied cells'
    # keys, one ascending row of needles per offset, then repeated over
    # the cell's points.
    cut = np.empty(n + 1, dtype=bool)
    cut[0] = cut[n] = True
    cut[1:n] = key[1:] != key[:-1]
    cut = cut.nonzero()[0]
    cells = key[cut[:-1]]
    del key
    bounds = cut[cells.searchsorted(_FORWARD[:, None] + cells)].T
    np.subtract(bounds[:, 2], bounds[:, 1], out=bounds[:, 1])
    # Per point: the first run's end, the second run's length and end.
    bounds = bounds.repeat(cut[1:] - cut[:-1], axis=0)
    lengths = bounds[:, :2].copy()
    owner = np.arange(n)
    lengths[:, 0] -= owner
    lengths[:, 0] -= 1
    runs = lengths.ravel()
    filled = np.add.accumulate(runs)
    # Candidate j of run i is point ``shift[i] + j`` (j counted over all
    # runs): one repeat and one ramp list every candidate.
    ends = bounds[:, ::2]
    ends -= filled.reshape(n, 2)
    shift = ends.ravel()
    del bounds, ends
    per_point = lengths[:, 0] + lengths[:, 1]
    total = int(filled[-1])
    # Passes end at the last point whose candidates end within each
    # multiple of PAIR_CHUNK, so a pass holds at most PAIR_CHUNK plus
    # one point's candidates.
    cuts, span = [0, n], total
    if total > PAIR_CHUNK:
        cuts[1:1] = filled[1::2].searchsorted(
            np.arange(PAIR_CHUNK, total, PAIR_CHUNK), "right").tolist()
        span = min(total, PAIR_CHUNK + int(np.maximum.reduce(per_point)))
    ramp = np.arange(span)
    z = pts.view(np.complex128)[:, 0][order]  # x + iy in cell order
    rr = r * r
    kept = []
    for a, b in zip(cuts, cuts[1:]):
        if b == a:
            continue
        lo = int(filled[2 * a - 1]) if a else 0
        hi = int(filled[2 * b - 1])
        q = shift[2 * a:2 * b].repeat(runs[2 * a:2 * b])
        q += ramp[:hi - lo]
        if lo:
            q += lo
        p = owner[a:b].repeat(per_point[a:b])
        # dx * dx + dy * dy <= r * r in float64.
        d = z[q]
        d -= z[p]
        dx, dy = d.real, d.imag
        dx *= dx
        dy *= dy
        dx += dy
        at = (dx <= rr).nonzero()[0]
        u = order[p[at]]
        v = order[q[at]]
        k = np.minimum(u, v)
        k <<= 32
        k |= np.maximum(u, v)
        kept.append(k)
    return kept


def encode_edges(edges: np.ndarray, n: int) -> np.ndarray:
    """Encode canonical edges as int64 scalar keys ``u * n + v`` for set
    diffs (the endpoints may be int32: the product is formed in int64)."""
    e = np.asarray(edges).reshape(-1, 2)
    if e.size == 0:
        return np.empty(0, dtype=np.int64)
    keys = e[:, 0].astype(np.int64)
    keys *= n
    keys += e[:, 1]
    return keys

