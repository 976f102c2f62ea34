"""GLS server selection — the ID-hash of Eq. (5).

Within a candidate square, node v's location server is the node whose ID
is the *least ID greater than v* in circular ID space: the z minimizing
``(z - v) mod N`` over candidates z != v (Eq. (5) of the paper,
normalizing the ``mod_{v+|V|}(z+|V|)`` notation).  The selection is
unambiguous and, when IDs in a square are numerous and uniform, spreads
server duty evenly; the paper's Section 3.2 observes that the same rule
applied to *small* candidate sets (cluster IDs) skews badly — which
EXP-T7 demonstrates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["select_server_sorted"]


def select_server_sorted(v: int, sorted_candidates: np.ndarray, modulus: int) -> int | None:
    """Least-ID-greater-than-v (circular) among the sorted candidates,
    in O(log n); None when there is no candidate other than ``v``.

    The least ID strictly greater than ``v`` is the first element after
    ``v``'s insertion point; wrap to the smallest candidate if none —
    skipping ``v`` itself in both cases.
    """
    cand = sorted_candidates
    if cand.size == 0:
        return None
    # First candidate strictly greater than v, else wrap to the smallest.
    i = int(np.searchsorted(cand, v, side="right"))
    if i < cand.size:
        return int(cand[i])
    smallest = int(cand[0])
    return smallest if smallest != v else None
