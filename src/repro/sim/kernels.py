"""Vectorized per-step simulator kernels.

What the metered loop used to spend its time on — diffing consecutive
snapshots with Python sets of ``(u, v)`` tuples and walking components
with a pure-Python BFS — now runs in int64 array land, each kernel next
to the data it reads:

* level 0's link diff is one merge of two ascending edge-key arrays
  (:func:`repro.radio.linkevents.link_diff`), done once per step and
  handed to every consumer on
  :attr:`~repro.sim.snapshot.StepSnapshot.link_diff`;
* the levels above, link and drift counts included, are diffed once per
  step, all levels at a time, by :func:`repro.core.events.
  diff_hierarchies` (``StepSnapshot.report.diff``);
* the largest-component fraction (here) is read off the hop sample's
  own BFS rows, or else counted from the
  :class:`~repro.graphs.CompactGraph`'s cached component labels.

Each kernel is equivalence-tested against a pure-Python reference:
``tests/sim/test_kernels.py`` (this module, and the per-level set diff
kept there as the level-series oracle), ``tests/radio/test_linkevents.py``
and ``tests/core/test_events.py``.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import CompactGraph

__all__ = ["giant_fraction"]


def giant_fraction(g: CompactGraph) -> float:
    """Largest connected-component fraction: the giant a hop sample's
    whole row spanned (:func:`repro.graphs.hop_sums` records it), else
    from the graph's cached (scipy C-level) component labels."""
    if g.n == 0:
        return 0.0
    if g._giant is not None:
        return float(np.count_nonzero(g._giant)) / g.n
    return float(np.bincount(g.components()).max()) / g.n
