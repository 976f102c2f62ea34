"""Exact golden tables for the routing experiments.

EXP-A7 (state vs stretch, including the steady-state run that builds
one fabric per drifting snapshot), EXP-A9 (end-to-end sessions over the forwarding fabric)
and EXP-T9 (map sizes) are the end-to-end outputs of ``repro.routing``;
no benchmark workload builds a router, so these pins are what proves a
routing refactor left every number where it was.  One seed, quick grid.
"""

import pytest

from repro.experiments import e_a7_state_stretch, e_a9_end_to_end, e_t9_table_size

A7_ROWS = [
    [200, 3, 15.3, "13x smaller", 1.0, 1.17, 1.84],
    [400, 3, 17.5, "23x smaller", 1.0, 1.2, 1.58],
    [800, 4, 18.9, "42x smaller", 1.0, 1.17, 1.5],
]
A7_NOTES = [
    "state reduction grows 13x -> 42x while mean stretch stays ~1.18 — the "
    "[7] tradeoff: logarithmic state for a constant-factor detour.",
    "n=800, L=2: state 54.1/node, stretch 1.06 (deeper hierarchies trade "
    "state for stretch)",
    "n=800, L=5: state 18.2/node, stretch 1.19 (deeper hierarchies trade "
    "state for stretch)",
    "steady state (fabric per snapshot, n=200): state 15.2/node, delivery "
    "1.000, stretch 1.18",
]
A9_ROWS = [
    [0.5, 0.942, 1.0, 0.075, 21.2, 7.6],
    [1.0, 0.867, 1.0, 0.2, 20.1, 6.7],
    [2.0, 0.717, 1.0, 0.45, 20.6, 6.0],
    [4.0, 0.667, 1.0, 0.592, 19.8, 6.2],
]
T9_ROWS = [
    [100, 99, 9.3, 13, 0.094, 2.02],
    [200, 199, 11.3, 22, 0.057, 2.14],
    [400, 399, 11.6, 19, 0.029, 1.93],
    [800, 799, 15.9, 28, 0.02, 2.38],
    [1600, 1599, 15.6, 29, 0.0097, 2.11],
]
T9_NOTES = [
    "hierarchical map best shape: log (expected log-ish; ranking: "
    "['log', 'log2', 'sqrt', 'linear'])",
    "at n=1600 the hierarchical map is 103x smaller than the flat table",
]


@pytest.mark.parametrize("module,rows,notes", [
    (e_a7_state_stretch, A7_ROWS, A7_NOTES),
    (e_a9_end_to_end, A9_ROWS, None),
    (e_t9_table_size, T9_ROWS, T9_NOTES),
], ids=["EXP-A7", "EXP-A9", "EXP-T9"])
def test_quick_table_is_pinned(module, rows, notes):
    result = module.run(quick=True, seeds=(0,))
    assert result.rows == rows
    if notes is not None:
        assert result.notes == notes


def test_a9_sessions_degrade_with_speed():
    """Over the default seeds every session resolves, and as nodes speed
    up the lagged database goes stale more often and delivers less."""
    rows = e_a9_end_to_end.run(quick=True, seeds=(0, 1)).rows
    delivered = [r[1] for r in rows]
    stale = [r[3] for r in rows]
    assert all(r[2] == 1.0 for r in rows)
    assert all(a > b for a, b in zip(delivered, delivered[1:]))
    assert all(a < b for a, b in zip(stale, stale[1:]))
