"""Tests for Eq. (5) server selection."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gls import select_server_sorted
from tests.core.descent_oracle import eq5_successor as select_server


def select(v, candidates, modulus=100):
    return select_server_sorted(
        v, np.sort(np.asarray(candidates, dtype=np.int64)), modulus)


class TestSelectServer:
    def test_least_greater(self):
        assert select(5, [3, 7, 9]) == 7

    def test_wraps(self):
        assert select(9, [3, 7]) == 3

    def test_self_excluded(self):
        assert select(5, [5, 8]) == 8
        assert select(5, [5]) is None

    def test_empty(self):
        assert select(5, []) is None

    def test_deterministic_unambiguous(self):
        """Feature (a): selection depends only on the candidate set."""
        cands = [12, 44, 3, 91]
        assert select(50, cands) == select(50, cands[::-1]) == 91


@settings(max_examples=100, deadline=None)
@given(
    v=st.integers(0, 999),
    cands=st.lists(st.integers(0, 999), min_size=0, max_size=30, unique=True),
)
def test_sorted_matches_linear_property(v, cands):
    arr = np.sort(np.array(cands, dtype=np.int64)) if cands else np.empty(0, np.int64)
    assert select_server_sorted(v, arr, 1000) == select_server(v, cands, 1000)


@settings(max_examples=50, deadline=None)
@given(
    v=st.integers(0, 999),
    cands=st.lists(st.integers(0, 999), min_size=2, max_size=30, unique=True),
)
def test_selection_is_circular_successor_property(v, cands):
    srv = select_server(v, cands, 1000)
    others = [c for c in cands if c != v]
    if not others:
        assert srv is None
        return
    assert srv in others
    d_srv = (srv - v) % 1000
    for c in others:
        assert d_srv <= (c - v) % 1000
