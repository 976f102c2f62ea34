"""Tests for CHLM hash functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mix64, naive_circular_choice, rendezvous_choice
from repro.core.hashing import HASH_REGISTRY


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_distinct_inputs_distinct_outputs(self):
        vals = mix64(np.arange(1000))
        assert len(np.unique(vals)) == 1000

    def test_vectorized_matches_scalar(self):
        xs = np.array([0, 1, 2**32, 2**63], dtype=np.uint64)
        vec = mix64(xs)
        for i, x in enumerate(xs):
            assert vec[i] == mix64(int(x))

    def test_input_is_left_alone_and_out_receives_the_result(self):
        xs = np.arange(50, dtype=np.uint64).reshape(10, 5)
        before = xs.copy()
        want = mix64(xs)
        assert np.array_equal(xs, before) and not np.shares_memory(want, xs)
        out = np.empty_like(xs)
        assert mix64(xs, out=out) is out
        assert np.array_equal(out, want) and np.array_equal(xs, before)
        assert mix64(xs, out=xs) is xs  # in place
        assert np.array_equal(xs, want)

    def test_avalanche(self):
        """Single-bit input flips should flip ~half the output bits."""
        a = int(mix64(0x1234))
        b = int(mix64(0x1235))
        flipped = bin(a ^ b).count("1")
        assert 16 <= flipped <= 48


class TestRendezvousChoice:
    def test_deterministic_and_order_independent(self):
        cands = [5, 17, 99, 3]
        a = rendezvous_choice(42, 7, cands)
        b = rendezvous_choice(42, 7, list(reversed(cands)))
        assert a == b
        assert a in cands

    def test_empty(self):
        assert rendezvous_choice(1, 2, []) is None

    def test_single(self):
        assert rendezvous_choice(1, 2, [9]) == 9

    def test_salt_changes_choice_sometimes(self):
        cands = list(range(20))
        choices = {rendezvous_choice(7, salt, cands) for salt in range(50)}
        assert len(choices) > 5  # salts decorrelate stages

    def test_equitable_distribution(self):
        """Feature: each candidate wins ~uniformly over many subjects."""
        cands = [3, 17, 52, 80, 91]
        counts = {c: 0 for c in cands}
        n_subjects = 5000
        for v in range(n_subjects):
            counts[rendezvous_choice(v, 11, cands)] += 1
        expected = n_subjects / len(cands)
        for c, cnt in counts.items():
            assert abs(cnt - expected) < expected * 0.15, (c, cnt)

    def test_minimal_disruption(self):
        """Removing a non-chosen candidate must not change the winner —
        the rendezvous property that keeps handoff minimal."""
        cands = [3, 17, 52, 80, 91]
        for v in range(100):
            w = rendezvous_choice(v, 5, cands)
            rest = [c for c in cands if c != w]
            loser = rest[v % len(rest)]
            reduced = [c for c in cands if c != loser]
            assert rendezvous_choice(v, 5, reduced) == w


class TestNaiveChoice:
    def test_matches_eq5_semantics(self):
        assert naive_circular_choice(5, 0, [3, 7, 9]) == 7

    def test_skews_on_gappy_candidates(self):
        """The paper's warning: cluster IDs {45, 59, 68, 74, 75, 97} with
        Eq. (5) give cluster 45 a disproportionately large share of
        subjects (everything in the wraparound gap 98..44 hashes to 45).
        """
        cands = [45, 59, 68, 74, 75, 97]
        counts = {c: 0 for c in cands}
        modulus = 128
        for v in range(modulus):
            w = naive_circular_choice(v, 0, cands, modulus=modulus)
            counts[w] += 1
        # 45 absorbs the huge gap; uniform share would be ~21.
        assert counts[45] > 2 * (modulus / len(cands))

    def test_registry(self):
        assert set(HASH_REGISTRY) == {"rendezvous", "naive"}


@settings(max_examples=60, deadline=None)
@given(
    subject=st.integers(0, 10_000),
    salt=st.integers(0, 10_000),
    cands=st.lists(st.integers(0, 10_000), min_size=1, max_size=20, unique=True),
)
def test_rendezvous_membership_property(subject, salt, cands):
    w = rendezvous_choice(subject, salt, cands)
    assert w in cands
    # Stability: adding a new candidate either keeps the winner or the
    # new candidate wins.
    new = max(cands) + 1
    w2 = rendezvous_choice(subject, salt, cands + [new])
    assert w2 in (w, new)
