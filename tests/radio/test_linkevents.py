"""Tests for link state change tracking (the measured f_0 of Eq. (4))."""

import numpy as np
import pytest

from repro.geometry import disc_for_density
from repro.mobility import RandomWaypoint
from repro.radio import (
    LinkTracker,
    encode_edges,
    radius_for_degree,
    unit_disk_edges,
)
from repro.radio.linkevents import link_diff, sorted_key_diff


def edges(pairs):
    return np.array(sorted(tuple(sorted(p)) for p in pairs), dtype=np.int64).reshape(
        -1, 2
    )


class TestLinkTracker:
    def test_first_observation_is_baseline(self):
        t = LinkTracker(n=5)
        diff = t.observe(edges([(0, 1), (1, 2)]))
        assert diff.n_events == 0
        assert t.steps == 0

    def test_detects_up_and_down(self):
        t = LinkTracker(n=5)
        t.observe(edges([(0, 1), (1, 2)]))
        diff = t.observe(edges([(1, 2), (2, 3)]))
        assert diff.ups.tolist() == [[2, 3]]
        assert diff.downs.tolist() == [[0, 1]]
        assert diff.n_events == 2
        assert t.total_ups == 1 and t.total_downs == 1

    def test_no_change(self):
        t = LinkTracker(n=4)
        e = edges([(0, 3)])
        t.observe(e)
        diff = t.observe(e)
        assert diff.n_events == 0

    def test_per_node_attribution(self):
        t = LinkTracker(n=4)
        t.observe(edges([(0, 1)]))
        t.observe(edges([(2, 3)]))  # 0-1 down, 2-3 up
        assert t.per_node_events.tolist() == [1, 1, 1, 1]

    def test_empty_snapshots(self):
        t = LinkTracker(n=3)
        empty = np.empty((0, 2), dtype=np.int64)
        t.observe(empty)
        diff = t.observe(empty)
        assert diff.n_events == 0

    def test_frequency_normalization(self):
        t = LinkTracker(n=2)
        t.observe(edges([(0, 1)]))
        t.observe(np.empty((0, 2), dtype=np.int64))
        assert t.events_per_node_per_second(2.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            t.events_per_node_per_second(0.0)

    def test_reset(self):
        t = LinkTracker(n=3)
        t.observe(edges([(0, 1)]))
        t.observe(edges([(1, 2)]))
        t.reset()
        assert t.total_ups == 0 and t.total_downs == 0
        assert t.per_node_events.sum() == 0
        # Next observe is a fresh baseline.
        assert t.observe(edges([(0, 2)])).n_events == 0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            LinkTracker(n=0)

    @pytest.mark.parametrize("rows", [
        [[1, 0]], [[2, 2]], [[2, 3], [0, 1]], [[0, 1], [0, 1]],
    ], ids=["reversed", "self-loop", "unsorted", "repeated"])
    def test_non_canonical_input_is_refused(self, rows):
        """``np.isin`` used to diff such input without a word, and
        wrongly (a repeated or reversed row is not one link)."""
        t = LinkTracker(n=4)
        with pytest.raises(ValueError, match="canonical"):
            t.observe(np.array(rows))
        t.observe(edges([(0, 1)]))
        with pytest.raises(ValueError, match="canonical"):
            t.observe(np.array(rows))


def random_canonical(rng, n, m):
    """A canonical edge array: unique (u < v) rows, ascending."""
    e = np.sort(rng.integers(0, n, size=(m, 2)), axis=1)
    e = e[e[:, 0] != e[:, 1]]
    return np.unique(e, axis=0).astype(np.int64).reshape(-1, 2)


class TestMergeKernel:
    """The one merge every snapshot diff runs equals the two ``np.isin``
    set differences it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("m0,m1", [(0, 0), (0, 30), (30, 0), (40, 40),
                                       (200, 150)])
    def test_equals_isin(self, seed, m0, m1):
        rng = np.random.default_rng(seed)
        n = 60
        e0, e1 = random_canonical(rng, n, m0), random_canonical(rng, n, m1)
        k0, k1 = encode_edges(e0, n), encode_edges(e1, n)
        up, down = sorted_key_diff(k0, k1)
        assert k1[up].tolist() == k1[~np.isin(k1, k0, assume_unique=True)].tolist()
        assert k0[down].tolist() == k0[~np.isin(k0, k1, assume_unique=True)].tolist()
        diff = link_diff(e0, e1, n)
        assert diff.ups.tolist() == e1[up].tolist()
        assert diff.downs.tolist() == e0[down].tolist()
        tracker = LinkTracker(n)
        tracker.observe(e0)
        seen = tracker.observe(e1)
        assert seen.ups.tolist() == diff.ups.tolist()
        assert seen.downs.tolist() == diff.downs.tolist()

    def test_level_tagged_keys_beyond_int32(self):
        keys = np.array([3, 2**40, 2**50 + 1, 2**60], dtype=np.int64)
        up, down = sorted_key_diff(keys[:3], keys[1:])
        assert keys[1:][up].tolist() == [2**60]
        assert keys[:3][down].tolist() == [3]


class TestStationaryNetworkHasNoEvents:
    def test_static_deployment(self):
        rng = np.random.default_rng(0)
        region = disc_for_density(100, 0.01)
        pts = region.sample(100, rng)
        e = unit_disk_edges(pts, radius_for_degree(8.0, 0.01))
        t = LinkTracker(n=100)
        t.observe(e)
        for _ in range(5):
            assert t.observe(e).n_events == 0


class TestMobileNetworkHasEvents:
    def test_rwp_produces_link_churn(self):
        density = 0.005
        n = 150
        region = disc_for_density(n, density)
        rng = np.random.default_rng(1)
        model = RandomWaypoint(n, region, 10.0, rng)
        r = radius_for_degree(8.0, density)
        t = LinkTracker(n=n)
        t.observe(unit_disk_edges(model.positions, r))
        for _ in range(20):
            model.step(1.0)
            t.observe(unit_disk_edges(model.positions, r))
        assert t.total_ups > 0 and t.total_downs > 0
        # Over a long window ups ~ downs (stationarity).
        ratio = t.total_ups / max(t.total_downs, 1)
        assert 0.3 < ratio < 3.0
