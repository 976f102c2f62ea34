"""Tests for link state change detection (the measured f_0 of Eq. (4))."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.geometry import disc_for_density
from repro.mobility import RandomWaypoint
from repro.radio import encode_edges, radius_for_degree, unit_disk_edges
from repro.radio.linkevents import link_diff, sorted_key_diff
from repro.sim import LinkEventCollector


def edges(pairs):
    return np.array(sorted(tuple(sorted(p)) for p in pairs), dtype=np.int64).reshape(
        -1, 2
    )


class TestLinkDiff:
    def test_detects_up_and_down(self):
        diff = link_diff(edges([(0, 1), (1, 2)]), edges([(1, 2), (2, 3)]), 5)
        assert diff.ups.tolist() == [[2, 3]]
        assert diff.downs.tolist() == [[0, 1]]
        assert diff.n_events == 2

    def test_no_change(self):
        e = edges([(0, 3)])
        assert link_diff(e, e, 4).n_events == 0

    def test_empty_snapshots(self):
        empty = np.empty((0, 2), dtype=np.int64)
        assert link_diff(empty, empty, 3).n_events == 0


def _snap(before, after, n):
    """The two fields of a step snapshot the link collector reads."""
    return SimpleNamespace(link_diff=link_diff(before, after, n), edges=after,
                           scenario=SimpleNamespace(n=n))


class TestLinkEventCollector:
    def test_per_node_attribution(self):
        """One link down and one up over 4 nodes charge each node once:
        f_0 = 2 events * 2 endpoints / 4 nodes per second."""
        c = LinkEventCollector(n=4)
        c.on_step(_snap(edges([(0, 1)]), edges([(2, 3)]), 4))
        assert c.finalize(1.0)["f0"] == 1.0

    def test_frequency_normalization(self):
        c = LinkEventCollector(n=2)
        c.on_step(_snap(edges([(0, 1)]), np.empty((0, 2), dtype=np.int64), 2))
        assert c.finalize(2.0)["f0"] == pytest.approx(0.5)


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
        for _ in range(5):
            assert link_diff(e, e, 100).n_events == 0


class TestMobileNetworkHasEvents:
    def test_rwp_produces_link_churn(self):
        density = 0.005
        n = 150
        region = disc_for_density(n, density)
        rng = np.random.default_rng(1)
        model = RandomWaypoint(n, region, 10.0, rng)
        r = radius_for_degree(8.0, density)
        prev = unit_disk_edges(model.positions, r)
        ups = downs = 0
        for _ in range(20):
            model.step(1.0)
            e = unit_disk_edges(model.positions, r)
            diff = link_diff(prev, e, n)
            ups, downs, prev = ups + len(diff.ups), downs + len(diff.downs), e
        assert ups > 0 and downs > 0
        # Over a long window ups ~ downs (stationarity).
        ratio = ups / max(downs, 1)
        assert 0.3 < ratio < 3.0
