"""Tests for link state change detection (the measured f_0 of Eq. (4))."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.geometry import disc_for_density
from repro.mobility import RandomWaypoint
from repro.radio import encode_edges, radius_for_degree, unit_disk_edges
from repro.radio.linkevents import link_diff, sorted_key_diff
from repro.sim import LinkEventCollector

from .edge_keys import decode_edges


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
        up, down = sorted_key_diff(np.concatenate((k0, k1)), k0.size)
        assert k1[up].tolist() == k1[~np.isin(k1, k0, assume_unique=True)].tolist()
        assert k0[down].tolist() == k0[~np.isin(k0, k1, assume_unique=True)].tolist()
        diff = link_diff(e0, e1, n)
        assert diff.ups.tolist() == e1[up].tolist()
        assert diff.downs.tolist() == e0[down].tolist()

    def test_level_tagged_keys_beyond_int32(self):
        keys = np.array([3, 2**40, 2**50 + 1, 2**60], dtype=np.int64)
        up, down = sorted_key_diff(np.concatenate((keys[:3], keys[1:])), 3)
        assert keys[1:][up].tolist() == [2**60]
        assert keys[:3][down].tolist() == [3]


def setdiff_oracle(prev, cur, n):
    """``(ups, downs)`` of two canonical edge arrays by ``np.setdiff1d``
    on their keys, each in ascending key order."""
    pk, ck = encode_edges(prev, n), encode_edges(cur, n)
    ups = decode_edges(np.setdiff1d(ck, pk, assume_unique=True), n)
    downs = decode_edges(np.setdiff1d(pk, ck, assume_unique=True), n)
    return ups, downs


class TestSetDiffOracle:
    """``link_diff`` equals the set differences of the two key arrays,
    rows in ascending key order, in the dtype of the edges it was
    given."""

    @staticmethod
    def _check(before, after, n):
        diff = link_diff(before, after, n)
        ups, downs = setdiff_oracle(before, after, n)
        for got, want, src in ((diff.ups, ups, after),
                               (diff.downs, downs, before)):
            assert got.dtype == src.dtype and got.flags["C_CONTIGUOUS"]
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        return diff

    @pytest.mark.parametrize("side", ["before", "after", "both"])
    def test_empty_snapshots(self, side):
        e = unit_disk_edges(np.random.default_rng(0).random((40, 2)), 0.2)
        empty = np.empty((0, 2), dtype=np.int32)
        before = empty if side in ("before", "both") else e
        after = empty if side in ("after", "both") else e
        diff = self._check(before, after, 40)
        assert diff.n_events == len(before) + len(after)

    def test_identical_snapshots(self):
        e = unit_disk_edges(np.random.default_rng(1).random((60, 2)), 0.2)
        assert self._check(e, e.copy(), 60).n_events == 0

    def test_disjoint_snapshots(self):
        """Every old link goes down and every new one comes up."""
        rng = np.random.default_rng(2)
        before = random_canonical(rng, 30, 80)
        keys = np.setdiff1d(np.arange(30 * 30), encode_edges(before, 30))
        keys = keys[keys // 30 < keys % 30][::3]
        after = decode_edges(keys, 30)
        diff = self._check(before, after, 30)
        assert diff.n_events == len(before) + len(after)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_walk_matches_setdiff_oracle(self, seed):
        """Consecutive unit-disk snapshots of a random walk, slow enough
        that most links survive a step and fast enough that some flip."""
        n = 100
        density = 0.02
        r = radius_for_degree(9.0, density)
        rng = np.random.default_rng(seed)
        pts = disc_for_density(n, density).sample(n, rng)
        prev = unit_disk_edges(pts, r)
        events = 0
        for _ in range(25):
            pts = pts + rng.normal(scale=0.4, size=pts.shape)
            cur = unit_disk_edges(pts, r)
            diff = self._check(prev, cur, n)
            assert diff.n_events < len(prev) + len(cur)
            events += diff.n_events
            prev = cur
        assert events > 25

    def test_keys_past_int32(self):
        """Past 46 341 nodes ``u * n + v`` exceeds 2**31: the keys are
        int64 even when the edges are int32."""
        n = 100_000
        rng = np.random.default_rng(3)
        before = random_canonical(rng, n, 500).astype(np.int32)
        after = np.concatenate([before[::2], random_canonical(rng, n, 300)])
        after = decode_edges(np.unique(encode_edges(after, n)), n)
        after = after.astype(np.int32)
        assert encode_edges(after, n).max() > 2**31
        diff = self._check(before, after, n)
        assert 0 < diff.n_events < len(before) + len(after)


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
