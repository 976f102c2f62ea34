"""Tests for the GLS service: assignment, handoff metering, queries."""

import numpy as np
import pytest

from repro.geometry import SquareRegion
from repro.gls import GridHierarchy, GridLocationService


def euclidean_hops(pts, scale=1.0):
    """Hop estimator from node positions (for tests: straight-line)."""

    def hop_fn(u, v):
        return int(np.ceil(np.linalg.norm(pts[u] - pts[v]) / scale)) if u != v else 0

    return hop_fn


@pytest.fixture
def small_service():
    grid = GridHierarchy(origin=(0.0, 0.0), l=1.0, L=3)
    ids = np.arange(8)
    return GridLocationService(grid=grid, node_ids=ids)


class TestAssignment:
    def test_servers_in_sibling_squares(self, small_service):
        rng = np.random.default_rng(0)
        pts = SquareRegion(4.0).sample(8, rng)
        a = small_service.compute_assignment(pts)
        grid = small_service.grid
        for (subj, level), servers in a.servers.items():
            own_sq = grid.square_of(pts[subj], level)[0]
            sibs = {tuple(s) for s in grid.siblings_of(pts[subj], level)}
            for srv in servers:
                srv_sq = tuple(grid.square_of(pts[srv], level)[0])
                assert srv_sq in sibs, "server must sit in a sibling square"
                assert not np.array_equal(srv_sq, own_sq)

    def test_at_most_three_servers_per_level(self, small_service):
        rng = np.random.default_rng(1)
        pts = SquareRegion(4.0).sample(8, rng)
        a = small_service.compute_assignment(pts)
        assert all(len(srv) <= 3 for srv in a.servers.values())

    def test_load_counts(self, small_service):
        rng = np.random.default_rng(2)
        pts = SquareRegion(4.0).sample(8, rng)
        a = small_service.compute_assignment(pts)
        load = a.load()
        total_entries = sum(len(s) for s in a.servers.values())
        assert sum(load.values()) == total_entries

    def test_misaligned_positions(self, small_service):
        with pytest.raises(ValueError):
            small_service.compute_assignment(np.zeros((3, 2)))

    def test_validation(self):
        grid = GridHierarchy((0, 0), l=1.0, L=2)
        with pytest.raises(ValueError):
            GridLocationService(grid=grid, node_ids=np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            GridLocationService(grid=grid, node_ids=np.arange(3), update_fraction=0)


class TestObserve:
    def test_baseline_step_free(self, small_service):
        rng = np.random.default_rng(3)
        pts = SquareRegion(4.0).sample(8, rng)
        rep = small_service.observe(pts, euclidean_hops(pts))
        assert rep.total_packets == 0

    def test_static_network_no_overhead(self, small_service):
        rng = np.random.default_rng(4)
        pts = SquareRegion(4.0).sample(8, rng)
        small_service.observe(pts, euclidean_hops(pts))
        for _ in range(3):
            rep = small_service.observe(pts, euclidean_hops(pts))
            assert rep.total_packets == 0
            assert rep.handoff_events == 0
            assert rep.update_events == 0

    def test_motion_triggers_overhead(self):
        grid = GridHierarchy((0.0, 0.0), l=1.0, L=4)
        ids = np.arange(30)
        svc = GridLocationService(grid=grid, node_ids=ids)
        rng = np.random.default_rng(5)
        pts = SquareRegion(8.0).sample(30, rng)
        svc.observe(pts, euclidean_hops(pts))
        total = 0
        for _ in range(10):
            pts = pts + rng.normal(scale=0.6, size=pts.shape)
            pts = SquareRegion(8.0).clamp(pts)
            rep = svc.observe(pts, euclidean_hops(pts))
            total += rep.total_packets
        assert total > 0
