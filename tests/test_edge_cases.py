"""Edge-case and validation-branch tests across modules.

Collected from a manual review of code paths not exercised elsewhere.
"""

import numpy as np
import pytest

from repro.geometry import DiscRegion, SquareRegion, disc_for_density
from repro.hierarchy import build_hierarchy
from repro.mobility.base import resolve_speeds
from repro.radio import radius_for_degree, unit_disk_edges
from repro.sim.hops import BfsHops, EuclideanHops


class TestResolveSpeeds:
    def test_scalar(self):
        s = resolve_speeds(3.0, 5, np.random.default_rng(0))
        assert (s == 3.0).all()

    def test_range(self):
        s = resolve_speeds((1.0, 2.0), 100, np.random.default_rng(0))
        assert (s >= 1.0).all() and (s <= 2.0).all()

    def test_degenerate_range(self):
        s = resolve_speeds((2.0, 2.0), 10, np.random.default_rng(0))
        assert np.allclose(s, 2.0)

    def test_invalid(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            resolve_speeds(0.0, 5, rng)
        with pytest.raises(ValueError):
            resolve_speeds((0.0, 1.0), 5, rng)
        with pytest.raises(ValueError):
            resolve_speeds((3.0, 1.0), 5, rng)

    @pytest.mark.parametrize("speed", [(1.0, 2.0, 3.0), -1.0, float("nan")])
    def test_one_rule_with_scenario(self, speed):
        """``Scenario`` applies this same check at construction: a third
        value is an error, not silently dropped."""
        from repro.sim import Scenario

        with pytest.raises(ValueError, match="speed") as direct:
            resolve_speeds(speed, 5, np.random.default_rng(0))
        with pytest.raises(ValueError) as built:
            Scenario(speed=speed)
        assert str(direct.value) == str(built.value)


class TestHopProviders:
    def test_euclidean_validation(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            EuclideanHops(pts, r_tx=0.0)
        with pytest.raises(ValueError):
            EuclideanHops(pts, r_tx=1.0, detour=0.9)

    def test_euclidean_values(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 0.1]])
        hop = EuclideanHops(pts, r_tx=5.0, detour=1.0)
        assert hop(0, 0) == 0
        assert hop(0, 1) == 2  # ceil(10/5)
        assert hop(0, 2) == 1  # minimum one transmission

    def test_bfs_hops(self):
        from repro.graphs import CompactGraph

        g = CompactGraph(range(3), [[0, 1], [1, 2]])
        hop = BfsHops(g)
        assert hop(0, 2) == 2
        assert hop(0, 0) == 0


class TestRadioModeValidation:
    def test_requires_positions_and_r0(self):
        with pytest.raises(ValueError):
            build_hierarchy([1, 2], [[1, 2]], level_mode="radio")
        with pytest.raises(ValueError):
            build_hierarchy([1, 2], [[1, 2]], level_mode="radio",
                            positions=np.zeros((2, 2)))

    def test_positions_alignment(self):
        with pytest.raises(ValueError):
            build_hierarchy([1, 2], [[1, 2]], level_mode="radio",
                            positions=np.zeros((3, 2)), r0=1.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            build_hierarchy([1, 2], [[1, 2]], level_mode="warp")

    def test_radio_vs_contraction_same_level1(self):
        """Both modes share level-0 election; only level-k links differ."""
        n = 120
        density = 0.02
        region = disc_for_density(n, density)
        rng = np.random.default_rng(5)
        pts = region.sample(n, rng)
        r = radius_for_degree(9.0, density)
        edges = unit_disk_edges(pts, r)
        h_radio = build_hierarchy(np.arange(n), edges, level_mode="radio",
                                  positions=pts, r0=r, max_levels=2)
        h_contr = build_hierarchy(np.arange(n), edges,
                                  level_mode="contraction", max_levels=2)
        assert np.array_equal(h_radio.levels[1].node_ids,
                              h_contr.levels[1].node_ids)
        assert np.array_equal(h_radio.ancestry(1), h_contr.ancestry(1))


class TestGLSUpdateThreshold:
    def test_small_motion_no_updates(self):
        """Feature (c): motion below the level-i threshold triggers no
        update to level-i servers."""
        from repro.gls import GridHierarchy, GridLocationService

        grid = GridHierarchy((0.0, 0.0), l=10.0, L=3)
        svc = GridLocationService(grid=grid, node_ids=np.arange(20),
                                  update_fraction=0.5)
        rng = np.random.default_rng(0)
        pts = SquareRegion(40.0).sample(20, rng)

        def hop(u, v):
            return 0 if u == v else 1

        svc.observe(pts, hop)
        # Tiny jitter: far below 0.5 * 10 m.
        rep = svc.observe(pts + 0.01, hop)
        assert rep.update_events == 0

    def test_large_motion_triggers_updates(self):
        from repro.gls import GridHierarchy, GridLocationService

        grid = GridHierarchy((0.0, 0.0), l=10.0, L=3)
        svc = GridLocationService(grid=grid, node_ids=np.arange(20),
                                  update_fraction=0.5)
        rng = np.random.default_rng(1)
        pts = SquareRegion(40.0).sample(20, rng)

        def hop(u, v):
            return 0 if u == v else 1

        svc.observe(pts, hop)
        moved = SquareRegion(40.0).clamp(pts + np.array([8.0, 0.0]))
        rep = svc.observe(moved, hop)
        assert rep.update_events > 0


class TestRegionEdgeCases:
    def test_disc_sample_zero(self):
        assert DiscRegion(1.0).sample(0, np.random.default_rng(0)).shape == (0, 2)

    def test_square_sample_zero(self):
        assert SquareRegion(1.0).sample(0, np.random.default_rng(0)).shape == (0, 2)

    def test_contains_empty(self):
        assert DiscRegion(1.0).contains(np.empty((0, 2))).shape == (0,)
