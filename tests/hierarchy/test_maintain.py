"""Tests for stateful hierarchy maintenance (sticky elections)."""

import numpy as np
import pytest

from repro.geometry import DiscRegion, disc_for_density
from repro.hierarchy import HierarchyMaintainer, build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges


DENSITY = 0.02
R_TX = radius_for_degree(9.0, DENSITY)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            HierarchyMaintainer(2, R_TX, level_mode="quantum",
                                election_mode="sticky")
        with pytest.raises(ValueError):
            HierarchyMaintainer(2, None, level_mode="radio",
                                election_mode="sticky")

    def test_radio_requires_positions(self):
        m = HierarchyMaintainer(2, R_TX, election_mode="sticky")
        with pytest.raises(ValueError):
            m.update([[0, 1]], positions=None)

    def test_positions_alignment(self):
        m = HierarchyMaintainer(2, R_TX, election_mode="sticky")
        with pytest.raises(ValueError):
            m.update([[0, 1]], positions=np.zeros((3, 2)))


class TestSnapshots:
    @pytest.fixture
    def deployment(self):
        n = 150
        region = disc_for_density(n, DENSITY)
        rng = np.random.default_rng(0)
        pts = region.sample(n, rng)
        return n, region, rng, pts

    def test_produces_valid_hierarchy(self, deployment):
        n, region, rng, pts = deployment
        m = HierarchyMaintainer(n, R_TX, max_levels=3, election_mode="sticky")
        edges = unit_disk_edges(pts, R_TX)
        h = m.update(edges, positions=pts)
        assert h.num_levels >= 1
        sizes = h.level_sizes()
        assert sizes[0] == n
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        # Ancestry refinement holds.
        for k in range(h.num_levels):
            a_k = h.ancestry(k)
            a_k1 = h.ancestry(k + 1)
            for cid in np.unique(a_k)[:10]:
                assert np.unique(a_k1[a_k == cid]).size == 1

    def test_stability_across_small_motion(self, deployment):
        """Under jitter, sticky maintenance changes fewer level-1
        clusterheads than from-scratch rebuilding."""
        n, region, rng, pts = deployment
        m = HierarchyMaintainer(n, R_TX, max_levels=3, election_mode="sticky")
        sticky_flips = scratch_flips = 0
        prev_s = prev_b = None
        for _ in range(15):
            pts = region.clamp(pts + rng.normal(scale=0.5, size=pts.shape))
            edges = unit_disk_edges(pts, R_TX)
            hs = m.update(edges, positions=pts)
            hb = build_hierarchy(np.arange(n), edges, max_levels=3,
                                 level_mode="radio", positions=pts, r0=R_TX)
            heads_s = set(hs.levels[1].node_ids.tolist())
            heads_b = set(hb.levels[1].node_ids.tolist())
            if prev_s is not None:
                sticky_flips += len(heads_s ^ prev_s)
                scratch_flips += len(heads_b ^ prev_b)
            prev_s, prev_b = heads_s, heads_b
        assert sticky_flips < scratch_flips

    def test_contraction_mode(self, deployment):
        n, region, rng, pts = deployment
        m = HierarchyMaintainer(n, R_TX, max_levels=2, level_mode="contraction",
                                election_mode="sticky")
        edges = unit_disk_edges(pts, R_TX)
        h = m.update(edges)
        assert h.num_levels >= 1

    def test_static_topology_fixed_point(self, deployment):
        """On a static topology the maintenance converges: the first
        update seeds pure-LCA heads, the second applies LCC contention
        pruning (adjacent heads merge), and from then on nothing changes
        — like a real asynchronous protocol stabilizing."""
        n, region, rng, pts = deployment
        m = HierarchyMaintainer(n, R_TX, max_levels=3, election_mode="sticky")
        edges = unit_disk_edges(pts, R_TX)
        m.update(edges, positions=pts)
        h2 = m.update(edges, positions=pts)
        h3 = m.update(edges, positions=pts)
        assert h2.num_levels == h3.num_levels
        for k in range(h2.num_levels + 1):
            assert np.array_equal(h2.ancestry(k), h3.ancestry(k))
