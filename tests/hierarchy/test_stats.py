"""Tests for hierarchy statistics (Eqs. 1-3 bookkeeping and h_k)."""

import numpy as np
import pytest

from repro.geometry import disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import build_hierarchy, hierarchy_stats, sample_hop_counts
from repro.radio import radius_for_degree, unit_disk_edges


def deployment_edges(n, seed=0, density=0.02, degree=9.0):
    region = disc_for_density(n, density)
    pts = region.sample(n, np.random.default_rng(seed))
    return unit_disk_edges(pts, radius_for_degree(degree, density))


def make(n, seed=0, density=0.02, degree=9.0):
    edges = deployment_edges(n, seed, density, degree)
    g = CompactGraph(np.arange(n), edges)
    h = build_hierarchy(np.arange(n), edges)
    return g, h


class TestHierarchyStats:
    def test_bookkeeping_identities(self):
        g, h = make(200, seed=1)
        stats = hierarchy_stats(h)
        assert stats[0].k == 0
        assert stats[0].n_nodes == 200
        assert stats[0].c == pytest.approx(1.0)
        assert stats[0].alpha == pytest.approx(1.0)
        # Eq. (2a): c_k = prod alpha_j.
        prod = 1.0
        for s in stats[1:]:
            prod *= s.alpha
            assert s.c == pytest.approx(prod)
        # Eq. (1a): d_k = 2|E_k| / |V_k|.
        for s, lvl in zip(stats, h.levels):
            assert s.mean_degree == pytest.approx(
                2 * lvl.n_edges / lvl.n_nodes if lvl.n_nodes else 0.0
            )

    def test_levels_shrink_network(self):
        g, h = make(300, seed=2)
        stats = hierarchy_stats(h)
        assert stats[-1].n_nodes < stats[0].n_nodes


class TestHopCounts:
    def test_mean_hop_count_chain(self):
        g = CompactGraph(range(4), [[0, 1], [1, 2], [2, 3]])
        # Exhaustive: all sources sampled.
        val = sample_hop_counts(g, np.random.default_rng(0), n_sources=4)[0]
        # All pairs distances: mean = (1+2+3 + 1+1+2 + ...) -> exactly
        # (2*(1+2+3) + 2*(1+1+2)) / 12 = (12 + 8)/12
        assert val == pytest.approx(20 / 12)

    def test_mean_hop_count_trivial(self):
        g = CompactGraph([1], np.empty((0, 2)))
        assert sample_hop_counts(g, np.random.default_rng(0))[0] == 0.0

    def test_level_hop_counts_increase_with_level(self):
        g, h = make(400, seed=3)
        rng = np.random.default_rng(4)
        _, hks = sample_hop_counts(g, rng, n_sources=0, h=h, clusters_per_level=10,
                                   sources_per_cluster=3)
        assert set(hks) == set(range(1, h.num_levels + 1))
        vals = [hks[k] for k in sorted(hks) if hks[k] > 0]
        # h_k grows with k (clusters get geographically larger).
        assert vals == sorted(vals)

    def test_h1_close_to_small_constant(self):
        """Level-1 clusters are 1-hop: intra-cluster distances ~1-2."""
        g, h = make(300, seed=5)
        rng = np.random.default_rng(6)
        _, hks = sample_hop_counts(g, rng, n_sources=0, h=h)
        assert 0 < hks[1] < 3.0

    # seed -> (n, degree, hierarchy kind, max_levels, side of SWEEP_NODES)
    CASES = {
        0: (300, 4.0, "memoryless", None, "sweep"),   # sparse, disconnected
        1: (300, 9.0, "memoryless", None, "sweep"),
        2: (300, 9.0, "memoryless", None, "sweep"),
        # Deeper hierarchy whose scoped floods stop at very different
        # radii per level.
        3: (3_500, 9.0, "memoryless", None, "floods"),
        4: (300, 9.0, "persistent", 3, "sweep"),
        5: (3_500, 9.0, "persistent", 4, "floods"),
        6: (300, 9.0, "memoryless", 2, "sweep"),      # capped: a wide top
        7: (3_500, 9.0, "memoryless", 3, "floods"),
    }

    @pytest.mark.parametrize("seed", sorted(CASES))
    def test_batched_sampling_equals_per_source_loop(self, seed, monkeypatch):
        """Same sources in the same RNG order, same means, same RNG
        state afterwards as the one-BFS-per-source oracle, on both sides
        of the one-sweep rule, on persistent cluster IDs (>= 10^7) and on
        capped hierarchies, for level-only, network-only and combined
        samples."""
        import repro.graphs
        from tests.hierarchy.hop_oracle import hop_counts_per_source

        n, degree, kind, max_levels, side = self.CASES[seed]
        g, h = make(n, seed=seed, degree=degree)
        if kind == "persistent" or max_levels:
            h = _rebuilt(kind, g, max_levels, seed, degree)
        if kind == "persistent":
            assert int(h.levels[1].node_ids.min()) >= 10**7
        sweeps = []
        real = repro.graphs._bitset_bfs
        monkeypatch.setattr(repro.graphs, "_bitset_bfs",
                            lambda *a: sweeps.append(a) or real(*a))

        ids, edges = np.arange(n), deployment_edges(n, seed, degree=degree)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        assert sample_hop_counts(g, rng_a, n_sources=0, h=h) == \
            hop_counts_per_source(ids, edges, rng_b, n_sources=0, h=h)
        assert sample_hop_counts(g, rng_a, n_sources=8) == \
            hop_counts_per_source(ids, edges, rng_b, n_sources=8)
        got = sample_hop_counts(g, rng_a, n_sources=8, h=h,
                                clusters_per_level=6, sources_per_cluster=2)
        assert got == hop_counts_per_source(
            ids, edges, rng_b, n_sources=8, h=h, clusters_per_level=6,
            sources_per_cluster=2)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert got[0] > 1 and any(v > 0 for v in got[1].values())
        assert len(sweeps) == (3 if side == "sweep" else 0)

    @pytest.mark.parametrize("kind", ["memoryless", "sticky", "persistent"])
    def test_level_ids_are_the_ancestry_heads(self, kind):
        """The sampler reads a level's clusters off its node IDs instead
        of sorting n ancestors: the two must be the same array."""
        g, _ = make(400, seed=7)
        for step in range(3):
            h = _rebuilt(kind, g, None, step, 9.0)
            assert h.num_levels >= 2
            for k in range(h.num_levels + 1):
                assert np.array_equal(h.levels[k].node_ids,
                                      np.unique(h.ancestry(k)))


def _rebuilt(kind, g, max_levels, seed, degree, density=0.02):
    """The hierarchy of ``make``'s deployment built by another elector:
    two updates of a maintainer (a second election over a jittered
    deployment, so sticky and persistent state is exercised)."""
    from repro.hierarchy.maintain import HierarchyMaintainer

    n = g.n
    r0 = radius_for_degree(degree, density)
    rng = np.random.default_rng(seed)
    pts = disc_for_density(n, density).sample(n, rng)
    if kind == "memoryless":
        return build_hierarchy(np.arange(n), unit_disk_edges(pts, r0),
                               max_levels=max_levels)
    maintainer = HierarchyMaintainer(n, r0, max_levels=max_levels,
                                     election_mode=kind)
    for _ in range(2):
        h = maintainer.update(unit_disk_edges(pts, r0), positions=pts)
        pts = pts + rng.normal(scale=0.5, size=pts.shape)
    return h
