"""Tests for hierarchy statistics (Eqs. 1-3 bookkeeping and h_k)."""

import numpy as np
import pytest

from repro.clustering import aggregation_factors, arity, cluster_size_stats
from repro.geometry import disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import (
    build_hierarchy,
    hierarchy_stats,
    level_hop_counts,
    mean_hop_count,
)
from repro.radio import radius_for_degree, unit_disk_edges


def make(n, seed=0, density=0.02, degree=9.0):
    region = disc_for_density(n, density)
    rng = np.random.default_rng(seed)
    pts = region.sample(n, rng)
    edges = unit_disk_edges(pts, radius_for_degree(degree, density))
    g = CompactGraph(np.arange(n), edges)
    h = build_hierarchy(np.arange(n), edges)
    return g, h


class TestClusterMetrics:
    def test_cluster_size_stats(self):
        stats = cluster_size_stats({1: np.array([1, 2, 3]), 9: np.array([9])})
        assert stats.n_nodes == 4
        assert stats.n_clusters == 2
        assert stats.mean_size == pytest.approx(2.0)
        assert stats.max_size == 3
        assert stats.min_size == 1
        assert stats.arity == pytest.approx(2.0)

    def test_empty_partition(self):
        with pytest.raises(ValueError):
            cluster_size_stats({})

    def test_arity(self):
        assert arity(100, 25) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            arity(0, 5)

    def test_aggregation_factors(self):
        c = aggregation_factors([100, 25, 5])
        assert c.tolist() == [1.0, 4.0, 20.0]

    def test_aggregation_validation(self):
        with pytest.raises(ValueError):
            aggregation_factors([])
        with pytest.raises(ValueError):
            aggregation_factors([10, 20])  # increasing


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
        val = mean_hop_count(g, np.random.default_rng(0), n_sources=4)
        # All pairs distances: mean = (1+2+3 + 1+1+2 + ...) -> exactly
        # (2*(1+2+3) + 2*(1+1+2)) / 12 = (12 + 8)/12
        assert val == pytest.approx(20 / 12)

    def test_mean_hop_count_trivial(self):
        g = CompactGraph([1], np.empty((0, 2)))
        assert mean_hop_count(g, np.random.default_rng(0)) == 0.0

    def test_level_hop_counts_increase_with_level(self):
        g, h = make(400, seed=3)
        rng = np.random.default_rng(4)
        hks = level_hop_counts(h, g, rng, clusters_per_level=10, sources_per_cluster=3)
        assert set(hks) == set(range(1, h.num_levels + 1))
        vals = [hks[k] for k in sorted(hks) if hks[k] > 0]
        # h_k grows with k (clusters get geographically larger).
        assert vals == sorted(vals)

    def test_h1_close_to_small_constant(self):
        """Level-1 clusters are 1-hop: intra-cluster distances ~1-2."""
        g, h = make(300, seed=5)
        rng = np.random.default_rng(6)
        hks = level_hop_counts(h, g, rng)
        assert 0 < hks[1] < 3.0

    @staticmethod
    def _level_hop_counts_per_source(h, g0, rng, clusters_per_level=8,
                                     sources_per_cluster=2):
        """The one-BFS-per-source loop the batched sampler replaced."""
        from repro.graphs import bfs_distances

        out = {}
        base_ids = h.levels[0].node_ids
        for k in range(1, h.num_levels + 1):
            anc = h.ancestry(k)
            heads = np.unique(anc)
            chosen = (heads if heads.size <= clusters_per_level else
                      rng.choice(heads, size=clusters_per_level, replace=False))
            total, count = 0.0, 0
            for head in chosen:
                members = base_ids[anc == head]
                if members.size < 2:
                    continue
                srcs = (members if members.size <= sources_per_cluster else
                        rng.choice(members, size=sources_per_cluster,
                                   replace=False))
                for s in srcs:
                    d = bfs_distances(g0, int(s))[np.searchsorted(base_ids, members)]
                    total += float(d[d > 0].sum())
                    count += int((d > 0).sum())
            out[k] = total / count if count else 0.0
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_batched_sampling_equals_per_source_loop(self, seed):
        """Same sources in the same RNG order, same means, same RNG
        state afterwards — on a sparse (disconnected) deployment too,
        and (seed 3) on a deeper hierarchy whose scoped floods stop at
        very different radii per level."""
        from repro.graphs import bfs_distances

        g, h = make(2000 if seed == 3 else 300, seed=seed,
                    degree=9.0 if seed else 4.0)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        assert level_hop_counts(h, g, rng_a) == \
            self._level_hop_counts_per_source(h, g, rng_b)
        got = mean_hop_count(g, rng_a, n_sources=8)
        total, count = 0.0, 0
        for s in rng_b.choice(g.node_ids, size=8, replace=False):
            d = bfs_distances(g, int(s))
            total += float(d[d > 0].sum())
            count += int((d > 0).sum())
        assert got == total / count
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
