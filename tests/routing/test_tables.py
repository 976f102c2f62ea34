"""Tests for routing-table size accounting (EXP-T9 substrate)."""

import numpy as np
import pytest

from repro.geometry import disc_for_density
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges
from repro.routing import flat_table_size, hierarchical_table_sizes


def make_hierarchy(n, seed=0, density=0.02, degree=9.0):
    region = disc_for_density(n, density)
    rng = np.random.default_rng(seed)
    pts = region.sample(n, rng)
    edges = unit_disk_edges(pts, radius_for_degree(degree, density))
    return build_hierarchy(np.arange(n), edges)


def scalar_table_size(h, v):
    """Oracle: one node's map size counted off its clusters — peers in
    its level-1 cluster plus sibling clusters at every higher level."""
    if h.num_levels == 0:
        return 0
    total = int(h.members0(1, h.cluster_of(v, 1)).size) - 1
    for k in range(1, h.num_levels):
        total += int(h.clusters(k + 1)[h.cluster_of(v, k + 1)].size) - 1
    return total


class TestHierarchicalTableSize:
    def test_pair(self):
        h = build_hierarchy([1, 2], [[1, 2]])
        # Level-1 cluster {1,2}: one peer each; no higher levels with
        # siblings.
        assert hierarchical_table_sizes(h).tolist() == [1, 1]

    def test_single_node(self):
        h = build_hierarchy([5], np.empty((0, 2)))
        assert hierarchical_table_sizes(h).tolist() == [0]

    def test_vectorized_matches_scalar(self):
        h = make_hierarchy(120, seed=1)
        sizes = hierarchical_table_sizes(h)
        for v in range(0, 120, 13):
            assert sizes[v] == scalar_table_size(h, v)

    def test_much_smaller_than_flat(self):
        n = 400
        h = make_hierarchy(n, seed=2)
        sizes = hierarchical_table_sizes(h)
        assert sizes.mean() < flat_table_size(n) / 4

    def test_grows_sublinearly(self):
        """Mean hierarchical table size should grow much slower than n."""
        means = []
        for n in (100, 400):
            h = make_hierarchy(n, seed=3)
            means.append(hierarchical_table_sizes(h).mean())
        growth = means[1] / means[0]
        assert growth < 4.0 * 0.75  # far below the linear factor of 4
