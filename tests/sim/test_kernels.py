"""Equivalence tests: vectorized step kernels vs the original
pure-Python implementations they replaced.

The reference implementations here are verbatim ports of the seed
engine's set-based level diff and deque-BFS giant-component sweep.  The
giant-component kernel must agree with its reference on random graphs,
including the empty-edge and single-node corners; the per-level key
diff (``tests/sim/levels_oracle.py``, the level-series oracle since the
simulator reads those counts off the step's one hierarchy diff) must
agree with python sets.
"""

from collections import deque

import numpy as np
import pytest

from repro.geometry import disc_for_density
from repro.graphs import SWEEP_NODES, CompactGraph
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges
from repro.radio.unit_disk import encode_edges
from repro.sim.kernels import giant_fraction

from .levels_oracle import (
    EMPTY_KEYS,
    count_drift,
    diff_keys,
    level_edge_keys,
)


# -- reference implementations (the seed engine's originals) ------------------------


def ref_level_edge_sets(h):
    return {
        lvl.k: (
            {tuple(e) for e in lvl.edges.tolist()},
            set(lvl.node_ids.tolist()),
        )
        for lvl in h.levels
        if lvl.k >= 1
    }


def ref_diff_and_drift(before, nodes_before, after, nodes_after):
    changed = before ^ after
    persistent = nodes_before & nodes_after
    drift = sum(1 for u, v in changed if u in persistent and v in persistent)
    return len(changed), drift


def ref_giant_fraction(g: CompactGraph) -> float:
    seen = np.zeros(g.n, dtype=bool)
    best = 0
    for start in range(g.n):
        if seen[start]:
            continue
        size = 0
        q = deque([start])
        seen[start] = True
        while q:
            u = q.popleft()
            size += 1
            for w in g.neighbors_idx(u):
                if not seen[w]:
                    seen[w] = True
                    q.append(w)
        best = max(best, size)
    return best / g.n


def random_edges(rng, n, m):
    """Canonical (u < v, unique) random edge array over nodes 0..n-1."""
    if m == 0 or n < 2:
        return np.empty((0, 2), dtype=np.int64)
    e = rng.integers(0, n, size=(m, 2))
    e = e[e[:, 0] != e[:, 1]]
    e = np.sort(e, axis=1)
    return np.unique(e, axis=0).astype(np.int64)


# -- edge-diff kernel ---------------------------------------------------------------


class TestDiffKernel:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_set_symmetric_difference(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        e1 = random_edges(rng, n, 120)
        e2 = random_edges(rng, n, 120)
        k1 = np.sort(encode_edges(e1, n))
        k2 = np.sort(encode_edges(e2, n))
        changed = diff_keys(k1, k2)
        ref = {tuple(e) for e in e1.tolist()} ^ {tuple(e) for e in e2.tolist()}
        assert changed.size == len(ref)
        got = {(int(k) // n, int(k) % n) for k in changed}
        assert got == ref

    def test_empty_vs_empty(self):
        assert diff_keys(EMPTY_KEYS, EMPTY_KEYS).size == 0

    def test_empty_vs_nonempty(self):
        rng = np.random.default_rng(0)
        e = random_edges(rng, 20, 30)
        keys = np.sort(encode_edges(e, 20))
        assert diff_keys(EMPTY_KEYS, keys).size == keys.size
        assert diff_keys(keys, EMPTY_KEYS).size == keys.size

    def test_identical_snapshots(self):
        rng = np.random.default_rng(1)
        keys = np.sort(encode_edges(random_edges(rng, 30, 60), 30))
        assert diff_keys(keys, keys.copy()).size == 0


class TestDriftKernel:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_set_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 40
        e1, e2 = random_edges(rng, n, 100), random_edges(rng, n, 100)
        ids1 = np.unique(rng.integers(0, n, size=25)).astype(np.int64)
        ids2 = np.unique(rng.integers(0, n, size=25)).astype(np.int64)
        k1 = np.sort(encode_edges(e1, n))
        k2 = np.sort(encode_edges(e2, n))
        changed = diff_keys(k1, k2)
        drift = count_drift(changed, n, ids1, ids2)
        ref_changed, ref_drift = ref_diff_and_drift(
            {tuple(e) for e in e1.tolist()}, set(ids1.tolist()),
            {tuple(e) for e in e2.tolist()}, set(ids2.tolist()),
        )
        assert changed.size == ref_changed
        assert drift == ref_drift

    def test_no_changes(self):
        assert count_drift(EMPTY_KEYS, 10, np.arange(5), np.arange(5)) == 0

    def test_no_persistent_nodes(self):
        keys = np.sort(encode_edges(np.array([[0, 1], [2, 3]]), 10))
        assert count_drift(keys, 10, np.array([0, 1]), np.array([8, 9])) == 0


class TestLevelEdgeKeys:
    def test_matches_reference_on_hierarchy(self):
        rng = np.random.default_rng(7)
        n = 80
        pts = rng.uniform(0, 60, size=(n, 2))
        from repro.radio import unit_disk_edges

        edges = unit_disk_edges(pts, 12.0)
        h = build_hierarchy(np.arange(n), edges, max_levels=3,
                            level_mode="radio", positions=pts, r0=12.0)
        keys = level_edge_keys(h, n)
        ref = ref_level_edge_sets(h)
        assert set(keys) == set(ref)
        for k, (key_arr, id_arr) in keys.items():
            ref_edges, ref_ids = ref[k]
            assert {(int(x) // n, int(x) % n) for x in key_arr} == ref_edges
            assert set(id_arr.tolist()) == ref_ids
            # the form the diff kernels assume
            assert np.all(np.diff(key_arr) > 0) or key_arr.size <= 1


# -- giant-component kernel ---------------------------------------------------------


class TestGiantFraction:
    @pytest.mark.parametrize("seed,n,m", [
        (0, 30, 25), (1, 50, 10), (2, 50, 200), (3, 10, 0), (4, 100, 99),
    ])
    def test_matches_bfs_reference(self, seed, n, m):
        rng = np.random.default_rng(seed)
        g = CompactGraph(np.arange(n), random_edges(rng, n, m))
        assert giant_fraction(g) == pytest.approx(ref_giant_fraction(g))

    def test_single_node(self):
        g = CompactGraph([0], np.empty((0, 2), dtype=np.int64))
        assert giant_fraction(g) == 1.0

    def test_no_edges(self):
        g = CompactGraph(np.arange(8), np.empty((0, 2), dtype=np.int64))
        assert giant_fraction(g) == pytest.approx(1 / 8)

    def test_fully_connected(self):
        n = 6
        e = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
        g = CompactGraph(np.arange(n), e)
        assert giant_fraction(g) == 1.0

    def test_two_components(self):
        e = np.array([[0, 1], [1, 2], [3, 4]])
        g = CompactGraph(np.arange(5), e)
        assert giant_fraction(g) == pytest.approx(3 / 5)


class TestGiantShortcut:
    """Regime pins for the giant component read off a hop sample's own
    whole rows: a sample plus ``giant_fraction`` label the components
    (scipy ``connected_components``) only on a graph none of those rows
    spanned, on both sides of the one-sweep rule, and return the
    per-source oracle's means and the labelled giant either way."""

    @pytest.mark.parametrize("n", [400, SWEEP_NODES + 200])
    @pytest.mark.parametrize("degree,fragmented", [(9.0, False),
                                                   (2.0, True)])
    def test_components_run_only_without_a_spanning_row(
            self, n, degree, fragmented, monkeypatch):
        import scipy.sparse.csgraph

        from repro.analysis import levels_for
        from repro.hierarchy import sample_hop_counts
        from tests.hierarchy.hop_oracle import hop_counts_per_source

        pts = disc_for_density(n, 0.02).sample(n, np.random.default_rng(n))
        edges = unit_disk_edges(pts, radius_for_degree(degree, 0.02))
        h = build_hierarchy(np.arange(n), edges, max_levels=levels_for(n))
        g = CompactGraph(np.arange(n), edges)
        calls = []
        real = scipy.sparse.csgraph.connected_components
        monkeypatch.setattr(scipy.sparse.csgraph, "connected_components",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        got = sample_hop_counts(g, rng_a, n_sources=8, h=h,
                                clusters_per_level=6, sources_per_cluster=2)
        frac = giant_fraction(g)
        assert len(calls) == fragmented
        monkeypatch.undo()

        assert got == hop_counts_per_source(
            np.arange(n), edges, rng_b, n_sources=8, h=h,
            clusters_per_level=6, sources_per_cluster=2)
        fresh = CompactGraph(np.arange(n), edges)
        sizes = np.bincount(fresh.components())
        assert type(frac) is float and frac == sizes.max() / n
        assert (2 * sizes.max() <= n) == fragmented
