"""`BfsHops`: the hop matrix agrees with a scalar link-state oracle (one
`bfs_distances` row per source), pair by pair, and is filled only when
asked."""

import numpy as np
import pytest

import repro.sim.hops
from repro.faults import ChaosEngine, CrashEpisode, PartitionEpisode
from repro.graphs import SOURCE_BLOCK, CompactGraph, bfs_distances
from repro.radio import unit_disk_edges
from repro.sim.hops import BfsHops


def _snapshot(n, seed=0, r_tx=1.8):
    """Unit-disk snapshot at mean degree ~10: mostly one component,
    with a few stragglers cut off."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, np.sqrt(n), size=(n, 2))
    return pts, unit_disk_edges(pts, r_tx)


def _pairs(rng, n, size):
    """Aligned ID arrays with repeated sources and some ``u == v``."""
    us = rng.choice(rng.choice(n, size=max(size // 4, 1)), size=size)
    vs = rng.integers(0, n, size=size)
    vs[::7] = us[::7]
    return us, vs


def _oracle(g):
    """Scalar hop count u -> v from one cached BFS row per source."""
    rows = {}

    def hop_count(u, v):
        if u not in rows:
            rows[u] = bfs_distances(g, u)
        return int(rows[u][g.index_of(v)])

    return hop_count


def _assert_matches_oracle(g, us, vs):
    hops = BfsHops(g)
    got = hops.batch(us, vs)
    assert got.dtype == np.int64 and got.shape == us.shape
    oracle = _oracle(g)
    scalar = BfsHops(g)
    for u, v, h in zip(us.tolist(), vs.tolist(), got.tolist()):
        assert h == oracle(u, v) == scalar(u, v) == hops(u, v)
    return got


@pytest.fixture
def counted_rows(monkeypatch):
    """Every `hop_rows` call `BfsHops` makes, as the source indices it
    asked for."""
    calls = []
    real = repro.sim.hops.hop_rows

    def counting(g, sources_idx):
        calls.append(np.array(sources_idx))
        return real(g, sources_idx)

    monkeypatch.setattr(repro.sim.hops, "hop_rows", counting)
    return calls


class TestEquivalence:
    # 700 crosses the one-sweep rule: rows are computed per call there.
    @pytest.mark.parametrize("n", [60, 300, 700])
    def test_unit_disk_snapshots(self, n):
        _, edges = _snapshot(n, seed=n)
        g = CompactGraph(np.arange(n), edges)
        us, vs = _pairs(np.random.default_rng(1), n, 400)
        got = _assert_matches_oracle(g, us, vs)
        assert (got[::7] == 0).all() and got.max() > 3

    def test_rows_arrive_over_several_calls(self):
        n = 700
        _, edges = _snapshot(n, seed=5)
        g = CompactGraph(np.arange(n), edges)
        hops, oracle = BfsHops(g), _oracle(g)
        rng = np.random.default_rng(2)
        # Few sources (scipy rows), then many (bit-parallel rows), then a
        # mix of held and new ones: one store, whatever filled it.
        for size in (30, 900, 200):
            us, vs = rng.integers(0, n, size=size), rng.integers(0, n, size=size)
            got = hops.batch(us, vs).tolist()
            assert got == [oracle(u, v)
                           for u, v in zip(us.tolist(), vs.tolist())]

    def test_chaos_filtered_edges(self):
        n = 300
        pts, edges = _snapshot(n, seed=9)
        crashed = (3, 50, 51, 299)
        chaos = ChaosEngine(n, (
            CrashEpisode(nodes=crashed, repair_time=100.0),
            PartitionEpisode(angle=0.3, offset=float(np.sqrt(n)) / 2),
        ), np.random.default_rng(0))
        chaos.advance(1.0)
        assert chaos.down_mask().sum() == len(crashed)
        cut = chaos.filter_edges(edges, pts)
        assert 0 < len(cut) < len(edges)
        g = CompactGraph(np.arange(n), cut)
        rng = np.random.default_rng(4)
        us, vs = _pairs(rng, n, 500)
        us[:8] = np.repeat(crashed, 2)  # crashed sources: isolated rows
        got = _assert_matches_oracle(g, us, vs)
        assert (got[:8][vs[:8] != us[:8]] == -1).all()
        assert (got < 0).mean() > 0.25  # the cut: about half the pairs

    def test_empty_batch(self, counted_rows):
        hops = BfsHops(CompactGraph(range(3), [[0, 1]]))
        out = hops.batch(np.empty(0, dtype=np.int64), [])
        assert out.shape == (0,) and out.dtype == np.int64
        assert counted_rows == []


class TestUnknownIds:
    """Scalar and batch spellings reject the same IDs, `u == v` or not."""

    @pytest.mark.parametrize("u,v", [(9, 9), (0, 9), (9, 0), (-1, -1)])
    def test_key_error_either_way(self, u, v):
        g = CompactGraph(range(5), [[0, 1], [1, 2]])
        with pytest.raises(KeyError):
            BfsHops(g)(u, v)
        with pytest.raises(KeyError):
            BfsHops(g).batch([u], [v])


class TestLaziness:
    def test_unqueried_snapshot_runs_no_bfs(self, counted_rows):
        _, edges = _snapshot(200)
        BfsHops(CompactGraph(np.arange(200), edges))
        assert counted_rows == []

    def test_one_sweep_graph_fills_every_row_on_first_use(self, counted_rows):
        n = SOURCE_BLOCK
        _, edges = _snapshot(n, seed=1)
        hops = BfsHops(CompactGraph(np.arange(n), edges))
        assert hops(5, 17) >= -1
        assert [c.tolist() for c in counted_rows] == [list(range(n))]
        hops.batch(np.arange(n), np.arange(n)[::-1])
        hops(400, 2)
        assert len(counted_rows) == 1

    def test_larger_graph_computes_only_missing_sources(self, counted_rows):
        n = SOURCE_BLOCK + 88
        _, edges = _snapshot(n, seed=2)
        hops = BfsHops(CompactGraph(np.arange(n), edges))
        vs = np.arange(6)
        hops.batch([7, 3, 7, 500, 3, 7], vs)
        assert [c.tolist() for c in counted_rows] == [[3, 7, 500]]
        hops.batch([500, 3, 3, 7, 7, 7], vs)  # all held: nothing computed
        hops(7, 599)
        assert len(counted_rows) == 1
        hops.batch([3, 8, 599, 8, 500, 7], vs)
        assert [c.tolist() for c in counted_rows[1:]] == [[8, 599]]
