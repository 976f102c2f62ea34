"""Batch query engine vs the scalar oracle — bit-identical, always.

`repro.core.batch_query` resolves CHLM queries with array ops; these
tests fuzz it against the per-query climb in `descent_oracle.resolve`
over randomized hierarchies, both hashes, stale/patched assignments,
missing-server entries, and the lossy per-request replay path.  Equality
is exact (`QueryResult ==`), never approximate.
"""

import numpy as np
import pytest

from repro.core import (
    BatchResolver,
    full_assignment,
    resolve_batch,
)
from repro.core.batch_query import batch_hops
from repro.geometry import disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import build_hierarchy, compute_delta
from repro.radio import radius_for_degree, unit_disk_edges
from repro.sim.hops import BfsHops, EuclideanHops

from .descent_oracle import assignment_from_mapping, resolve, server_map

DENSITY = 0.02
R_TX = radius_for_degree(9.0, DENSITY)


def deployment(n, seed, max_levels=None, drift_steps=0, drift=0.6):
    """(hierarchy, positions, edges) after `drift_steps` mobility steps."""
    rng = np.random.default_rng(seed)
    pts = disc_for_density(n, DENSITY).sample(n, rng)
    for _ in range(drift_steps):
        pts = pts + rng.normal(scale=drift, size=pts.shape)
    edges = unit_disk_edges(pts, R_TX)
    h = build_hierarchy(np.arange(n), edges, max_levels=max_levels)
    return h, pts, edges


def random_pairs(n, q, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=q)
    dst = rng.integers(0, n, size=q)
    dst[: q // 10] = src[: q // 10]  # force some trivial self-queries
    return src.astype(np.int64), dst.astype(np.int64)


def assert_batch_matches_scalar(h, assignment, src, dst, hop_fn):
    out = resolve_batch(h, assignment, src, dst, hop_fn)
    for i in range(len(out)):
        ref = resolve(h, assignment, int(src[i]), int(dst[i]), hop_fn)
        assert out.result(i) == ref, (i, int(src[i]), int(dst[i]))
    return out


class TestLosslessEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [40, 150])
    def test_fuzz_euclidean(self, n, seed):
        h, pts, _ = deployment(n, seed)
        assignment = full_assignment(h)
        src, dst = random_pairs(n, 200, seed + 100)
        out = assert_batch_matches_scalar(
            h, assignment, src, dst, EuclideanHops(pts, R_TX))
        assert out.hits.all()  # fresh assignment: every query resolves

    @pytest.mark.parametrize("seed", [0, 5])
    def test_fuzz_bfs(self, seed):
        h, _, edges = deployment(100, seed)
        assignment = full_assignment(h)
        src, dst = random_pairs(100, 120, seed + 7)
        hop_fn = BfsHops(CompactGraph(np.arange(100), edges))
        assert_batch_matches_scalar(h, assignment, src, dst, hop_fn)

    def test_capped_hierarchy(self):
        """max_levels forces the virtual global level to carry load."""
        h, pts, _ = deployment(150, 9, max_levels=2)
        assignment = full_assignment(h)
        src, dst = random_pairs(150, 150, 42)
        assert_batch_matches_scalar(
            h, assignment, src, dst, EuclideanHops(pts, R_TX))

    def test_stale_assignment_misses(self):
        """Queries against an assignment from an older topology — the
        handoff engine's effective-assignment situation — must miss at
        exactly the same levels as the scalar path."""
        h_old, _, _ = deployment(120, 3)
        stale = full_assignment(h_old)
        h_new, pts, _ = deployment(120, 3, drift_steps=3)
        src, dst = random_pairs(120, 200, 11)
        out = assert_batch_matches_scalar(
            h_new, stale, src, dst, EuclideanHops(pts, R_TX))
        assert not out.hits.all()  # staleness visibly degrades

    def test_missing_server_entries(self):
        """Deleted (subject, level) entries — abandoned transfers leave
        holes — can never satisfy the hit test."""
        h, pts, _ = deployment(100, 4)
        servers = server_map(full_assignment(h))
        rng = np.random.default_rng(0)
        keys = list(servers)
        for k in rng.choice(len(keys), size=len(keys) // 3, replace=False):
            del servers[keys[int(k)]]
        assignment = assignment_from_mapping(servers, np.arange(100))
        src, dst = random_pairs(100, 200, 13)
        assert_batch_matches_scalar(
            h, assignment, src, dst, EuclideanHops(pts, R_TX))

    def test_chain_rehash_assignment(self):
        """The incremental plane's patched assignment (dirty-chain
        re-hash) resolves identically to the scalar oracle."""
        from repro.core import patch_assignment

        rng = np.random.default_rng(6)
        n = 120
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        h = build_hierarchy(np.arange(n), unit_disk_edges(pts, R_TX),
                            max_levels=3, level_mode="radio",
                            positions=pts, r0=R_TX)
        chained = full_assignment(h)
        for _ in range(3):
            pts = pts + rng.normal(scale=0.6, size=pts.shape)
            h_next = build_hierarchy(np.arange(n), unit_disk_edges(pts, R_TX),
                                     max_levels=3, level_mode="radio",
                                     positions=pts, r0=R_TX)
            delta = compute_delta(h, h_next)
            chained, _ = patch_assignment(chained, h_next, delta)
            h = h_next
            src, dst = random_pairs(n, 150, 21)
            assert_batch_matches_scalar(
                h, chained, src, dst, EuclideanHops(pts, R_TX))

    def test_resolver_reuse_and_validation(self):
        h, pts, _ = deployment(60, 1)
        resolver = BatchResolver(h, full_assignment(h), EuclideanHops(pts, R_TX))
        a = resolver.resolve(np.array([0, 1]), np.array([2, 3]))
        b = resolver.resolve(np.array([0, 1]), np.array([2, 3]))
        assert np.array_equal(a.packets, b.packets)
        with pytest.raises(ValueError):
            resolver.resolve(np.array([0, 1]), np.array([2]))
        with pytest.raises(KeyError):
            resolver.resolve(np.array([0]), np.array([999]))


def lossy_delivery(seed):
    from repro.faults import DeliveryEngine, LossModel, RetryPolicy

    return DeliveryEngine(
        loss=LossModel(rate=0.25),
        retry=RetryPolicy(max_attempts=3),
        rng=np.random.default_rng(seed),
    )


class TestLossyPlans:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_walk_matches_scalar_per_request(self, seed):
        """Per-request engines (one delivery engine per query): walking
        a precomputed plan consumes the request RNG exactly like the
        scalar resolve, so packets/outcomes match bit-for-bit."""
        h, pts, _ = deployment(100, seed)
        assignment = full_assignment(h)
        hop_fn = EuclideanHops(pts, R_TX)
        src, dst = random_pairs(100, 150, seed + 50)
        plans = BatchResolver(h, assignment, hop_fn).plans(src, dst)
        for i in range(len(plans)):
            packets, hit_level, server, probes = plans.walk(
                i, lossy_delivery(seed * 1000 + i))
            ref = resolve(h, assignment, int(src[i]), int(dst[i]), hop_fn,
                          delivery=lossy_delivery(seed * 1000 + i))
            assert (packets, hit_level, probes) == (
                ref.packets, ref.hit_level, ref.probes)
            assert server == (-1 if ref.server is None else ref.server)

    def test_walk_matches_scalar_shared_engine(self):
        """One shared sequential engine (the query collector pattern):
        walking plans in query order replays the exact same RNG draw
        sequence as the scalar loop."""
        h, pts, _ = deployment(100, 7)
        assignment = full_assignment(h)
        hop_fn = EuclideanHops(pts, R_TX)
        src, dst = random_pairs(100, 120, 77)
        shared_a = lossy_delivery(123)
        shared_b = lossy_delivery(123)
        plans = BatchResolver(h, assignment, hop_fn).plans(src, dst)
        for i in range(len(plans)):
            packets, hit_level, _, probes = plans.walk(i, shared_a)
            ref = resolve(h, assignment, int(src[i]), int(dst[i]), hop_fn,
                          delivery=shared_b)
            assert (packets, hit_level, probes) == (
                ref.packets, ref.hit_level, ref.probes)

    def test_lossless_walk_matches_resolve(self):
        """delivery=None walks reduce to the lossless result."""
        h, pts, _ = deployment(80, 3)
        assignment = full_assignment(h)
        hop_fn = EuclideanHops(pts, R_TX)
        src, dst = random_pairs(80, 100, 5)
        resolver = BatchResolver(h, assignment, hop_fn)
        out = resolver.resolve(src, dst)
        plans = resolver.plans(src, dst)
        for i in range(len(plans)):
            packets, hit_level, server, probes = plans.walk(i, None)
            assert packets == out.packets[i]
            assert hit_level == out.hit_level[i]
            assert server == out.server[i]
            assert probes == out.probes[i]


class TestBatchHops:
    def test_euclidean_bit_identical(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 50, size=(300, 2))
        hop_fn = EuclideanHops(pts, 2.5, detour=1.3)
        us = rng.integers(0, 300, size=500)
        vs = rng.integers(0, 300, size=500)
        vs[:50] = us[:50]
        got = hop_fn.batch(us, vs)
        for i in range(500):
            assert got[i] == hop_fn(int(us[i]), int(vs[i]))

    @pytest.mark.parametrize("r_tx,detour", [(2.5, 1.3), (1.0, 1.0),
                                              (0.7, 1.7)])
    def test_euclidean_bit_identical_at_hop_boundaries(self, r_tx, detour):
        """Pairs whose ``detour * distance / r_tx`` is a whole number,
        give or take the last bit, are where ``ceil`` reads every
        rounding of the in-place sequence; ``u == v`` reads 0, and
        coincident distinct nodes 1."""
        step = r_tx / detour
        k = np.arange(40)
        angle = np.linspace(0.0, np.pi / 2, 7)
        ring = (k[:, None, None] * step * np.stack(
            (np.cos(angle), np.sin(angle)), axis=-1)[None]).reshape(-1, 2)
        origin = np.array([[3.0, -1.0]])
        pts = np.concatenate((origin, origin + ring, origin))
        hop_fn = EuclideanHops(pts, r_tx, detour=detour)
        last = len(pts) - 1
        us = np.concatenate((np.zeros(len(pts), np.int64), np.arange(last)))
        vs = np.concatenate((np.arange(len(pts)), np.arange(last)))
        got = hop_fn.batch(us, vs)
        want = [hop_fn(int(u), int(v)) for u, v in zip(us, vs)]
        assert got.dtype == np.int64 and got.tolist() == want
        assert got[len(pts):].tolist() == [0] * last
        assert got[0] == 0 and got[last] == 1  # u == v; coincident
        # The multiples land on both sides of the integers.
        dx, dy = (pts[1:-1] - origin).T
        ratio = detour * np.sqrt(dx * dx + dy * dy) / r_tx
        assert (ratio > k.repeat(7)).any() and (ratio < k.repeat(7)).any()

    def test_bfs_matches_and_flags_unreachable(self):
        # two disconnected components -> -1 across the cut
        edges = np.array([[0, 1], [1, 2], [3, 4]])
        hop_fn = BfsHops(CompactGraph(np.arange(5), edges))
        us = np.array([0, 0, 2, 3, 4, 1])
        vs = np.array([2, 3, 2, 4, 0, 1])
        got = hop_fn.batch(us, vs)
        assert got.tolist() == [hop_fn(int(u), int(v))
                                for u, v in zip(us, vs)]
        assert got[1] == -1 and got[4] == -1

    def test_generic_fallback(self):
        got = batch_hops(lambda u, v: abs(u - v), np.array([5, 2]),
                         np.array([1, 9]))
        assert got.tolist() == [4, 7]
