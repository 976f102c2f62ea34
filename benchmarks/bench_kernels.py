"""Microbenchmarks for the simulator's hot kernels.

These are conventional pytest-benchmark measurements (many rounds) of
the per-step operations whose cost bounds the sweep sizes: unit-disk
neighbor search, LCA election, hierarchy construction, CHLM assignment,
and a full simulator step.
"""

import numpy as np
import pytest

from repro.clustering import elect
from repro.core import full_assignment
from repro.geometry import disc_for_density
from repro.graphs import CompactGraph, bfs_distances
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges

N = 1000
DENSITY = 0.02
DEGREE = 9.0


@pytest.fixture(scope="module")
def deployment():
    region = disc_for_density(N, DENSITY)
    rng = np.random.default_rng(0)
    pts = region.sample(N, rng)
    r_tx = radius_for_degree(DEGREE, DENSITY)
    edges = unit_disk_edges(pts, r_tx)
    return pts, r_tx, edges


def test_bench_unit_disk_edges(benchmark, deployment):
    pts, r_tx, _ = deployment
    result = benchmark(unit_disk_edges, pts, r_tx)
    assert len(result) > N  # supercritical degree


def test_bench_lca_election(benchmark, deployment):
    _, _, edges = deployment
    ids = np.arange(N)
    result = benchmark(elect, ids, edges)
    assert result.n_clusters < N


def test_bench_build_hierarchy_radio(benchmark, deployment):
    pts, r_tx, edges = deployment
    h = benchmark(
        build_hierarchy,
        np.arange(N),
        edges,
        max_levels=4,
        level_mode="radio",
        positions=pts,
        r0=r_tx,
    )
    assert h.num_levels >= 2


def test_bench_full_assignment(benchmark, deployment):
    pts, r_tx, edges = deployment
    h = build_hierarchy(
        np.arange(N), edges, max_levels=4, level_mode="radio",
        positions=pts, r0=r_tx,
    )
    a = benchmark(full_assignment, h)
    # Levels 2..L plus the virtual global level: L entries per subject.
    assert sum(a.load().values()) == N * h.num_levels


@pytest.fixture(scope="module")
def step_pair(deployment):
    """Two snapshots one 1 m/s second apart (the event plane's regime)."""
    pts0, r_tx, _ = deployment
    heading = np.random.default_rng(1).uniform(0, 2 * np.pi, N)
    pts1 = pts0 + np.stack([np.cos(heading), np.sin(heading)], axis=1)
    return tuple(
        build_hierarchy(np.arange(N), unit_disk_edges(pts, r_tx), max_levels=4,
                        level_mode="radio", positions=pts, r0=r_tx)
        for pts in (pts0, pts1)
    )


def test_bench_diff_hierarchies(benchmark, step_pair):
    """Event detection between consecutive snapshots: every level in one
    level-stacked pass (struct-of-arrays columns; no per-event objects).
    Self-gated in check_bench_budget.py."""
    from repro.core import diff_hierarchies

    diff = benchmark.pedantic(diff_hierarchies, args=step_pair, rounds=30,
                              warmup_rounds=2)
    assert diff.mig_node.size > 0 and diff.reorg_kind.size > 0


def test_bench_patch_assignment(benchmark, step_pair):
    """Stage-wise CHLM patch across one step, its dirty cells included,
    vs test_bench_full_assignment for the rebuild it replaces.  The
    step's hierarchy diff, which the handoff engine computes on every
    step either way, is not timed."""
    from repro.core import diff_hierarchies, patch_assignment

    h0, h1 = step_pair
    assert h0.num_levels == h1.num_levels
    prev, diff = full_assignment(h0), diff_hierarchies(h0, h1)
    patched, dirty_rows = benchmark.pedantic(
        patch_assignment, args=(prev, h0, h1, diff), rounds=30,
        warmup_rounds=2)
    assert dirty_rows and all(
        np.array_equal(patched.tables[lvl], table)
        for lvl, table in full_assignment(h1).tables.items())


def test_bench_bfs_distances(benchmark, deployment):
    _, _, edges = deployment
    g = CompactGraph(np.arange(N), edges)
    d = benchmark(bfs_distances, g, 0)
    assert (d >= -1).all()


def test_bench_bfs_hops_batch(benchmark):
    """The exact hop meter on one snapshot: a fresh `BfsHops` and one
    `batch` of ~1000 pairs drawn from all sources, i.e. the all-pairs
    bit-parallel sweep plus one gather.  400 nodes, not the module's
    N = 1000: `hop_mode="auto"` sends only n <= 500 to this meter."""
    from repro.sim.hops import BfsHops

    n = 400
    rng = np.random.default_rng(0)
    pts = disc_for_density(n, DENSITY).sample(n, rng)
    g = CompactGraph(
        np.arange(n), unit_disk_edges(pts, radius_for_degree(DEGREE, DENSITY)))
    us, vs = rng.integers(0, n, size=(2, 1000))
    assert np.unique(us).size > 300

    hops = benchmark(lambda: BfsHops(g).batch(us, vs))
    assert hops.shape == us.shape and (hops[us == vs] == 0).all()
    assert hops.max() > 5


def test_bench_forwarding_fabric(benchmark, deployment):
    from repro.routing import ForwardingFabric

    pts, r_tx, edges = deployment
    h = build_hierarchy(
        np.arange(N), edges, max_levels=4, level_mode="radio",
        positions=pts, r0=r_tx,
    )
    g = CompactGraph(np.arange(N), edges)

    def full_build():
        # Tables are lazy: table_sizes() forces every flood record, so
        # this measures the complete construction cost.
        fab = ForwardingFabric(h, g)
        fab.table_sizes()
        return fab

    fab = benchmark.pedantic(full_build, rounds=5, iterations=1, warmup_rounds=1)
    assert fab.table_sizes().mean() > 0


HIERARCHY_N = 2000
"""Size of the hierarchy build benchmark."""


def test_bench_hierarchy_full_rebuild(benchmark):
    """One step's hierarchy on either plane: from-scratch build_hierarchy
    on a drifted steady-state snapshot."""
    n = HIERARCHY_N
    r_tx = radius_for_degree(DEGREE, DENSITY)
    rng = np.random.default_rng(0)
    pts0 = disc_for_density(n, DENSITY).sample(n, rng)
    pts1 = pts0 + rng.normal(scale=0.15, size=pts0.shape)
    e1 = unit_disk_edges(pts1, r_tx)
    h = benchmark(build_hierarchy, np.arange(n), e1, max_levels=3,
                  level_mode="radio", positions=pts1, r0=r_tx)
    assert h.num_levels >= 2


def test_bench_simulator_step(benchmark):
    from repro.sim import Scenario, Simulator

    sc = Scenario(n=400, steps=1, warmup=0, speed=1.0, hop_mode="euclidean",
                  max_levels=3, seed=0, hop_sample_every=10_000)

    def one_run():
        return Simulator(sc).run()

    res = benchmark.pedantic(one_run, rounds=3, iterations=1, warmup_rounds=1)
    assert res.elapsed > 0


def test_bench_chaos_step(benchmark):
    """Same step with the full chaos stack live — an active crash
    episode, a partition cut, and per-step invariant checking.  The
    budget gate holds this within CHAOS_BUDGET x of the plain step."""
    from repro.sim import Scenario, Simulator

    sc = Scenario(n=400, steps=1, warmup=0, speed=1.0, hop_mode="euclidean",
                  max_levels=3, seed=0, hop_sample_every=10_000,
                  chaos=("crash:rate=0.02,repair=10",
                         "partition:start=0,duration=100,angle=0.7"))

    def one_run():
        return Simulator(sc).run()

    res = benchmark.pedantic(one_run, rounds=3, iterations=1, warmup_rounds=1)
    assert res.extras["chaos"] is not None


def test_bench_simulator_step_profiled(benchmark):
    """Same step with phase timers on — tracks the instrumentation
    overhead (acceptance: within 5% of the plain step)."""
    from repro.sim import Scenario, Simulator

    sc = Scenario(n=400, steps=1, warmup=0, speed=1.0, hop_mode="euclidean",
                  max_levels=3, seed=0, hop_sample_every=10_000)

    def one_run():
        return Simulator(sc, profile=True).run()

    res = benchmark.pedantic(one_run, rounds=3, iterations=1, warmup_rounds=1)
    assert res.timings is not None and res.timings.steps == 1


@pytest.fixture(scope="module")
def snapshot_pair(deployment):
    """Two consecutive unit-disk edge lists (one mobility step apart)."""
    pts, r_tx, edges = deployment
    rng = np.random.default_rng(1)
    pts2 = pts + rng.normal(scale=r_tx * 0.1, size=pts.shape)
    return edges, unit_disk_edges(pts2, r_tx)


def test_bench_link_diff(benchmark, snapshot_pair):
    """The step's level-0 diff, run once per step: one ``searchsorted``
    of the new edge keys into the old ones."""
    from repro.radio.linkevents import link_diff

    diff = benchmark(link_diff, *snapshot_pair, N)
    assert diff.n_events > 0  # mobility produced link events


def test_bench_giant_fraction(benchmark, deployment):
    from repro.sim.kernels import giant_fraction

    _, _, edges = deployment

    def fresh_graph():
        # The graph caches its component labels, so every round labels a
        # new one; the CSR view is built outside the timed call.
        g = CompactGraph(np.arange(N), edges)
        g.sparse()
        return (g,), {}

    frac = benchmark.pedantic(giant_fraction, setup=fresh_graph, rounds=200)
    assert frac > 0.9  # supercritical deployment


QUERIES_BATCH = 1000


@pytest.fixture(scope="module")
def query_state(deployment):
    """Hierarchy + CHLM assignment + hop oracle + a query workload on
    the module deployment."""
    from repro.analysis import levels_for
    from repro.sim.hops import EuclideanHops

    pts, r_tx, edges = deployment
    h = build_hierarchy(
        np.arange(N), edges, max_levels=levels_for(N), level_mode="radio",
        positions=pts, r0=r_tx,
    )
    a = full_assignment(h)
    hop = EuclideanHops(pts, r_tx)
    rng = np.random.default_rng(7)
    src = rng.integers(0, N, size=QUERIES_BATCH)
    dst = rng.integers(0, N, size=QUERIES_BATCH)
    return h, a, hop, src, dst


def test_bench_batch_query(benchmark, query_state):
    """QUERIES_BATCH lookups through the vectorized resolver, gated on
    its own committed mean."""
    from repro.core import BatchResolver

    h, a, hop, src, dst = query_state
    resolver = BatchResolver(h, a, hop)
    resolver.resolve(src[:8], dst[:8])  # build the per-level tables once

    res = benchmark(resolver.resolve, src, dst)
    assert len(res) == QUERIES_BATCH and res.hits.all()


def test_bench_parallel_sweep_small(benchmark):
    """A 2-worker sweep of 4 small scenarios — spawn + fan-out overhead
    included, the wide-grid building block."""
    from repro.sim import Scenario, expand_grid, run_sweep

    base = Scenario(n=120, steps=5, warmup=1, speed=1.0,
                    hop_mode="euclidean", max_levels=2, hop_sample_every=1000)
    grid = expand_grid(base, [120], seeds=(0, 1, 2, 3))

    def one_sweep():
        return run_sweep(grid, workers=2)

    results = benchmark.pedantic(one_sweep, rounds=1, iterations=1)
    assert len(results) == 4 and all(r.f0 > 0 for r in results)
