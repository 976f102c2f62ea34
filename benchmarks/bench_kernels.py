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
    assert len(a.servers) == N * h.num_levels


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
    """Stage-wise CHLM patch across one step, vs test_bench_full_assignment
    for the rebuild it replaces."""
    from repro.core import patch_assignment
    from repro.hierarchy import compute_delta

    h0, h1 = step_pair
    prev, delta = full_assignment(h0), compute_delta(h0, h1)
    assert not delta.full
    patched, dirty_rows = benchmark.pedantic(
        patch_assignment, args=(prev, h1, delta), rounds=30, warmup_rounds=2)
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


def test_bench_fabric_incremental(benchmark):
    """Steady-state fabric maintenance: one FabricCache.update() under a
    small mobility drift (n=400, matching the simulator-step bench scale).
    Acceptance: within ~2x of a simulator step."""
    from repro.radio.linkevents import LinkTracker
    from repro.routing import FabricCache

    n = 400
    region = disc_for_density(n, DENSITY)
    r_tx = radius_for_degree(DEGREE, DENSITY)
    rng = np.random.default_rng(0)
    pts = region.sample(n, rng)

    def make_state():
        tracker = LinkTracker(n)
        cache = FabricCache()
        p = pts
        snaps = []
        for _ in range(2):
            edges = unit_disk_edges(p, r_tx)
            g = CompactGraph(np.arange(n), edges)
            h = build_hierarchy(np.arange(n), edges, max_levels=3,
                                level_mode="radio", positions=p, r0=r_tx)
            snaps.append((h, g, edges))
            p = p + rng.normal(scale=0.15, size=p.shape)
        h0, g0, e0 = snaps[0]
        cache.update(h0, g0, tracker.observe(e0))
        cache.fabric.table_sizes()
        return (cache, tracker, snaps[1]), {}

    def one_update(cache, tracker, snap):
        h, g, edges = snap
        fab = cache.update(h, g, tracker.observe(edges))
        fab.table_sizes()
        return cache.stats

    stats = benchmark.pedantic(one_update, setup=make_state, rounds=5)
    assert stats.rows_reused > 0  # the update actually reused flood state


HIERARCHY_N = 2000
"""Size of the patch-vs-rebuild pair.  It ran at n=400 until the rebuild
stopped row-sorting canonical edges; at that size the patch's fixed
per-level cost now makes the two planes cost the same (0.87-0.98x),
and the event-plane workloads run at n = 10^4 and 10^5."""


def _hierarchy_bench_state(n=HIERARCHY_N, drift=0.15):
    """Two consecutive snapshots of a drifting deployment (the
    simulator's steady state): positions + canonical edge arrays."""
    region = disc_for_density(n, DENSITY)
    r_tx = radius_for_degree(DEGREE, DENSITY)
    rng = np.random.default_rng(0)
    pts0 = region.sample(n, rng)
    pts1 = pts0 + rng.normal(scale=drift, size=pts0.shape)
    e0 = unit_disk_edges(pts0, r_tx)
    e1 = unit_disk_edges(pts1, r_tx)
    return r_tx, (pts0, e0), (pts1, e1)


def test_bench_hierarchy_full_rebuild(benchmark):
    """Baseline for the event plane: from-scratch build_hierarchy on the
    steady-state snapshot (what every non-incremental step pays)."""
    n = HIERARCHY_N
    r_tx, _, (pts1, e1) = _hierarchy_bench_state(n)
    h = benchmark(build_hierarchy, np.arange(n), e1, max_levels=3,
                  level_mode="radio", positions=pts1, r0=r_tx)
    assert h.num_levels >= 2


def test_bench_hierarchy_incremental(benchmark):
    """Steady-state hierarchy maintenance: one DeltaPlane.advance()
    under a small mobility drift — re-votes only the affected-node
    closure.  The budget check gates it on its own committed mean
    (``SELF_GATED``); ``test_bench_hierarchy_full_rebuild`` beside it is
    what a step pays without the plane.  20 rounds, because the gate
    compares means and one slow round in five used to multiply this one."""
    from repro.hierarchy import DeltaPlane, compute_delta

    n = HIERARCHY_N
    r_tx, (pts0, e0), (pts1, e1) = _hierarchy_bench_state(n)

    def make_state():
        plane = DeltaPlane(n, max_levels=3, level_mode="radio", r0=r_tx)
        return (plane, plane.advance(e0, pts0)), {}

    def one_advance(plane, prev):
        h = plane.advance(e1, pts1)
        compute_delta(prev, h)  # the step's full cost includes the delta
        return h

    h = benchmark.pedantic(one_advance, setup=make_state, rounds=20)
    assert h.num_levels >= 2


def test_bench_simulator_step(benchmark):
    from repro.sim import Scenario, Simulator

    sc = Scenario(n=400, steps=1, warmup=0, speed=1.0, hop_mode="euclidean",
                  max_levels=3, seed=0)

    def one_run():
        return Simulator(sc, hop_sample_every=10_000).run()

    res = benchmark.pedantic(one_run, rounds=3, iterations=1, warmup_rounds=1)
    assert res.elapsed > 0


def test_bench_chaos_step(benchmark):
    """Same step with the full chaos stack live — an active crash
    episode, a partition cut, and per-step invariant checking.  The
    budget gate holds this within CHAOS_BUDGET x of the plain step."""
    from repro.sim import Scenario, Simulator

    sc = Scenario(n=400, steps=1, warmup=0, speed=1.0, hop_mode="euclidean",
                  max_levels=3, seed=0,
                  chaos=("crash:rate=0.02,repair=10",
                         "partition:start=0,duration=100,angle=0.7"))

    def one_run():
        return Simulator(sc, hop_sample_every=10_000).run()

    res = benchmark.pedantic(one_run, rounds=3, iterations=1, warmup_rounds=1)
    assert res.extras["chaos"] is not None


def test_bench_service_step(benchmark):
    """Same step with the open-loop service front-end live — workload
    generation, admission, thread-pool resolution, and queueing for
    ~100 requests.  The budget gate holds this within SERVICE_BUDGET x
    of the plain step."""
    from repro.sim import Scenario, Simulator

    sc = Scenario(n=400, steps=1, warmup=0, speed=1.0, hop_mode="euclidean",
                  max_levels=3, seed=0,
                  arrival_rate=100.0, admission_rate=80.0)

    def one_run():
        return Simulator(sc, hop_sample_every=10_000).run()

    res = benchmark.pedantic(one_run, rounds=3, iterations=1, warmup_rounds=1)
    assert res.extras["service"].offered > 0


def test_bench_simulator_step_profiled(benchmark):
    """Same step with phase timers on — tracks the instrumentation
    overhead (acceptance: within 5% of the plain step)."""
    from repro.sim import Scenario, Simulator

    sc = Scenario(n=400, steps=1, warmup=0, speed=1.0, hop_mode="euclidean",
                  max_levels=3, seed=0)

    def one_run():
        return Simulator(sc, hop_sample_every=10_000, profile=True).run()

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
    """The step's level-0 diff where no Verlet diff is at hand (the
    full-rebuild plane, chaos filtering): one merge of the two edge-key
    arrays."""
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
                    hop_mode="euclidean", max_levels=2)
    grid = expand_grid(base, [120], seeds=(0, 1, 2, 3))

    def one_sweep():
        return run_sweep(grid, hop_sample_every=1000, workers=2)

    results = benchmark.pedantic(one_sweep, rounds=1, iterations=1)
    assert len(results) == 4 and all(r.f0 > 0 for r in results)
