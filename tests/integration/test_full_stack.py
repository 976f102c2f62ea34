"""Cross-module integration tests: the whole pipeline, end to end."""

import numpy as np
import pytest

from repro.core import (
    HandoffEngine,
    full_assignment,
    lm_levels,
    resolve_batch,
)
from repro.core.handoff import MIG_PACKETS, REORG_PACKETS
from repro.geometry import disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import build_hierarchy
from repro.mobility import RandomWaypoint
from repro.radio import radius_for_degree, unit_disk_edges
from repro.routing import ForwardingFabric
from repro.sim import BfsHops, Scenario, run_scenario
from tests.core.descent_oracle import server_map


DENSITY = 0.02
DEGREE = 9.0


def deploy(n, seed):
    region = disc_for_density(n, DENSITY)
    rng = np.random.default_rng(seed)
    pts = region.sample(n, rng)
    r_tx = radius_for_degree(DEGREE, DENSITY)
    edges = unit_disk_edges(pts, r_tx)
    h = build_hierarchy(np.arange(n), edges, max_levels=3,
                        level_mode="radio", positions=pts, r0=r_tx)
    return pts, r_tx, edges, h


class TestStaticPipeline:
    @pytest.fixture(scope="class")
    def net(self):
        return deploy(250, seed=0)

    def test_every_connected_pair_queryable(self, net):
        """Any node can resolve any reachable node: query -> address ->
        hierarchical route, end to end."""
        pts, r_tx, edges, h = net
        g = CompactGraph(np.arange(250), edges)
        flat = BfsHops(g)
        fabric = ForwardingFabric(h, g)
        assignment = full_assignment(h)
        rng = np.random.default_rng(1)
        done = 0
        for _ in range(30):
            s, d = (int(x) for x in rng.integers(0, 250, size=2))
            if s == d or flat(s, d) < 0:
                continue
            q = resolve_batch(h, assignment, [s], [d], flat).result(0)
            assert q.hit_level >= 1, (s, d)
            assert q.address == h.address(d)
            # The resolved address suffices to route: last element is d.
            assert q.address[-1] == d
            res = fabric.forward(s, d, address=q.address)
            assert res.delivered and res.path[-1] == d
            assert res.hops >= flat(s, d)
            done += 1
        assert done > 15

    def test_database_and_assignment_agree(self, net):
        *_, h = net
        a = full_assignment(h)
        assert sum(a.load().values()) == len(server_map(a))
        assert len(server_map(a)) == 250 * (lm_levels(h) - 1)

    def test_server_load_balance(self, net):
        *_, h = net
        load = full_assignment(h).load()
        values = np.zeros(250)
        for node, count in load.items():
            values[node] = count
        # Theta(log n) duty: bounded skew.
        assert values.max() <= 25 * max(values.mean(), 1)


class TestMobilePipeline:
    def test_consistency_of_meters(self):
        """phi + gamma from the ledger equals the sum of step reports."""
        n = 120
        region = disc_for_density(n, DENSITY)
        rng = np.random.default_rng(2)
        model = RandomWaypoint(n, region, 1.5, rng)
        r_tx = radius_for_degree(DEGREE, DENSITY)
        engine = HandoffEngine()

        def build(pts):
            edges = unit_disk_edges(pts, r_tx)
            return build_hierarchy(np.arange(n), edges, max_levels=3,
                                   level_mode="radio", positions=pts, r0=r_tx)

        def hop(u, v):
            return 0 if u == v else 1

        engine.observe(build(model.positions.copy()), hop)
        total_phi = total_gamma = 0
        for _ in range(10):
            model.step(1.0)
            rep = engine.observe(build(model.positions.copy()), hop)
            total_phi += rep.phi_packets
            total_gamma += rep.gamma_packets
            # Per-report consistency.
            assert rep.phi_packets == rep.counts[MIG_PACKETS].sum()
            assert rep.gamma_packets == rep.counts[REORG_PACKETS].sum()
        assert total_phi + total_gamma > 0

    def test_simulator_matches_manual_loop(self):
        """run_scenario is a faithful wrapper: same seed, same phi."""
        sc = Scenario(n=80, steps=10, warmup=3, speed=2.0, seed=9,
                      max_levels=3)
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a.phi == b.phi
        assert np.array_equal(a.ledger.table(), b.ledger.table())

    def test_hop_modes_agree_in_shape(self):
        """Euclidean metering should track BFS metering within a small
        constant factor (it estimates the same distances)."""
        bfs = run_scenario(Scenario(n=100, steps=15, warmup=5, speed=1.5,
                                    seed=4, hop_mode="bfs", max_levels=3))
        euc = run_scenario(Scenario(n=100, steps=15, warmup=5, speed=1.5,
                                    seed=4, hop_mode="euclidean", max_levels=3))
        total_b = bfs.handoff_rate
        total_e = euc.handoff_rate
        assert total_b > 0 and total_e > 0
        assert 0.4 < total_e / total_b < 2.5


class TestScaleSanity:
    def test_deeper_hierarchy_more_lm_levels(self):
        pts1, r1, e1, h_small = deploy(80, seed=5)
        assert lm_levels(h_small) >= 2
        a = full_assignment(h_small)
        subjects = {s for s, _ in server_map(a)}
        assert subjects == set(range(80))
