"""Integration-grade tests for the simulation engine."""

import numpy as np
import pytest

from repro.sim import Scenario, Simulator, run_scenario


@pytest.fixture(scope="module")
def small_result():
    sc = Scenario(n=100, steps=20, warmup=3, speed=3.0, seed=7,
                  hop_sample_every=10)
    return run_scenario(sc)


class TestBasicRun:
    def test_runs_and_reports(self, small_result):
        res = small_result
        assert res.elapsed == pytest.approx(20.0)
        assert res.f0 > 0
        assert res.handoff_rate >= 0
        assert res.mean_degree > 3

    def test_levels_recorded(self, small_result):
        levels = small_result.level_series.levels()
        assert 0 in levels and 1 in levels
        assert small_result.level_series.mean_size(0) == 100

    def test_hop_samples_collected(self, small_result):
        assert small_result.h_network
        assert small_result.mean_h() > 1.0
        hks = small_result.mean_h_k()
        assert hks  # at least one level sampled

    def test_state_stats_present(self, small_result):
        assert 0 in small_result.state_stats
        s = small_result.state_stats[0]
        assert 0 < s.p_state1 < 1
        assert s.samples > 0

    def test_p_levels_vector(self, small_result):
        p = small_result.p_levels()
        assert p and all(0 <= x <= 1 for x in p)

    def test_g_prime_k(self, small_result):
        gp = small_result.g_prime_k()
        assert all(v >= 0 for v in gp.values())


class TestDeterminism:
    def test_same_seed_same_result(self):
        sc = Scenario(n=60, steps=8, warmup=2, speed=4.0, seed=42,
                      hop_sample_every=4)
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a.phi == pytest.approx(b.phi)
        assert a.gamma == pytest.approx(b.gamma)
        assert a.f0 == pytest.approx(b.f0)

    def test_different_seed_differs(self):
        a = run_scenario(Scenario(n=60, steps=8, warmup=2, speed=4.0, seed=1))
        b = run_scenario(Scenario(n=60, steps=8, warmup=2, speed=4.0, seed=2))
        assert a.f0 != pytest.approx(b.f0)


class TestStationaryControl:
    def test_zero_mobility_zero_overhead(self):
        """mu = 0: the paper's model predicts no handoff at all."""
        sc = Scenario(
            n=80, steps=10, warmup=0, mobility="stationary", seed=3
        )
        res = run_scenario(sc)
        assert res.phi == 0.0
        assert res.gamma == 0.0
        assert res.f0 == 0.0
        assert res.ledger.registration_rate == 0.0


class TestModesAndVariants:
    def test_euclidean_hop_mode(self):
        sc = Scenario(n=80, steps=8, warmup=2, speed=3.0, hop_mode="euclidean", seed=5)
        res = run_scenario(sc)
        assert res.handoff_rate > 0

    def test_max_levels_cap(self):
        sc = Scenario(n=100, steps=6, warmup=2, speed=3.0, max_levels=2, seed=8)
        res = run_scenario(sc)
        assert max(res.level_series.levels()) <= 2

    def test_group_mobility(self):
        sc = Scenario(
            n=60, steps=8, warmup=2, speed=3.0, mobility="group",
            mobility_kwargs={"n_groups": 4, "group_radius": 20.0}, seed=9,
        )
        res = run_scenario(sc)
        assert res.f0 >= 0


class TestPhysicalSanity:
    def test_slower_nodes_less_churn(self):
        """f_0 = Theta(mu / R_tx): halving speed should roughly halve the
        link change frequency."""
        fast = run_scenario(Scenario(n=100, steps=15, warmup=3, speed=4.0, seed=11))
        slow = run_scenario(Scenario(n=100, steps=15, warmup=3, speed=1.0, seed=11))
        assert slow.f0 < fast.f0
        ratio = fast.f0 / slow.f0
        assert 2.0 < ratio < 8.0

    def test_handoff_increases_with_speed(self):
        fast = run_scenario(Scenario(n=100, steps=15, warmup=3, speed=4.0, seed=12))
        slow = run_scenario(Scenario(n=100, steps=15, warmup=3, speed=0.5, seed=12))
        assert fast.handoff_rate > slow.handoff_rate
