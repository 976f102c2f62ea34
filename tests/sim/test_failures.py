"""Tests for crash/repair injection (a whole-run ``CrashEpisode`` in
``Scenario.chaos``) and address-lifetime metrics."""

import numpy as np
import pytest

from repro.faults import CrashEpisode
from repro.sim import Scenario, run_scenario


def crashes(rate, repair_time=20.0):
    """The Poisson crash/repair process at ``rate`` for the whole run."""
    return (CrashEpisode(rate=rate, repair_time=repair_time),)


class TestFailureValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            Scenario(chaos=("crash:rate=-0.1",))

    def test_zero_repair_rejected(self):
        with pytest.raises(ValueError, match="repair_time"):
            Scenario(chaos=("crash:rate=0.1,repair=0",))


class TestFailureInjection:
    def test_zero_rate_is_noop(self):
        """A crash process whose window never opens draws nothing and
        leaves the run unchanged."""
        idle = (CrashEpisode(start=1e6, rate=0.5),)
        a = run_scenario(Scenario(n=80, steps=8, warmup=2, speed=1.5,
                                  seed=4, max_levels=3, chaos=idle))
        b = run_scenario(Scenario(n=80, steps=8, warmup=2, speed=1.5,
                                  seed=4, max_levels=3))
        assert a.phi == b.phi
        assert a.gamma == b.gamma
        assert a.extras["chaos"].peak_down == 0

    def test_failures_change_dynamics(self):
        base = run_scenario(Scenario(n=100, steps=15, warmup=3, speed=1.0,
                                     seed=5, max_levels=3))
        failing = run_scenario(Scenario(n=100, steps=15, warmup=3, speed=1.0,
                                        seed=5, max_levels=3,
                                        chaos=crashes(0.02, 10.0)))
        # Heavy failure rate measurably changes link dynamics.
        assert failing.f0 != pytest.approx(base.f0)

    def test_stationary_with_failures_has_events(self):
        """Even with zero mobility, crashes alone produce link events
        and handoff — the isolated effect of the excluded factor."""
        res = run_scenario(Scenario(n=100, steps=20, warmup=0,
                                    mobility="stationary", seed=6,
                                    max_levels=3,
                                    chaos=crashes(0.01, 5.0)))
        assert res.f0 > 0
        assert res.handoff_rate > 0

    def test_determinism_with_failures(self):
        sc = Scenario(n=80, steps=10, warmup=2, speed=1.0, seed=7,
                      max_levels=3, chaos=crashes(0.01))
        assert run_scenario(sc).handoff_rate == pytest.approx(
            run_scenario(sc).handoff_rate
        )


class TestFailureMechanics:
    """White-box tests of the crash/repair model in the chaos engine."""

    @staticmethod
    def _sim(rate=None, repair_time=20.0, **kwargs):
        from repro.sim.engine import Simulator

        defaults = dict(n=50, steps=5, warmup=0, mobility="stationary",
                        seed=3, max_levels=2)
        defaults.update(kwargs)
        if rate is not None:
            defaults["chaos"] = crashes(rate, repair_time)
        return Simulator(Scenario(**defaults))

    def test_crashed_node_loses_all_edges(self):
        chaos = self._sim(rate=0.05)._chaos
        chaos.now = 10.0
        chaos.down_until[7] = 99.0  # node 7 is down
        edges = np.array([[7, 1], [2, 7], [2, 3], [4, 5]])
        kept = chaos.filter_edges(edges, np.zeros((50, 2)))
        assert 7 not in kept
        assert kept.tolist() == [[2, 3], [4, 5]]

    def test_recovery_after_repair_time(self):
        chaos = self._sim(rate=0.05, repair_time=5.0)._chaos
        chaos.now = 10.0
        chaos.down_until[7] = 12.0
        pos = np.zeros((50, 2))
        edges = np.array([[7, 1]])
        assert chaos.filter_edges(edges, pos).size == 0  # down at t=10
        chaos.now = 12.5  # repaired: down_until < now
        assert chaos.filter_edges(edges, pos).tolist() == [[7, 1]]

    def test_zero_rate_builds_no_chaos_engine(self):
        """No crash episode (and no other) must keep the fault path
        structurally absent — nothing to draw from, filter, or pickle."""
        sim = self._sim()
        assert sim._chaos is None

    def test_crash_schedule_seed_deterministic(self):
        def schedule(seed):
            chaos = self._sim(rate=0.2, repair_time=3.0, seed=seed)._chaos
            out = []
            for _ in range(20):
                chaos.advance(1.0)
                out.append(chaos.down_until.copy())
            return np.stack(out)

        assert np.array_equal(schedule(5), schedule(5))
        assert not np.array_equal(schedule(5), schedule(6))

    def test_crash_rate_tracks_poisson_intensity(self):
        """Over many node-steps the empirical crash probability matches
        1 - exp(-rate * dt)."""
        chaos = self._sim(n=2000, rate=0.1, repair_time=0.5, seed=1)._chaos
        crashes = 0
        trials = 0
        for _ in range(30):
            up_before = chaos.down_until < chaos.now + 1.0
            trials += int(up_before.sum())
            before = chaos.down_until.copy()
            chaos.advance(1.0)
            crashes += int((chaos.down_until != before).sum())
        expected = -np.expm1(-0.1 * 1.0)
        assert crashes / trials == pytest.approx(expected, rel=0.15)


class TestComponentLifetimes:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(Scenario(n=100, steps=20, warmup=5, speed=1.5,
                                     seed=8, max_levels=3))

    def test_lifetimes_positive(self, result):
        lifetimes = result.component_lifetimes()
        assert lifetimes
        assert all(t > 0 for t in lifetimes.values())

    def test_stationary_infinite_lifetime(self):
        res = run_scenario(Scenario(n=60, steps=6, warmup=0,
                                    mobility="stationary", seed=9,
                                    max_levels=2))
        lifetimes = res.component_lifetimes()
        assert all(np.isinf(t) for t in lifetimes.values())
