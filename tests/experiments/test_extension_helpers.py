"""Functional tests for extension-experiment internals (small configs)."""

import pytest

from repro.analysis import levels_for
from repro.experiments.e_a6_query_staleness import _one_run
from repro.experiments.e_a7_state_stretch import _measure, _measure_steady
from repro.experiments.e_t8_gls_vs_chlm import _one_run as _gls_one_run
from repro.sim import Scenario


def staleness_run(n, speed, steps, seed):
    """EXP-A6's grade fractions for one run."""
    return _one_run(n, speed, steps, seed).extras["staleness"]


def stretch_measure(n, L, seed, **kwargs):
    """EXP-A7's per-seed measures on one static network."""
    return _measure(Scenario(n=n, max_levels=L, seed=seed), **kwargs)


def steady_measure(n, L, seed, **kwargs):
    """EXP-A7's measures over drifting snapshots."""
    return _measure_steady(Scenario(n=n, max_levels=L, seed=seed), **kwargs)


def gls_run(n, steps, warmup, seed):
    """EXP-T8's per-node rates for one run of its trace."""
    return _gls_one_run(Scenario(n=n, speed=1.0, steps=steps, warmup=warmup,
                                 max_levels=levels_for(n), seed=seed))


class TestStalenessHelper:
    def test_rates_are_distribution(self):
        rates = staleness_run(n=100, speed=1.0, steps=4, seed=0)
        assert set(rates) == {"exact", "routable", "stale", "unresolved"}
        assert sum(rates.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(0 <= v <= 1 for v in rates.values())

    def test_slower_is_more_exact(self):
        slow = staleness_run(n=100, speed=0.5, steps=6, seed=1)
        fast = staleness_run(n=100, speed=4.0, steps=6, seed=1)
        assert slow["exact"] > fast["exact"]


class TestStretchHelper:
    def test_measures(self):
        m = stretch_measure(n=120, L=3, seed=0, pairs=60)
        assert m["delivery"] > 0.9
        assert 1.0 <= m["stretch_mean"] < 2.5
        assert m["state"] < 120 - 1

    def test_shallower_hierarchy_more_state_less_stretch(self):
        deep = stretch_measure(n=150, L=4, seed=1, pairs=60)
        shallow = stretch_measure(n=150, L=1, seed=1, pairs=60)
        assert shallow["state"] > deep["state"]

    def test_steady_state_measures(self):
        m = steady_measure(n=120, L=3, seed=0, steps=4, pairs=30)
        assert m["delivery"] > 0.85
        assert 1.0 <= m["stretch_mean"] < 2.5
        assert 0 < m["state"] < 120 - 1


class TestGlsComparisonHelper:
    def test_rates_nonnegative(self):
        rates = gls_run(n=100, steps=5, warmup=3, seed=0)
        assert set(rates) == {
            "gls_handoff", "gls_update", "chlm_handoff", "chlm_reg"
        }
        assert all(v >= 0 for v in rates.values())

    def test_mobility_produces_traffic(self):
        rates = gls_run(n=100, steps=8, warmup=3, seed=1)
        assert rates["chlm_handoff"] > 0
        assert rates["gls_handoff"] + rates["gls_update"] > 0
