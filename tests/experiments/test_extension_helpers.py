"""Functional tests for extension-experiment internals (small configs)."""

import pytest

from repro.experiments.e_a6_query_staleness import _one_run as staleness_run
from repro.experiments.e_a7_state_stretch import _measure as stretch_measure
from repro.experiments.e_a7_state_stretch import _measure_steady as steady_measure
from repro.experiments.e_t8_gls_vs_chlm import _one_run as gls_run


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
