"""Tests for scenario presets."""

import pytest

from repro.faults import CrashEpisode
from repro.sim import PRESETS, Scenario, make_scenario, run_scenario


class TestPresets:
    def test_all_presets_valid(self):
        for name in PRESETS:
            sc = make_scenario(name, n=50, steps=3, warmup=1)
            assert isinstance(sc, Scenario)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            make_scenario("mars-rover")

    def test_overrides_win(self):
        sc = make_scenario("paper-default", speed=3.0, n=77)
        assert sc.speed == 3.0
        assert sc.n == 77

    def test_expected_regimes(self):
        assert make_scenario("squads").mobility == "group"
        assert make_scenario("sensor-field").mobility == "stationary"
        (crash,) = make_scenario("sensor-field").chaos
        assert isinstance(crash, CrashEpisode) and crash.rate > 0
        assert make_scenario("vehicular").mobility == "gauss_markov"

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_runnable(self, name):
        sc = make_scenario(name, n=60, steps=3, warmup=1,
                           hop_mode="euclidean", max_levels=2, seed=1,
                           hop_sample_every=10)
        res = run_scenario(sc)
        assert res.elapsed > 0

    def test_sensor_field_crashes_nodes(self):
        """The preset's whole-run crash episode takes nodes down in a
        short run."""
        sc = make_scenario("sensor-field", n=200, steps=20, warmup=1,
                           hop_mode="euclidean", seed=0)
        assert run_scenario(sc).extras["chaos"].peak_down > 0
