"""Tests for per-size sweep aggregation (``sweep_points`` -> ``SweepPoint``)."""

import pytest

from repro.sim import Scenario, expand_grid, run_sweep, sweep_points


@pytest.fixture(scope="module")
def tiny_sweep():
    base = Scenario(n=60, steps=6, warmup=2, speed=2.0, hop_mode="euclidean")
    return sweep_points(
        run_sweep(expand_grid(base, [60, 120], seeds=(0, 1))),
        {"handoff": lambda r: r.handoff_rate, "f0": lambda r: r.f0},
    )


class TestSweep:
    def test_points_per_n(self, tiny_sweep):
        assert [p.n for p in tiny_sweep] == [60, 120]
        for p in tiny_sweep:
            assert p.seeds == 2
            assert set(p.values) == {"handoff", "f0"}
            assert p["f0"] > 0
            assert p.stds["f0"] >= 0

    def test_empty_metrics_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            sweep_points([], {})

    def test_scenario_hook(self):
        seen = []

        def hook(sc, n):
            seen.append(n)
            return sc

        grid = expand_grid(
            Scenario(n=60, steps=3, warmup=1, hop_mode="euclidean"),
            [60], seeds=(0,), scenario_for=hook,
        )
        (point,) = sweep_points(run_sweep(grid), {"f0": lambda r: r.f0})
        assert seen == [60] and point.n == 60
