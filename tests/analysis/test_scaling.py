"""Tests for per-size sweep aggregation (``cached_sweep`` -> ``SweepPoint``)."""

import pytest

from repro.sim import Scenario, cached_sweep


@pytest.fixture(scope="module")
def tiny_sweep():
    base = Scenario(n=60, steps=6, warmup=2, speed=2.0, hop_mode="euclidean")
    return cached_sweep(
        [60, 120],
        base,
        metrics={"handoff": lambda r: r.handoff_rate, "f0": lambda r: r.f0},
        seeds=(0, 1),
        keep_results=True,
    )


class TestSweep:
    def test_points_per_n(self, tiny_sweep):
        assert [p.n for p in tiny_sweep] == [60, 120]
        for p in tiny_sweep:
            assert p.seeds == 2
            assert set(p.values) == {"handoff", "f0"}
            assert p["f0"] > 0
            assert p.stds["f0"] >= 0

    def test_results_kept(self, tiny_sweep):
        assert all(len(p.results) == 2 for p in tiny_sweep)

    def test_empty_metrics_rejected(self):
        with pytest.raises(ValueError):
            cached_sweep([10], Scenario(), metrics={})

    def test_scenario_hook(self):
        seen = []

        def hook(sc, n):
            seen.append(n)
            return sc

        cached_sweep(
            [60],
            Scenario(n=60, steps=3, warmup=1, hop_mode="euclidean"),
            metrics={"f0": lambda r: r.f0},
            seeds=(0,),
            scenario_for=hook,
        )
        assert seen == [60]
