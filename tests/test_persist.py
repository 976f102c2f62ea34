"""Tests for result persistence."""

import json

import pytest

from repro.persist import (
    SCHEMA_VERSION,
    load_result_dict,
    load_sweep,
    result_to_dict,
    save_result,
    save_sweep,
)
from repro.sim import Scenario, cached_sweep, run_scenario
from repro.sim.metrics import SweepPoint


@pytest.fixture(scope="module")
def result():
    return run_scenario(Scenario(n=70, steps=6, warmup=2, speed=1.5, seed=4,
                                 max_levels=2, hop_mode="euclidean"))


class TestResultRoundtrip:
    def test_dict_is_json_safe(self, result):
        d = result_to_dict(result)
        json.dumps(d)  # must not raise
        assert d["schema"] == SCHEMA_VERSION
        assert d["scenario"]["n"] == 70
        assert d["phi"] == result.phi

    def test_save_and_load(self, result, tmp_path):
        p = save_result(result, tmp_path / "runs" / "r1.json")
        assert p.exists()
        loaded = load_result_dict(p)
        assert loaded["gamma"] == result.gamma
        assert loaded["f_k"] == {str(k): v for k, v in result.ledger.f_k().items()}

    def test_stale_schema_rejected(self, result, tmp_path):
        p = save_result(result, tmp_path / "r.json")
        data = json.loads(p.read_text())
        data["schema"] = 99
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema"):
            load_result_dict(p)

    def test_event_rates_serialized(self, result):
        d = result_to_dict(result)
        for key in d["reorg_event_rates"]:
            kind, level = key.split("@")
            assert kind and int(level) >= 1


class TestSweepRoundtrip:
    @pytest.fixture(scope="class")
    def points(self):
        base = Scenario(n=60, steps=4, warmup=1, speed=1.5,
                        hop_mode="euclidean", max_levels=2)
        return cached_sweep([60, 90], base, {"f0": lambda r: r.f0}, seeds=(0,))

    def test_roundtrip(self, points, tmp_path):
        p = save_sweep(points, tmp_path / "sweep.json", meta={"exp": "T1"})
        loaded = load_sweep(p)
        assert all(isinstance(q, SweepPoint) for q in loaded)
        assert [q.n for q in loaded] == [60, 90]
        for a, b in zip(points, loaded):
            assert a.values == b.values
            assert a.stds == b.stds
            assert a.seeds == b.seeds

    def test_meta_preserved(self, points, tmp_path):
        p = save_sweep(points, tmp_path / "s.json", meta={"exp": "T4"})
        assert json.loads(p.read_text())["meta"]["exp"] == "T4"

    def test_stale_schema_rejected(self, points, tmp_path):
        p = save_sweep(points, tmp_path / "s.json")
        data = json.loads(p.read_text())
        data["schema"] = 0
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_sweep(p)
