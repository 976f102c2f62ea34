"""Tests for persisting runs: the run record (``RunManifest``) on disk.

A run is written as one JSON manifest; a sweep as one JSONL manifest
line per finished task (``repro sweep --manifest``).  Enough survives
the file to rebuild a sweep's aggregate table.
"""

import json

import numpy as np
import pytest

from repro.obs import RunManifest, write_jsonl
from repro.obs.manifest import SCHEMA
from repro.sim import (
    Scenario,
    expand_grid,
    run_scenario,
    run_sweep,
    sweep_points,
)
from tests.jsonl import read_jsonl


@pytest.fixture(scope="module")
def result():
    return run_scenario(Scenario(n=70, steps=6, warmup=2, speed=1.5, seed=4,
                                 max_levels=2, hop_mode="euclidean"))


class TestResultRoundtrip:
    def test_dict_is_json_safe(self, result):
        d = RunManifest.from_result(result).to_dict()
        json.dumps(d)  # must not raise
        assert d["schema"] == SCHEMA
        assert d["scenario"]["n"] == 70
        assert d["metrics"]["phi"] == result.phi

    def test_save_and_load(self, result, tmp_path):
        man = RunManifest.from_result(result)
        p = man.write(tmp_path / "runs" / "r1.json")
        assert p.exists()
        loaded = RunManifest.read(p)
        assert loaded == man
        assert loaded.metrics["gamma"] == result.gamma

    def test_stale_schema_rejected(self, result, tmp_path):
        p = RunManifest.from_result(result).write(tmp_path / "r.json")
        data = json.loads(p.read_text())
        data["schema"] = "repro.manifest/v0"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema"):
            RunManifest.read(p)

    def test_event_rates_serialized(self, result):
        metrics = RunManifest.from_result(result).metrics
        breakdown = result.ledger.reorg_event_breakdown()
        assert breakdown
        for kind, entry in breakdown.items():
            assert metrics[f"reorg_{kind}_count"] == entry["count"]
            assert metrics[f"reorg_{kind}_rate"] == entry["rate"]


class TestSweepRoundtrip:
    METRICS = {"f0": lambda r: r.f0}

    @pytest.fixture(scope="class")
    def results(self):
        base = Scenario(n=60, steps=4, warmup=1, speed=1.5,
                        hop_mode="euclidean", max_levels=2)
        return run_sweep(expand_grid(base, [60, 90], seeds=(0, 1)))

    def _stream(self, results, path):
        write_jsonl(path, [RunManifest.from_result(r).to_dict()
                           for r in results])
        return [RunManifest.from_dict(d) for d in read_jsonl(path)]

    def test_roundtrip(self, results, tmp_path):
        """The manifests of a sweep, read back, aggregate to the points
        the results themselves give."""
        loaded = self._stream(results, tmp_path / "sweep.jsonl")
        points = sweep_points(results, self.METRICS)
        assert [p.n for p in points] == [60, 90]
        for p in points:
            f0s = [m.metrics["f0"] for m in loaded if m.scenario["n"] == p.n]
            assert len(f0s) == p.seeds == 2
            assert p.values["f0"] == float(np.mean(f0s))

    def test_meta_preserved(self, results, tmp_path):
        loaded = self._stream(results, tmp_path / "s.jsonl")
        assert [(m.scenario["n"], m.scenario["seed"]) for m in loaded] == [
            (60, 0), (60, 1), (90, 0), (90, 1)]
        assert all(m.scenario["steps"] == 4 for m in loaded)

    def test_stale_schema_rejected(self, results, tmp_path):
        path = tmp_path / "s.jsonl"
        records = [RunManifest.from_result(r).to_dict() for r in results]
        records[1]["schema"] = "repro.manifest/v0"
        write_jsonl(path, records)
        with pytest.raises(ValueError):
            [RunManifest.from_dict(d) for d in read_jsonl(path)]
