"""Manifest and JSONL round-trip tests."""

import dataclasses
import inspect
import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.core.events import EventKind
from repro.core.handoff import EVENTS
from repro.obs import RunManifest, write_jsonl
from repro.sim import (
    Scenario,
    Simulator,
    TraceCollector,
    run_scenario,
    run_sweep,
    scenario_key,
    sweep_points,
)
from repro.sim.sweep import CODE_VERSION
from tests.jsonl import read_jsonl

SC = Scenario(n=60, steps=5, warmup=1, speed=1.5, seed=2,
              max_levels=2, hop_mode="euclidean", hop_sample_every=4)


@pytest.fixture(scope="module")
def profiled_result():
    return run_scenario(SC, profile=True)


class TestRunManifest:
    def test_from_result_provenance(self, profiled_result):
        man = RunManifest.from_result(profiled_result)
        assert man.scenario_key == scenario_key(SC)
        assert man.code_version == CODE_VERSION
        assert man.scenario["n"] == 60
        assert man.platform["python"]
        assert man.platform["numpy"] == np.__version__

    def test_from_result_cost_and_metrics(self, profiled_result):
        man = RunManifest.from_result(profiled_result)
        assert man.wall_seconds > 0
        assert man.phases == profiled_result.timings.totals
        assert man.metrics["phi"] == profiled_result.phi
        assert man.metrics["elapsed_sim_seconds"] == profiled_result.elapsed

    def test_unprofiled_result_gives_empty_cost(self):
        res = run_scenario(SC)
        man = RunManifest.from_result(res)
        assert man.wall_seconds == 0.0
        assert man.phases == {}
        assert man.peak_rss_mb == 0.0

    def test_profiled_run_records_the_process_peak_rss(self, profiled_result):
        """The peak is read once, at the end of the run, from
        ``ru_maxrss``: at least this process's footprint, and no more
        than its peak now."""
        resource = pytest.importorskip("resource")
        man = RunManifest.from_result(profiled_result)
        assert man.peak_rss_mb == profiled_result.timings.peak_rss_mb
        now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert 10 < man.peak_rss_mb <= now

    def test_manifest_without_peak_rss_reads_back(self, profiled_result):
        """A manifest written before the peak was recorded loads with 0."""
        old = RunManifest.from_result(profiled_result).to_dict()
        del old["peak_rss_mb"]
        assert RunManifest.from_dict(old).peak_rss_mb == 0.0

    def test_json_round_trip(self, profiled_result):
        man = RunManifest.from_result(profiled_result)
        assert RunManifest.from_json(man.to_json()) == man

    def test_file_round_trip(self, profiled_result, tmp_path):
        man = RunManifest.from_result(profiled_result)
        path = man.write(tmp_path / "nested" / "run.json")
        assert RunManifest.read(path) == man

    def test_burst_loss_run_records_its_loss(self):
        """Loss that comes only from a burst episode is loss all the
        same: the manifest records the retransmission, abandonment and
        recovery metrics, as it does for a base loss rate."""
        res = run_scenario(replace(
            SC, chaos=("burst:start=1,duration=3,rate=0.4",)))
        metrics = RunManifest.from_result(res).metrics
        assert metrics["retransmission_rate"] == \
            res.ledger.retransmission_rate > 0
        assert metrics["abandonment_rate"] == res.ledger.abandonment_rate
        assert metrics["mean_recovery_time"] == res.ledger.mean_recovery_time

    def test_lossless_run_records_no_loss_metrics(self, profiled_result):
        metrics = RunManifest.from_result(profiled_result).metrics
        assert "retransmission_rate" not in metrics

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            RunManifest.from_dict({"schema": "repro.manifest/v999",
                                   "scenario_key": "x", "code_version": "1"})


class TestJsonl:
    def test_write_read_round_trip(self, tmp_path):
        records = [{"a": 1}, {"b": [1.5, "x"]}, {"c": {"d": None}}]
        path = tmp_path / "out.jsonl"
        assert write_jsonl(path, records) == 3
        assert read_jsonl(path) == records

    def test_numpy_values_coerced(self, tmp_path):
        path = tmp_path / "np.jsonl"
        write_jsonl(path, [{"n": np.int64(7), "x": np.float64(1.5)}])
        assert read_jsonl(path) == [{"n": 7, "x": 1.5}]

    def test_manifest_stream(self, profiled_result, tmp_path):
        man = RunManifest.from_result(profiled_result)
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [man.to_dict(), man.to_dict()])
        back = [RunManifest.from_dict(d) for d in read_jsonl(path)]
        assert back == [man, man]


class TestTraceRoundTrip:
    """The event trace and the chaos report are manifest sections."""

    @pytest.fixture(scope="class")
    def traced(self):
        res = Simulator(
            replace(SC, chaos=("partition:start=1,duration=2",)),
            collectors=[TraceCollector()]).run()
        assert res.extras["trace"]["events"] and "chaos" in res.extras
        return res

    def test_records_round_trip(self, traced):
        """The ``trace`` section is the collector's records; the
        ``chaos`` section is ``asdict`` of the run's chaos report."""
        man = RunManifest.from_result(traced)
        assert man.trace == traced.extras["trace"]
        assert man.chaos == dataclasses.asdict(traced.extras["chaos"])
        assert man.chaos["episodes"][0]["kind"] == "partition"

    def test_jsonl_file_round_trip(self, traced, tmp_path):
        man = RunManifest.from_result(traced)
        assert RunManifest.read(man.write(tmp_path / "run.json")) == man

    def test_open_file_handles(self, traced, tmp_path):
        man = RunManifest.from_result(traced)
        path = tmp_path / "runs.jsonl"
        with path.open("w") as fh:
            assert write_jsonl(fh, [man.to_dict()]) == 1
        assert [RunManifest.from_dict(d) for d in read_jsonl(path)] == [man]

    def test_manifest_without_sections_reads_back_empty(self, traced):
        """A manifest written before the sections existed reads back
        with all three empty, under the same schema string."""
        old = RunManifest.from_result(traced).to_dict()
        del old["series"], old["trace"], old["chaos"]
        back = RunManifest.from_dict(old)
        assert back.series == back.trace == back.chaos == {}
        assert back.schema == "repro.manifest/v1"


class TestSeries:
    """The ``series`` section: each metered step's migration and
    reorganisation packets per level, straight from the ledger."""

    def test_steps_sum_to_the_per_level_rates(self, profiled_result):
        lg = profiled_result.ledger
        series = RunManifest.from_result(profiled_result).series
        scale = lg.n_nodes * lg.elapsed
        for name, rates in (("migration_packets", lg.phi_k()),
                            ("reorg_packets", lg.gamma_k())):
            steps = series[name]
            assert len(steps) == len(lg.tables) == profiled_result.scenario.steps
            assert all(type(v) is int for row in steps for v in row)
            totals = [sum(level) for level in itertools.zip_longest(*steps, fillvalue=0)]
            assert rates and {k: totals[k] / scale for k in rates} == rates
            assert not any(t for k, t in enumerate(totals) if k not in rates)

    def test_stale_entries_are_the_ledgers_stale_column(self, profiled_result):
        lg = profiled_result.ledger
        stale = RunManifest.from_result(profiled_result).series["stale_entries"]
        assert stale == lg.stale_series
        assert len(stale) == len(lg.flats) == profiled_result.scenario.steps
        assert all(type(v) is int for v in stale)

    def test_round_trips_through_json(self, profiled_result):
        import json

        man = RunManifest.from_result(profiled_result)
        assert man.series["reorg_packets"]
        assert RunManifest.from_dict(json.loads(man.to_json())).series == man.series


class TestReorgBreakdown:
    def test_manifest_carries_event_taxonomy(self, profiled_result):
        """(i)-(vii) counts and rates surface as JSON-safe metrics, and
        agree with the ledger's own breakdown."""
        m = RunManifest.from_result(profiled_result)
        bd = profiled_result.ledger.reorg_event_breakdown()
        assert bd  # a mobile run produces reorg events
        for kind, entry in bd.items():
            assert m.metrics[f"reorg_{kind}_count"] == entry["count"]
            assert m.metrics[f"reorg_{kind}_rate"] == entry["rate"]
        # Round-trips through JSON untouched.
        import json

        back = RunManifest.from_dict(json.loads(m.to_json()))
        for kind in bd:
            assert back.metrics[f"reorg_{kind}_count"] == bd[kind]["count"]

    def test_breakdown_sums_levels(self, profiled_result):
        lg = profiled_result.ledger
        bd = lg.reorg_event_breakdown()
        assert bd
        for column, kind in enumerate(tuple(EventKind)[1:], start=EVENTS + 1):
            expect = sum(int(t[column].sum()) for t in lg.tables)
            assert bd.get(kind.value, {"count": 0})["count"] == expect


class TestCadenceHasOneHome:
    """A run's hop-sampling cadence is set on its ``Scenario`` and nowhere
    else, so the result, its manifest and the sweep cache all report the
    cadence the run used."""

    SC = Scenario(n=60, steps=6, hop_sample_every=4)

    def test_result_and_manifest_report_the_cadence(self):
        res = run_scenario(self.SC)
        assert res.scenario.hop_sample_every == 4
        assert RunManifest.from_result(res).scenario["hop_sample_every"] == 4
        # And the run sampled at it: metered steps 0 and 4 of 0..5.
        assert len(res.h_network) == 2

    def test_manifest_key_is_the_cache_file_stem(self, tmp_path):
        (res,) = run_sweep([self.SC], cache_dir=tmp_path)
        (entry,) = tmp_path.glob("*.pkl")
        key = RunManifest.from_result(res).scenario_key
        assert key == entry.stem == scenario_key(self.SC)
        assert key != scenario_key(replace(self.SC, hop_sample_every=25))

    def test_cadence_zero_is_refused_by_the_scenario(self):
        with pytest.raises(ValueError, match="hop_sample_every must be >= 1"):
            replace(self.SC, hop_sample_every=0)

    @pytest.mark.parametrize("fn", [
        Simulator.__init__, run_scenario, run_sweep, sweep_points,
        scenario_key, RunManifest.from_result,
    ], ids=lambda fn: fn.__qualname__)
    def test_no_entry_point_overrides_the_cadence(self, fn):
        assert "hop_sample_every" not in inspect.signature(fn).parameters

    def test_checkpoint_carries_no_cadence_of_its_own(self):
        """A checkpoint is the pickled simulator, which reads the
        cadence off its scenario and keeps no copy."""
        assert "hop_sample_every" not in vars(Simulator(self.SC))
