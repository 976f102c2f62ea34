"""Tests for the parallel sweep runner and its result cache."""

from dataclasses import replace

import numpy as np
import pytest

import repro.sim.sweep as sweep_mod
from repro.sim import (
    Scenario,
    expand_grid,
    run_scenario,
    run_sweep,
    scenario_key,
    sweep_points,
)
from tests.fingerprint import fingerprint

BASE = Scenario(n=60, steps=5, warmup=1, speed=1.5, hop_mode="euclidean",
                max_levels=2, hop_sample_every=4)


class TestExpandGrid:
    def test_sizes_times_seeds(self):
        grid = expand_grid(BASE, [60, 90], seeds=(0, 1, 2))
        assert [(s.n, s.seed) for s in grid] == [
            (60, 0), (60, 1), (60, 2), (90, 0), (90, 1), (90, 2),
        ]

    def test_hook_applied_before_seeding(self):
        grid = expand_grid(
            BASE, [60], seeds=(5,),
            scenario_for=lambda sc, n: replace(sc, max_levels=1),
        )
        assert grid[0].max_levels == 1 and grid[0].seed == 5

    def test_no_sizes_varies_seeds_only(self):
        grid = expand_grid(BASE, None, seeds=(0, 1))
        assert [(s.n, s.seed) for s in grid] == [(60, 0), (60, 1)]


class TestDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        grid = expand_grid(BASE, [60, 90], seeds=(0, 1))
        serial = run_sweep(grid, workers=0)
        parallel = run_sweep(grid, workers=2)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.scenario == b.scenario
            assert fingerprint(a) == fingerprint(b)
            assert np.array_equal(a.final_positions, b.final_positions)

    def test_cached_sweep_matches_analysis_sweep(self):
        """The parallel runner's aggregates equal an independent serial
        loop of run_scenario + np.mean / np.std over the same grid."""
        metrics = {"total": lambda r: r.handoff_rate, "f0": lambda r: r.f0}
        grid = expand_grid(BASE, [60, 90], seeds=(0, 1))
        points = sweep_points(run_sweep(grid, workers=2), metrics)
        assert [p.n for p in points] == [60, 90]
        for p in points:
            runs = [run_scenario(replace(BASE, n=p.n, seed=seed))
                    for seed in (0, 1)]
            for name, fn in metrics.items():
                samples = [float(fn(r)) for r in runs]
                assert p.values[name] == float(np.mean(samples))
                assert p.stds[name] == float(np.std(samples))

    def test_serial_and_parallel_caches_byte_identical(self, tmp_path):
        """A result that crossed the executor pipe is stored exactly as
        one that never left the process."""
        grid = expand_grid(BASE, [60], seeds=(0, 1))
        run_sweep(grid, workers=0, cache_dir=tmp_path / "serial")
        run_sweep(grid, workers=2, cache_dir=tmp_path / "parallel")
        entries = sorted(p.name for p in (tmp_path / "serial").glob("*.pkl"))
        assert len(entries) == 2
        for name in entries:
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "parallel" / name).read_bytes())


class TestCache:
    def test_second_invocation_hits_cache(self, tmp_path, monkeypatch):
        grid = expand_grid(BASE, [60], seeds=(0, 1))
        first = run_sweep(grid, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.pkl"))) == 2

        # Any attempt to simulate now is a bug: results must come purely
        # from the cache.
        def boom(args):
            raise AssertionError("cache miss: re-simulated a cached run")

        monkeypatch.setattr(sweep_mod, "_run_task", boom)
        second = run_sweep(grid, cache_dir=tmp_path)
        for a, b in zip(first, second):
            assert fingerprint(a) == fingerprint(b)

    def test_progress_reports_cache_hits(self, tmp_path):
        grid = expand_grid(BASE, [60], seeds=(0,))
        run_sweep(grid, cache_dir=tmp_path)
        events = []
        run_sweep(grid, cache_dir=tmp_path,
                  progress=events.append)
        assert [e.from_cache for e in events] == [True]
        assert events[-1].done == events[-1].total == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        grid = expand_grid(BASE, [60], seeds=(0,))
        key = scenario_key(grid[0])
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        res = run_sweep(grid, cache_dir=tmp_path)
        assert res[0].phi >= 0  # re-simulated, and
        serial = run_sweep(grid)
        assert fingerprint(res[0]) == fingerprint(serial[0])

    def test_truncated_entry_is_a_miss_and_self_heals(self, tmp_path):
        """A pickle cut off mid-write (crash during a non-atomic copy,
        disk full...) must re-simulate, then overwrite the bad entry."""
        grid = expand_grid(BASE, [60], seeds=(0,))
        first = run_sweep(grid, cache_dir=tmp_path)
        path = tmp_path / f"{scenario_key(grid[0])}.pkl"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        again = run_sweep(grid, cache_dir=tmp_path)
        assert fingerprint(again[0]) == fingerprint(first[0])
        assert path.read_bytes() == blob  # entry rewritten whole

    def test_wrong_object_type_is_a_miss(self, tmp_path):
        """A valid pickle of the wrong type (cache dir shared with other
        tooling) must be treated as a miss, not returned as a result."""
        import pickle

        grid = expand_grid(BASE, [60], seeds=(0,))
        path = tmp_path / f"{scenario_key(grid[0])}.pkl"
        path.write_bytes(pickle.dumps({"not": "a SimResult"}))
        res = run_sweep(grid, cache_dir=tmp_path)
        assert fingerprint(res[0]) == fingerprint(
            run_sweep(grid)[0]
        )

    def test_corrupt_entry_through_cached_sweep(self, tmp_path):
        """End-to-end: a sweep over a poisoned cache still returns
        correct aggregates."""
        metrics = {"total": lambda r: r.handoff_rate}
        grid = expand_grid(BASE, [60], seeds=(0,))
        clean = sweep_points(run_sweep(grid), metrics)
        for sc in grid:
            bad = tmp_path / f"{scenario_key(sc)}.pkl"
            bad.write_bytes(b"\x80\x04garbage")
        poisoned = sweep_points(run_sweep(grid, cache_dir=tmp_path), metrics)
        assert poisoned[0].values == clean[0].values

    def test_failed_store_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A store that dies mid-write (disk full, Ctrl-C) must not leave
        its ``<key>.pkl.tmp-<pid>`` behind; the next sweep just re-runs."""
        grid = expand_grid(BASE, [60], seeds=(0,))

        def dump_then_die(obj, fh, protocol=None):
            fh.write(b"partial")
            raise OSError("disk full")

        with monkeypatch.context() as patched:
            patched.setattr(sweep_mod.pickle, "dump", dump_then_die)
            with pytest.raises(OSError, match="disk full"):
                run_sweep(grid, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        res = run_sweep(grid, cache_dir=tmp_path)
        assert [p.suffix for p in tmp_path.iterdir()] == [".pkl"]
        assert fingerprint(res[0]) == fingerprint(
            run_sweep(grid)[0]
        )

    def test_no_cache_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_sweep(expand_grid(BASE, [60], seeds=(0,)))
        assert not list(tmp_path.rglob("*.pkl"))


def _points(ns, seeds, metrics, **kwargs):
    """``sweep_points`` over a serial ``run_sweep`` of BASE's grid."""
    return sweep_points(run_sweep(expand_grid(BASE, ns, seeds)), metrics,
                        **kwargs)


class TestCachedSweepShapes:
    """Regressions: ``expand_grid`` accepts ns=None and any iterable, and
    the points follow it (an aggregator that re-read the size axis used
    to crash on None and return zero points for a generator consumed
    during grid expansion)."""

    METRICS = {"total": lambda r: r.handoff_rate}

    def test_ns_none_falls_back_to_base_size(self):
        points = _points(None, (0, 1), self.METRICS)
        assert [p.n for p in points] == [BASE.n]
        assert points[0].seeds == 2
        explicit = _points([BASE.n], (0, 1), self.METRICS)
        assert points[0].values == explicit[0].values

    def test_generator_ns_yields_every_point(self):
        lazy = _points((n for n in [60, 90]), (0,), self.METRICS)
        eager = _points([60, 90], (0,), self.METRICS)
        assert [p.n for p in lazy] == [60, 90]
        assert [(p.n, p.values) for p in lazy] == \
            [(p.n, p.values) for p in eager]

    def test_numpy_ns_axis(self):
        points = _points(np.array([60, 90]), (0,), self.METRICS)
        assert [p.n for p in points] == [60, 90]
        assert all(type(p.n) is int for p in points)

    def test_groups_by_size_in_first_appearance_order(self):
        """Points follow the results' sizes, not a sorted axis, and a
        failed task's ``None`` hole is skipped rather than counted."""
        results = run_sweep(expand_grid(BASE, [90, 60], seeds=(0, 1)))
        points = sweep_points(results, self.METRICS)
        assert [(p.n, p.seeds) for p in points] == [(90, 2), (60, 2)]
        holed = [results[0], None, results[2], results[3]]
        big, small = sweep_points(holed, self.METRICS)
        assert big.seeds == 1
        assert big.values["total"] == results[0].handoff_rate
        assert small.values == points[1].values
        assert sweep_points([None, None], self.METRICS) == []


class TestSeedGroups:
    """``sweep_points`` averages over the seeds of each scenario: runs
    that differ in any other field are separate points, and a per-level
    metric is averaged level by level."""

    def test_scenarios_differing_beyond_the_seed_are_separate_points(self):
        sticky = replace(BASE, election_mode="sticky")
        results = run_sweep([*expand_grid(sticky, None, (0, 1)),
                             *expand_grid(BASE, None, (0, 1))])
        first, second = sweep_points(results, {"phi": lambda r: r.phi})
        assert (first.n, second.n) == (BASE.n, BASE.n)
        assert first.scenario == replace(sticky, seed=0)
        assert second.scenario == replace(BASE, seed=0)
        assert first.seeds == second.seeds == 2
        assert first["phi"] == float(np.mean([r.phi for r in results[:2]]))
        assert second["phi"] == float(np.mean([r.phi for r in results[2:]]))

    def test_per_level_metric_skips_the_seeds_without_a_level(self):
        results = run_sweep(expand_grid(BASE, None, (0, 1)))

        def per_level(r):
            if r.scenario.seed == 0:
                return {2: r.gamma, 1: r.phi}
            return {1: r.phi}

        (point,) = sweep_points(results, {"lv": per_level})
        assert list(point["lv"]) == list(point.stds["lv"]) == [1, 2]
        phis = [r.phi for r in results]
        assert point["lv"][1] == float(np.mean(phis))
        assert point.stds["lv"][1] == float(np.std(phis))
        assert point["lv"][2] == results[0].gamma
        assert point.stds["lv"][2] == 0.0

    def test_n_reads_the_scenario(self):
        (point,) = _points([90], (3,), {"phi": lambda r: r.phi})
        assert point.n == point.scenario.n == 90
        assert point.scenario.seed == 3


class TestMissingMetricAggregation:
    """Regression: a metric returning None ("not measured in this run")
    used to crash ``float()`` or get zeroed via ``or 0.0`` wrappers,
    dragging down mixed-grid means.  None now propagates as NaN and is
    skipped by the aggregation."""

    METRICS = {"succ": lambda r: r.query_success_rate,
               "phi": lambda r: r.phi}

    def test_unmeasured_cells_skip_not_zero(self):
        # n=60 samples queries; n=90 samples none.  The no-query point
        # must report NaN — not 0.0, which would poison grid-wide
        # averages downstream.
        def per_n(sc, n):
            return replace(sc, queries_per_step=3 if n == 60 else 0)

        grid = expand_grid(BASE, [60, 90], seeds=(0, 1), scenario_for=per_n)
        results = run_sweep(grid)
        lo, hi = sweep_points(results, self.METRICS)
        rates = [r.query_success_rate for r in results[:2]]
        assert all(r is not None for r in rates)
        assert lo.values["succ"] == float(np.mean(rates))
        assert all(r.query_success_rate is None for r in results[2:])
        assert np.isnan(hi.values["succ"])
        assert np.isnan(hi.stds["succ"])
        # Metrics measured everywhere aggregate exactly as before.
        for p, chunk in ((lo, results[:2]), (hi, results[2:])):
            assert p.values["phi"] == float(
                np.mean([r.phi for r in chunk]))


class TestScenarioKey:
    def test_stable(self):
        assert scenario_key(BASE) == scenario_key(replace(BASE))

    def test_golden_keys(self):
        """The key is what on-disk sweep caches are filed under: a change
        here — a ``Scenario`` field added, removed or re-defaulted, the
        payload re-shaped, ``CODE_VERSION`` bumped — means every cache
        written before it misses.  Re-pin only when that is intended."""
        assert scenario_key(Scenario()) == (
            "f02777942fb8522ec47d822eca4a9557"
            "134eed36393587bd6061c5344969dfb5")
        busy = Scenario(
            n=np.int64(120), speed=(1.0, 3.0), seed=5,
            chaos=("crash:start=2,duration=4,rate=0.04,repair=3",))
        assert scenario_key(busy) == (
            "76d5300867d37c8a9d3d1e84cce72dd4"
            "0955585931b3ab3f22b479f898481cc6")

    def test_numpy_fields_hash_like_native(self):
        """Regression: a scenario built from an ``np.arange`` size axis
        (``n=np.int64(...)``) must hit the cache entries written by the
        equal native-int scenario — ``default=str`` used to serialize
        the two differently."""
        native = replace(BASE, n=60, speed=1.5, seed=0)
        numpied = replace(BASE, n=np.int64(60), speed=np.float64(1.5),
                          seed=np.int64(0))
        assert scenario_key(numpied) == scenario_key(native)

    def test_numpy_key_hits_native_cache(self, tmp_path):
        """End to end: results cached under native-int keys replay for
        the numpy-typed equal grid (no silent re-simulation)."""
        native = expand_grid(BASE, [60], seeds=(0,))
        run_sweep(native, cache_dir=tmp_path)
        events = []
        numpied = [replace(BASE, n=np.int64(60), seed=np.int64(0))]
        run_sweep(numpied, cache_dir=tmp_path,
                  progress=events.append)
        assert [e.from_cache for e in events] == [True]

    def test_profile_gets_its_own_key(self):
        assert scenario_key(BASE, profile=True) != scenario_key(BASE)
        # profile=False is the plain payload, the one unprofiled runs use.
        assert scenario_key(BASE, profile=False) == scenario_key(BASE)

    def test_every_field_matters(self):
        baseline = scenario_key(BASE)
        changed = {
            "n": 61, "density": 0.03, "target_degree": 8.0, "speed": 2.0,
            "dt": 0.5, "steps": 6, "warmup": 2, "mobility": "stationary",
            "seed": 1, "hop_mode": "bfs", "max_levels": 3,
        }
        for field, value in changed.items():
            changed_key = scenario_key(replace(BASE, **{field: value}))
            assert changed_key != baseline, field

    def test_cadence_and_code_version_matter(self, monkeypatch):
        assert scenario_key(BASE) != scenario_key(
            replace(BASE, hop_sample_every=8))
        before = scenario_key(BASE)
        monkeypatch.setattr(sweep_mod, "CODE_VERSION", "test-bump")
        assert scenario_key(BASE) != before


class TestProgressTelemetry:
    def test_task_seconds_is_per_task_not_sweep_total(self):
        grid = expand_grid(BASE, [60], seeds=(0, 1, 2))
        events = []
        run_sweep(grid, progress=events.append)
        assert len(events) == 3
        # Sweep elapsed is monotone; per-task durations are not cumulative.
        assert [e.elapsed for e in events] == sorted(e.elapsed for e in events)
        assert sum(e.task_seconds for e in events) <= events[-1].elapsed + 0.1
        for e in events:
            assert 0 < e.task_seconds <= e.elapsed + 1e-9
            assert e.attempts == 1

    def test_parallel_events_carry_worker_pids(self):
        import os

        grid = expand_grid(BASE, [60, 90], seeds=(0, 1))
        events = []
        run_sweep(grid, workers=2,
                  progress=events.append)
        workers = {e.worker for e in events}
        assert None not in workers
        assert os.getpid() not in workers

    def test_serial_sweep_has_no_transport(self):
        events = []
        run_sweep(expand_grid(BASE, [60], seeds=(0,)), workers=0,
                  progress=events.append)
        assert events[0].ser_seconds == 0.0

    def test_parallel_sweep_meters_serialization(self):
        """Pool workers pickle their own result, so the transport cost
        (worker dumps + parent loads) reaches the progress callback."""
        events = []
        run_sweep(expand_grid(BASE, [60], seeds=(0, 1)), workers=2,
                  progress=events.append)
        assert len(events) == 2
        assert all(e.ser_seconds > 0 for e in events)

    def test_cache_hits_report_load_time(self, tmp_path):
        grid = expand_grid(BASE, [60], seeds=(0,))
        run_sweep(grid, cache_dir=tmp_path)
        events = []
        run_sweep(grid, cache_dir=tmp_path,
                  progress=events.append)
        assert events[0].from_cache
        assert events[0].worker is None
        assert 0 <= events[0].task_seconds < 5.0

    def test_print_progress_reports_both_clocks(self, capsys):
        from repro.sim import SweepProgress, print_progress

        print_progress(SweepProgress(
            done=1, total=2, cached=0, scenario=BASE, elapsed=12.5,
            from_cache=False, task_seconds=3.25, worker=123, attempts=2,
        ))
        err = capsys.readouterr().err
        assert "3.25s task" in err
        assert "12.5s sweep" in err
        assert "x2" in err  # retried task is visible


class TestProfiledSweep:
    def test_profile_attaches_timings_and_keeps_metrics(self):
        grid = expand_grid(BASE, [60], seeds=(0,))
        plain = run_sweep(grid)
        profiled = run_sweep(grid, profile=True)
        assert fingerprint(plain[0]) == fingerprint(profiled[0])
        assert plain[0].timings is None
        assert profiled[0].timings.steps == BASE.steps

    def test_profiled_cache_entry_round_trips_timings(self, tmp_path):
        grid = expand_grid(BASE, [60], seeds=(0,))
        first = run_sweep(grid, cache_dir=tmp_path,
                          profile=True)
        events = []
        again = run_sweep(grid, cache_dir=tmp_path,
                          profile=True, progress=events.append)
        assert [e.from_cache for e in events] == [True]
        assert again[0].timings.totals == first[0].timings.totals

    def test_profiled_and_plain_caches_are_disjoint(self, tmp_path):
        grid = expand_grid(BASE, [60], seeds=(0,))
        run_sweep(grid, cache_dir=tmp_path)
        run_sweep(grid, cache_dir=tmp_path, profile=True)
        assert len(list(tmp_path.glob("*.pkl"))) == 2


class TestRunSweepBasics:
    def test_empty_grid(self):
        assert run_sweep([]) == []

    def test_results_in_task_order(self):
        grid = expand_grid(BASE, [90, 60], seeds=(1, 0))
        res = run_sweep(grid, workers=2)
        assert [(r.scenario.n, r.scenario.seed) for r in res] == [
            (90, 1), (90, 0), (60, 1), (60, 0),
        ]

    def test_cached_sweep_rejects_empty_metrics(self):
        with pytest.raises(ValueError, match="metric"):
            sweep_points([], {})
