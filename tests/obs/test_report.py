"""SweepReport aggregation tests (synthetic events + a real sweep)."""

import pytest

from repro.obs import SweepReport
from repro.sim import (
    Scenario,
    SweepProgress,
    SweepRun,
    TaskError,
    expand_grid,
    run_sweep,
)

BASE = Scenario(n=60, steps=4, warmup=1, speed=1.5, hop_mode="euclidean",
                max_levels=2, hop_sample_every=4)


def _event(done, total, *, cached=0, from_cache=False, elapsed=1.0,
           task_seconds=0.5, worker=None, attempts=1, ser_seconds=0.0):
    return SweepProgress(
        done=done, total=total, cached=cached, scenario=BASE,
        elapsed=elapsed, from_cache=from_cache, task_seconds=task_seconds,
        worker=worker, attempts=attempts, ser_seconds=ser_seconds,
    )


class TestSyntheticAggregation:
    def test_throughput_and_eta(self):
        rep = SweepReport()
        rep.record(_event(1, 4, elapsed=30.0, task_seconds=30.0))
        rep.record(_event(2, 4, elapsed=60.0, task_seconds=30.0))
        assert rep.throughput_per_min == pytest.approx(2.0)
        assert rep.mean_task_seconds == pytest.approx(30.0)
        # 2 tasks remain at 30 s mean on one lane.
        assert rep.eta_seconds == pytest.approx(60.0)
        rep.record(_event(3, 4))
        rep.record(_event(4, 4))
        assert rep.eta_seconds == 0.0

    def test_eta_divides_across_workers(self):
        rep = SweepReport()
        rep.record(_event(1, 5, task_seconds=10.0, worker=101))
        rep.record(_event(2, 5, task_seconds=10.0, worker=102))
        assert len(rep.workers_seen) == 2
        assert rep.eta_seconds == pytest.approx(3 * 10.0 / 2)

    def test_cache_hits_excluded_from_task_stats(self):
        rep = SweepReport()
        rep.record(_event(1, 2, cached=1, from_cache=True, task_seconds=0.001))
        rep.record(_event(2, 2, cached=1, task_seconds=8.0))
        assert rep.cache_hit_rate == pytest.approx(0.5)
        assert rep.task_seconds == [8.0]

    def test_retries_and_errors_counted(self):
        rep = SweepReport()
        rep.record(_event(1, 3, attempts=3))

        class _Run:
            results = [object(), None, None]
            errors = [
                TaskError(index=1, kind="timeout", message="m", attempts=2,
                          scenario=BASE),
                TaskError(index=2, kind="crash", message="m", attempts=2,
                          scenario=BASE),
            ]

        rep.finish(_Run())
        assert rep.retries == 2
        assert rep.error_counts() == {"crash": 1, "timeout": 1}
        assert rep.failed_attempts == 4
        assert "timeout=1" in rep.render()

    def test_callable_as_progress_callback(self):
        rep = SweepReport()
        rep(_event(1, 1))
        assert rep.done == rep.total == 1

    def test_cache_hits_excluded_from_throughput(self):
        """A warm sweep replaying 3 cached tasks and executing 1 must
        report the throughput of that 1, not a 4-task fiction."""
        rep = SweepReport()
        for i in range(1, 4):
            rep.record(_event(i, 4, cached=i, from_cache=True,
                              elapsed=float(i), task_seconds=1.0))
        rep.record(_event(4, 4, cached=3, elapsed=33.0, task_seconds=30.0))
        assert rep.executed == 1
        # 33 s wall minus 3 s of cache loading = 30 s execution clock.
        assert rep.run_seconds == pytest.approx(30.0)
        assert rep.throughput_per_min == pytest.approx(2.0)

    def test_eta_unknown_until_a_task_executes(self):
        """An all-cache-hits prefix predicts nothing about pending
        simulations: eta must read unknown (NaN), not 0."""
        rep = SweepReport()
        rep.record(_event(1, 3, cached=1, from_cache=True, task_seconds=0.1))
        assert rep.eta_seconds != rep.eta_seconds  # NaN
        assert "eta        unknown" in rep.render()
        rep.record(_event(2, 3, cached=1, task_seconds=12.0))
        assert rep.eta_seconds == pytest.approx(12.0)
        assert "eta        12.0 s" in rep.render()

    def test_serialization_stats(self):
        rep = SweepReport()
        rep.record(_event(1, 2, task_seconds=5.0, ser_seconds=0.25))
        rep.record(_event(2, 2, cached=1, from_cache=True, task_seconds=0.1))
        assert rep.ser_seconds == [0.25]
        assert rep.mean_ser_seconds == pytest.approx(0.25)
        assert "transport  0.25 s serializing results" in rep.render()

    def test_no_transport_line_for_serial_sweeps(self):
        rep = SweepReport()
        rep.record(_event(1, 1, task_seconds=5.0))
        assert "transport" not in rep.render()


class TestRealSweep:
    @pytest.fixture(scope="class")
    def report(self):
        rep = SweepReport()
        results = run_sweep(expand_grid(BASE, [60, 90], seeds=(0, 1)),
                            profile=True, progress=rep)
        rep.finish(SweepRun(results, errors=[]))
        return rep

    def test_counts(self, report):
        assert report.done == report.total == 4
        assert report.cached == 0
        assert len(report.task_seconds) == 4
        assert report.errors == []

    def test_per_n_phase_breakdown(self, report):
        phases = report.per_n_phases()
        assert sorted(phases) == [60, 90]
        for d in phases.values():
            assert {"mobility", "rebuild", "hierarchy", "handoff",
                    "diff", "sampling"} <= set(d)
            assert all(v >= 0 for v in d.values())

    def test_render_mentions_phases_and_rates(self, report):
        text = report.render()
        assert "4/4 done" in text
        assert "tasks/min" in text
        assert "phase mean ms/step" in text
        assert "hierarchy" in text

    def test_invariant_summary_flags_broken_runs(self):
        class _Chaos:
            def __init__(self, total):
                self.total_violations = total

        def res(chaos=None):
            extras = {} if chaos is None else {"chaos": chaos}
            return type("R", (), {"extras": extras})()

        rep = SweepReport()
        clean, broken = res(_Chaos(0)), res(_Chaos(7))
        rep.results = [res(), clean, broken, res(_Chaos(3))]
        assert rep.invariant_summary() == {
            "checked": 3, "flagged": 2, "violations": 10}
        assert "invariants 2/3 checked runs" in rep.render()
        assert "(10 total)" in rep.render()

    def test_invariant_line_absent_without_chaos_runs(self):
        rep = SweepReport()
        rep.results = [type("R", (), {"extras": {}})()]
        assert rep.invariant_summary()["checked"] == 0
        assert "invariants" not in rep.render()

    def test_real_chaotic_sweep_surfaces_violations(self):
        sc = Scenario(
            n=60, steps=6, warmup=1, speed=1.5, hop_mode="euclidean",
            max_levels=2, hop_sample_every=4,
            chaos=("crash:start=1,duration=2,count=10,repair=4",),
        )
        rep = SweepReport()
        rep.finish(SweepRun(run_sweep([sc], progress=rep), errors=[]))
        summary = rep.invariant_summary()
        assert summary["checked"] == 1
        assert summary["violations"] >= 0

    def test_unprofiled_results_skipped(self):
        rep = SweepReport()
        results = run_sweep(expand_grid(BASE, [60], seeds=(0,)), progress=rep)
        rep.finish(SweepRun(results, errors=[]))
        assert rep.per_n_phases() == {}
        assert "phase mean" not in rep.render()


class TestReorgEventSummary:
    def test_sums_ledgers_and_renders(self):
        from dataclasses import replace

        from repro.sim import run_scenario

        r1 = run_scenario(BASE)
        r2 = run_scenario(replace(BASE, seed=5))
        rep = SweepReport()
        rep.results = [r1, r2]
        summary = rep.reorg_event_summary()
        b1 = r1.ledger.reorg_event_breakdown()
        b2 = r2.ledger.reorg_event_breakdown()
        for kind in set(b1) | set(b2):
            expect = (b1.get(kind, {}).get("count", 0)
                      + b2.get(kind, {}).get("count", 0))
            assert summary[kind] == expect
        line = [l for l in rep.to_lines() if l.startswith("reorg")]
        assert len(line) == 1 and "dominates gamma" in line[0]

    def test_empty_results_render_no_reorg_line(self):
        rep = SweepReport()
        assert rep.reorg_event_summary() == {}
        assert not [l for l in rep.to_lines() if l.startswith("reorg")]
