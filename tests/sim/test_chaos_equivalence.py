"""Equivalence guards for the chaos engine.

The standing contract of every fault feature in this repo: switched
off, it must be *bit-identical* to an engine that never had it.  These
tests pin (1) empty schedules and invariant counting as pure observers,
and (2) the partition-heal acceptance scenario: finite time-to-reconverge
with zero invariant violations after convergence.  The chaos-stream crash
draws themselves are pinned by the ``lossy-chaos`` golden fingerprint.
"""

import itertools

import numpy as np
import pytest

from repro.sim import Scenario, run_scenario
from repro.sim.engine import Simulator


def _same_run(a, b, queries=False):
    assert a.phi == b.phi
    assert a.gamma == b.gamma
    assert a.f0 == b.f0
    assert a.handoff_rate == b.handoff_rate
    assert a.ledger.stale_series == b.ledger.stale_series
    assert np.array_equal(a.final_positions, b.final_positions)
    if queries:
        assert a.queries.attempts == b.queries.attempts
        assert a.queries.success_series == b.queries.success_series


def test_ledger_rows_sum_to_its_totals():
    """A lossy chaos run: the ledger's per-step rows sum to the totals
    every rate reads, and the chaos report's stale windows are the runs
    of steps where their stale column is non-zero."""
    from repro.core.handoff import STALE

    res = run_scenario(Scenario(
        n=80, steps=12, warmup=2, speed=2.0, seed=3, max_levels=3,
        loss_rate=0.3, retry_attempts=1,
        chaos=("crash:start=2,duration=6,rate=0.05,repair=3",)))
    lg = res.ledger
    assert len(lg.tables) == len(lg.flats) == 12
    width = lg.table().shape[1]
    rows = [np.pad(t, ((0, 0), (0, width - t.shape[1]))) for t in lg.tables]
    assert np.array_equal(np.sum(rows, axis=0), lg.table())
    assert np.array_equal(np.sum(lg.flats, axis=0), lg.flat())
    stale = [int(f[STALE]) for f in lg.flats]
    assert max(stale) > 0
    assert stale == lg.stale_series
    windows = [len(list(run)) for stale, run in
               itertools.groupby(lg.stale_series, bool) if stale]
    assert windows == res.extras["chaos"].stale_windows


class TestEmptyScheduleEquivalence:
    def test_counting_collector_is_a_pure_observer(self):
        """invariant_mode="count" on a fault-free run must not perturb
        any series — the checker reads snapshots, draws nothing."""
        base = dict(n=100, steps=20, warmup=3, speed=3.0, seed=7,
                    hop_sample_every=10)
        plain = run_scenario(Scenario(**base))
        counted = run_scenario(Scenario(**base, invariant_mode="count"))
        _same_run(plain, counted)
        assert counted.extras["chaos"].total_violations >= 0
        assert "chaos" not in plain.extras  # auto mode: off without faults

    def test_counting_pure_observer_with_queries(self):
        base = dict(n=80, steps=12, warmup=3, speed=2.0, seed=7,
                    max_levels=3, loss_rate=0.15, retry_attempts=3,
                    queries_per_step=5)
        plain = run_scenario(Scenario(**base))
        counted = run_scenario(Scenario(**base, invariant_mode="count"))
        _same_run(plain, counted, queries=True)

    def test_empty_schedule_builds_no_engine(self):
        sim = Simulator(Scenario(n=60, steps=4, warmup=1, seed=0,
                                 max_levels=2, chaos=()))
        assert sim._chaos is None

    def test_chaos_stream_leaves_other_streams_untouched(self):
        """A schedule draws only from the dedicated "chaos" stream:
        mobility (and hence final positions) must match the fault-free
        run exactly."""
        base = dict(n=80, steps=10, warmup=2, speed=2.0, seed=11,
                    max_levels=3)
        plain = run_scenario(Scenario(**base))
        chaotic = run_scenario(
            Scenario(**base, chaos=("crash:rate=0.02,repair=5",)))
        assert np.array_equal(plain.final_positions,
                              chaotic.final_positions)
        assert chaotic.extras["chaos"].peak_down > 0


class TestPartitionHealAcceptance:
    @pytest.fixture(scope="class")
    def report(self):
        sc = Scenario(n=100, steps=16, warmup=2, mobility="stationary",
                      seed=1, max_levels=3, target_degree=14.0,
                      hop_sample_every=10_000,
                      chaos=("partition:start=4,duration=6,angle=0.3",))
        return run_scenario(sc).extras["chaos"]

    def test_violations_confined_to_the_cut_window(self, report):
        series = report.violations_series
        # Cut active at chaos clock t in [4, 10): metered steps 3..8.
        assert all(v == 0 for v in series[:3])
        assert all(v > 0 for v in series[3:9])
        assert all(v == 0 for v in series[9:])

    def test_time_to_reconverge_finite(self, report):
        slo = report.episodes[0]
        assert slo.kind == "partition"
        assert slo.recovered_step is not None
        assert slo.time_to_reconverge is not None
        assert np.isfinite(slo.time_to_reconverge)
        assert report.max_time_to_reconverge() == slo.time_to_reconverge

    def test_clusterhead_kill_recovery_tracks_repair(self):
        """A clusterhead decapitation stays broken until the repair
        window elapses: TTR > 0 but finite."""
        sc = Scenario(n=100, steps=18, warmup=2, mobility="stationary",
                      seed=1, max_levels=3, target_degree=14.0,
                      hop_sample_every=10_000,
                      chaos=("crash:start=4,duration=1,count=3,"
                             "targets=clusterheads,repair=6",))
        rep = run_scenario(sc).extras["chaos"]
        slo = rep.episodes[0]
        assert rep.peak_down == 3
        assert slo.time_to_reconverge is not None
        assert 0 < slo.time_to_reconverge < sc.steps * sc.dt
        assert rep.violations_series[-1] == 0
