"""Telemetry must be pure observation.

The acceptance bar mirrors ``tests/sim/test_lossy_equivalence.py``:
with phase timers (and the event trace) enabled, every metered
series in the SimResult must be bit-identical to an uninstrumented run
of the same scenario — profiling may only *watch* the pipeline, never
consume an RNG draw or reorder a phase.
"""

from dataclasses import replace

from repro.obs import PHASES
from repro.sim import Scenario, Simulator, TraceCollector, run_scenario
from tests.fingerprint import fingerprint

SC = Scenario(n=80, steps=8, warmup=2, speed=1.5, seed=3,
              max_levels=3, hop_mode="euclidean", hop_sample_every=4)

LOSSY = Scenario(n=80, steps=8, warmup=2, speed=1.5, seed=3,
                 max_levels=3, hop_mode="euclidean",
                 loss_rate=0.08, retry_attempts=3, queries_per_step=3,
                 hop_sample_every=4)


class TestBitIdentity:
    def test_profiled_run_matches_plain_run(self):
        plain = run_scenario(SC)
        profiled = run_scenario(SC, profile=True)
        assert fingerprint(plain) == fingerprint(profiled)
        assert plain.timings is None
        assert profiled.timings is not None

    def test_profiled_lossy_run_matches_plain_run(self):
        """The fault path draws from RNG streams every step; profiling
        must not perturb a single draw."""
        plain = run_scenario(LOSSY)
        profiled = run_scenario(LOSSY, profile=True)
        assert fingerprint(plain) == fingerprint(profiled)
        assert plain.queries.success_series == profiled.queries.success_series

    def test_profile_plus_trace_matches_plain_run(self):
        plain = Simulator(SC).run()
        instrumented = Simulator(SC, profile=True,
                                 collectors=[TraceCollector()]).run()
        assert fingerprint(plain) == fingerprint(instrumented)
        assert instrumented.extras["trace"]["events"]


class TestTimingsContent:
    def test_every_pipeline_phase_metered(self):
        res = run_scenario(SC, profile=True)
        assert set(res.timings.totals) == set(PHASES)
        assert all(v >= 0 for v in res.timings.totals.values())
        assert res.timings.steps == SC.steps
        assert res.timings.wall_seconds >= res.timings.phase_seconds

    def test_sampling_phase_respects_cadence(self):
        """With a cadence wider than the run, sampling is metered only
        once (step 0)."""
        res = run_scenario(replace(SC, hop_sample_every=1000), profile=True)
        assert "sampling" in res.timings.totals

    def test_unprofiled_run_carries_no_timings(self):
        assert run_scenario(SC).timings is None
