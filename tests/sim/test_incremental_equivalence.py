"""Equivalence matrix for the event-driven hierarchy plane.

The standing contract of every incremental feature in this repo:
switched on, ``Scenario.incremental_hierarchy`` must produce **the same
numbers** as the full per-step rebuild — every series, every per-level
breakdown, every (i)-(vii) event count — across plain, lossy, chaos,
stateful-election, contraction, max-min and naive-hash regimes, and
through a checkpoint/resume cycle.  No tolerance, no "statistically close":
bit-identical.
"""

from dataclasses import replace

import pytest

from repro.sim import Scenario, run_scenario
from repro.sim.engine import Simulator
from tests.fingerprint import fingerprint


def _pair(sc):
    """Run the scenario with the event plane off and on."""
    off = run_scenario(replace(sc, incremental_hierarchy=False))
    on = run_scenario(replace(sc, incremental_hierarchy=True))
    return off, on


class TestRegimeMatrix:
    def test_plain(self):
        off, on = _pair(Scenario(n=80, steps=8, warmup=2, seed=3,
                                 max_levels=3))
        assert fingerprint(off) == fingerprint(on)

    def test_lossy_with_queries(self):
        off, on = _pair(Scenario(n=100, steps=12, warmup=3, seed=11,
                                 max_levels=3, loss_rate=0.08,
                                 retry_attempts=3, queries_per_step=4))
        assert fingerprint(off) == fingerprint(on)
        assert off.queries.attempts == on.queries.attempts
        assert off.queries.success_series == on.queries.success_series

    def test_chaos_crash_and_partition(self):
        off, on = _pair(Scenario(
            n=90, steps=12, warmup=3, seed=7, max_levels=3,
            chaos=("crash:start=2,duration=4,rate=0.04,repair=3",
                   "partition:start=7,duration=3"),
        ))
        assert fingerprint(off) == fingerprint(on)
        assert (off.extras["chaos"].total_violations
                == on.extras["chaos"].total_violations)

    def test_sticky_elections(self):
        off, on = _pair(Scenario(n=80, steps=10, warmup=2, seed=5,
                                 max_levels=3, election_mode="sticky"))
        assert fingerprint(off) == fingerprint(on)

    def test_persistent_elections(self):
        off, on = _pair(Scenario(n=80, steps=10, warmup=2, seed=9,
                                 max_levels=3, election_mode="persistent"))
        assert fingerprint(off) == fingerprint(on)

    def test_contraction_levels(self):
        off, on = _pair(Scenario(n=80, steps=8, warmup=2, seed=13,
                                 max_levels=3, level_mode="contraction"))
        assert fingerprint(off) == fingerprint(on)

    @pytest.mark.parametrize("fields", [
        dict(seed=4, maxmin_d=2),
        dict(seed=6, maxmin_d=3, level_mode="contraction"),
        dict(n=90, steps=12, warmup=3, seed=7,
             chaos=("crash:start=2,duration=4,rate=0.04,repair=3",)),
    ], ids=["d2-radio", "d3-contraction", "crash"])
    def test_maxmin_clustering(self, fields):
        """Max-min clustering behind the Verlet edges: the snapshots'
        delta feeds the dirty-chain patch as for every other election."""
        off, on = _pair(Scenario(**{
            **dict(n=80, steps=8, warmup=2, max_levels=3,
                   clustering="maxmin"), **fields}))
        assert fingerprint(off) == fingerprint(on)

    @pytest.mark.parametrize("fields", [
        dict(n=80, steps=8, warmup=2, seed=3),
        dict(n=100, steps=12, warmup=3, seed=11, loss_rate=0.08,
             retry_attempts=3, queries_per_step=4),
    ], ids=["lossless", "lossy-with-queries"])
    def test_naive_hash(self, fields):
        """A hash that keeps no descent chains is recomputed in full on
        the event plane too."""
        off, on = _pair(Scenario(max_levels=3, hash_fn="naive", **fields))
        assert fingerprint(off) == fingerprint(on)
        if off.queries is not None:
            assert off.queries.success_series == on.queries.success_series


class TestResume:
    def test_resumed_incremental_run_is_bit_identical(self, tmp_path):
        """Interrupt an incremental run mid-flight; the resumed half
        must reproduce the uninterrupted run exactly, and the Verlet edge
        cache riding the checkpoint must end on the same build counts
        (at the stock 5 m/s one step outruns the skin, so after the
        baseline's one list build every metered step is a plain build)."""
        sc = Scenario(n=80, steps=12, warmup=3, seed=0, max_levels=3,
                      incremental_hierarchy=True)
        uninterrupted = Simulator(sc)
        baseline = uninterrupted.run()

        path = tmp_path / "inc.ckpt"
        Simulator(sc).run(checkpoint_every=5, checkpoint_path=str(path))
        resumed_sim = Simulator.restore(str(path))
        assert 0 < resumed_sim.next_step < sc.steps
        resumed = resumed_sim.run()
        assert fingerprint(baseline) == fingerprint(resumed)
        want = uninterrupted.checkpoint().edge_cache
        got = resumed_sim.checkpoint().edge_cache
        assert (got.rebuilds, got.plain_builds) == (want.rebuilds,
                                                    want.plain_builds)
        assert want.plain_builds == sc.steps

    def test_resume_matches_full_rebuild_run(self, tmp_path):
        """Transitively: resumed-incremental == incremental == full."""
        sc = Scenario(n=70, steps=10, warmup=2, seed=4, max_levels=3)
        full = run_scenario(sc)

        inc = replace(sc, incremental_hierarchy=True)
        path = tmp_path / "inc2.ckpt"
        Simulator(inc).run(checkpoint_every=4, checkpoint_path=str(path))
        resumed = Simulator.restore(str(path)).run()
        assert fingerprint(full) == fingerprint(resumed)


class TestScenarioValidation:
    def test_flag_changes_sweep_cache_key(self):
        """Incremental runs must never collide with full-rebuild cache
        entries (they are equivalent, but the cache must not *assume*
        it)."""
        from repro.sim.sweep import scenario_key

        off = Scenario(n=40, steps=4)
        on = replace(off, incremental_hierarchy=True)
        assert scenario_key(off) != scenario_key(on)


class TestCliFlag:
    @pytest.mark.parametrize("cmd", ["simulate", "serve", "sweep"])
    def test_parser_accepts_both_forms(self, cmd):
        from repro.cli import build_parser

        parser = build_parser()
        on = parser.parse_args([cmd, "--incremental-hierarchy"])
        off = parser.parse_args([cmd, "--no-incremental-hierarchy"])
        default = parser.parse_args([cmd])
        assert on.incremental_hierarchy is True
        assert off.incremental_hierarchy is False
        assert default.incremental_hierarchy is False
