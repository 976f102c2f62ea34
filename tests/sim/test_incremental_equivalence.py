"""Equivalence matrix for the patched CHLM assignment.

The standing contract of every incremental feature in this repo: the
production :class:`~repro.sim.engine.Simulator`, with patching forced on
every step (:func:`~tests.sim.stepping_oracle.force_patch`), must produce
**the same numbers** as the oracle that steps with plain unit-disk edges and a
full reassignment (:class:`~tests.sim.stepping_oracle.OracleSimulator`)
— every series, every per-level breakdown, every (i)-(vii) event count —
across plain, lossy, chaos, stateful-election and contraction regimes,
and through a checkpoint/resume cycle.  No
tolerance, no "statistically close": bit-identical.

The patch-or-full rule itself (:func:`~repro.core.servers.patch_pays`)
is tested where it flips: at the crossover sizes and churns, and on the
runs on either side of it.
"""

import pytest

from repro.core.servers import PATCH_MAX_CHURN, PATCH_MIN_NODES, patch_pays
from repro.radio.linkevents import link_diff
from repro.sim import Scenario
from repro.sim.engine import Simulator
from tests.fingerprint import fingerprint
from tests.sim.stepping_oracle import (
    OracleSimulator,
    PatchProbe,
    force_patch,
    run_oracle,
)


@pytest.fixture
def pair(monkeypatch):
    """Run a scenario on the oracle and, patching forced, in production,
    where every metered step must have patched."""
    force_patch(monkeypatch)

    def run(sc):
        res = Simulator(sc, collectors=[PatchProbe(monkeypatch)]).run()
        assert all(res.extras[PatchProbe.name])
        return run_oracle(sc), res

    return run


class TestRegimeMatrix:
    def test_plain(self, pair):
        off, on = pair(Scenario(n=80, steps=8, warmup=2, seed=3,
                                 max_levels=3))
        assert fingerprint(off) == fingerprint(on)

    def test_lossy_with_queries(self, pair):
        off, on = pair(Scenario(n=100, steps=12, warmup=3, seed=11,
                                 max_levels=3, loss_rate=0.08,
                                 retry_attempts=3, queries_per_step=4))
        assert fingerprint(off) == fingerprint(on)
        assert off.queries.attempts == on.queries.attempts
        assert off.queries.success_series == on.queries.success_series

    def test_chaos_crash_and_partition(self, pair):
        off, on = pair(Scenario(
            n=90, steps=12, warmup=3, seed=7, max_levels=3,
            chaos=("crash:start=2,duration=4,rate=0.04,repair=3",
                   "partition:start=7,duration=3"),
        ))
        assert fingerprint(off) == fingerprint(on)
        assert (off.extras["chaos"].total_violations
                == on.extras["chaos"].total_violations)

    def test_sticky_elections(self, pair):
        off, on = pair(Scenario(n=80, steps=10, warmup=2, seed=5,
                                 max_levels=3, election_mode="sticky"))
        assert fingerprint(off) == fingerprint(on)

    def test_persistent_elections(self, pair):
        off, on = pair(Scenario(n=80, steps=10, warmup=2, seed=9,
                                 max_levels=3, election_mode="persistent"))
        assert fingerprint(off) == fingerprint(on)

    def test_contraction_levels(self, pair):
        off, on = pair(Scenario(n=80, steps=8, warmup=2, seed=13,
                                 max_levels=3, level_mode="contraction"))
        assert fingerprint(off) == fingerprint(on)


class TestResume:
    def test_resumed_incremental_run_is_bit_identical(self, tmp_path,
                                                      monkeypatch):
        """Interrupt a patching run mid-flight; the resumed half must
        reproduce the uninterrupted run exactly."""
        force_patch(monkeypatch)
        sc = Scenario(n=80, steps=12, warmup=3, seed=0, max_levels=3)
        baseline = Simulator(sc).run()

        path = tmp_path / "inc.ckpt"
        Simulator(sc).run(checkpoint_every=5, checkpoint_path=str(path))
        resumed_sim = Simulator.restore(str(path))
        assert 0 < resumed_sim.next_step < sc.steps
        resumed = resumed_sim.run()
        assert fingerprint(baseline) == fingerprint(resumed)

    def test_resume_matches_full_rebuild_run(self, tmp_path, monkeypatch):
        """Transitively: resumed production == production == oracle."""
        sc = Scenario(n=70, steps=10, warmup=2, seed=4, max_levels=3)
        full = run_oracle(sc)

        force_patch(monkeypatch)
        path = tmp_path / "inc2.ckpt"
        Simulator(sc).run(checkpoint_every=4, checkpoint_path=str(path))
        resumed = Simulator.restore(str(path)).run()
        assert fingerprint(full) == fingerprint(resumed)


class TestPatchRule:
    @pytest.mark.parametrize("n,churn,patch", [
        # The measured crossover's (n, churn) rows: full wins up to
        # n = 600 and at 5 m/s churn, patching from 10^4 up at 1 m/s; at
        # n = 10^3 and 1 m/s the two are within 5 % and the rule keeps
        # the full plan.
        (300, 0.10, False),
        (600, 0.11, False),
        (1_000, 0.11, False),
        (1_000, 0.63, False),
        (10_000, 0.10, True),
        (100_000, 0.10, True),
        # The three runs the scale smoke patches on every step.
        (10_000, 0.096, True),
        (100_000, 0.096, True),
        (10_000, 0.196, True),
        # Either threshold alone sends a step to the full path.
        (100_000, 0.63, False),
        (PATCH_MIN_NODES - 1, 0.0, False),
        (PATCH_MIN_NODES, 0.0, True),
        (PATCH_MIN_NODES, PATCH_MAX_CHURN, False),
    ])
    def test_crossover_table(self, n, churn, patch):
        assert patch_pays(n, churn) is patch

    def test_small_fast_run_never_patches(self, monkeypatch):
        """n = 10^3 at the stock 5 m/s sits on the full side: no metered
        step patches."""
        res = Simulator(Scenario(n=1000, steps=3),
                        collectors=[PatchProbe(monkeypatch)]).run()
        assert res.extras[PatchProbe.name] == [False] * 3

    def test_large_slow_run_patches_every_step(self, monkeypatch):
        """n = 3000 at 1 m/s sits on the patch side from the first
        metered step on, and equals the oracle."""
        sc = Scenario(n=3000, speed=1.0, steps=3, warmup=2,
                      hop_mode="euclidean")
        res = Simulator(sc, collectors=[PatchProbe(monkeypatch)]).run()
        assert res.extras[PatchProbe.name] == [True] * 3
        assert fingerprint(res) == fingerprint(run_oracle(sc))

    def test_chaos_run_decides_from_the_merged_diff(self, monkeypatch):
        """A chaos run measures its churn on the diff of its filtered
        edges, one ``link_diff`` per step — and still patches every step
        at a size and churn past the threshold."""
        merged = []

        def spy(before, after, n):
            merged.append(n)
            return link_diff(before, after, n)

        monkeypatch.setattr("repro.sim.engine.link_diff", spy)
        sc = Scenario(n=3000, speed=1.0, steps=3, warmup=2,
                      hop_mode="euclidean",
                      chaos=("partition:start=1,duration=1",))
        res = Simulator(sc, collectors=[PatchProbe(monkeypatch)]).run()
        assert merged == [sc.n] * sc.steps
        assert res.extras[PatchProbe.name] == [True] * sc.steps
        assert fingerprint(res) == fingerprint(
            OracleSimulator(sc).run())


class TestCliFlag:
    @pytest.mark.parametrize("cmd", ["simulate", "sweep"])
    def test_flag_is_rejected(self, cmd, capsys):
        """The plane switch is gone: ``repro <cmd> --incremental-hierarchy``
        is a usage error (exit 2) on every subcommand that took it."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([cmd, "--incremental-hierarchy"])
        assert exc.value.code == 2
        assert "--incremental-hierarchy" in capsys.readouterr().err
