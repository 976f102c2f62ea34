"""Tests for checkpoint/resume: a resumed run must be indistinguishable
from an uninterrupted one, and stale/corrupt checkpoints must be
rejected or ignored rather than trusted."""

import pickle

import numpy as np
import pytest

from repro.sim import Scenario, Simulator
from repro.sim.engine import CHECKPOINT_MAGIC, code_stamp
from repro.sim.sweep import CODE_VERSION, _run_task, run_sweep


def _scenario(**over):
    base = dict(n=80, steps=12, warmup=3, speed=2.0, seed=7, max_levels=3)
    base.update(over)
    return Scenario(**base)


def _assert_same_result(a, b):
    assert a.phi == b.phi
    assert a.gamma == b.gamma
    assert a.f0 == b.f0
    assert a.ledger.stale_series == b.ledger.stale_series
    assert len(a.ledger.tables) == len(b.ledger.tables)
    assert all(map(np.array_equal, a.ledger.tables, b.ledger.tables))
    assert np.array_equal(a.final_positions, b.final_positions)


class TestResumeEqualsUninterrupted:
    def test_restore_mid_run_finishes_identically(self, tmp_path):
        sc = _scenario()
        baseline = Simulator(sc).run()

        path = tmp_path / "run.ckpt"
        # A checkpointing run leaves its last mid-run checkpoint behind
        # (the engine itself never deletes; callers do).
        checkpointed = Simulator(sc).run(checkpoint_every=5,
                                         checkpoint_path=str(path))
        _assert_same_result(baseline, checkpointed)
        assert path.exists()

        resumed_sim = Simulator.restore(str(path))
        assert 0 < resumed_sim.next_step < sc.steps
        _assert_same_result(baseline, resumed_sim.run())

    def test_resume_lossy_scenario_with_queries(self, tmp_path):
        sc = _scenario(loss_rate=0.15, retry_attempts=3, queries_per_step=5)
        baseline = Simulator(sc).run()

        path = tmp_path / "lossy.ckpt"
        Simulator(sc).run(checkpoint_every=4, checkpoint_path=str(path))
        resumed = Simulator.restore(str(path)).run()
        _assert_same_result(baseline, resumed)
        assert resumed.queries.attempts == baseline.queries.attempts
        assert resumed.queries.probe_packets == baseline.queries.probe_packets
        assert (resumed.queries.success_series
                == baseline.queries.success_series)

    def test_resume_on_event_plane(self, tmp_path):
        """A slow run (2 m/s, few links flip per step) resumes mid-run:
        the result equals the uninterrupted run's."""
        sc = _scenario()
        baseline = Simulator(sc).run()
        path = tmp_path / "event.ckpt"
        Simulator(sc).run(checkpoint_every=5, checkpoint_path=str(path))
        resumed_sim = Simulator.restore(path)
        assert 0 < resumed_sim.next_step < sc.steps
        _assert_same_result(baseline, resumed_sim.run())

    def test_trace_survives_resume(self, tmp_path):
        """The event trace is collector state like any other: a run
        checkpointed mid-way and resumed has the straight run's trace,
        and so the same manifest ``trace`` section."""
        from repro.obs import RunManifest
        from repro.sim import TraceCollector

        sc = _scenario()
        straight = Simulator(sc, collectors=[TraceCollector()]).run()
        path = tmp_path / "traced.ckpt"
        Simulator(sc, collectors=[TraceCollector()]).run(
            checkpoint_every=5, checkpoint_path=str(path))
        resumed = Simulator.restore(str(path)).run()
        assert straight.extras["trace"]["events"]
        assert resumed.extras["trace"] == straight.extras["trace"]
        assert (RunManifest.from_result(resumed).trace
                == RunManifest.from_result(straight).trace)

    def test_checkpoint_every_requires_path(self):
        with pytest.raises(ValueError):
            Simulator(_scenario()).run(checkpoint_every=5)

    def test_resume_mid_fault_episode_is_bit_identical(self, tmp_path):
        """Checkpoint taken while a crash episode, a partition, and a
        burst window are all in flight; the resumed run must replay the
        exact chaos draws and invariant series."""
        sc = _scenario(
            steps=14, queries_per_step=4,
            chaos=("crash:start=2,duration=10,rate=0.05,repair=6",
                   "partition:start=4,duration=9,angle=0.5",
                   "burst:start=3,duration=9,rate=0.4"),
        )
        baseline = Simulator(sc).run()

        path = tmp_path / "chaotic.ckpt"
        Simulator(sc).run(checkpoint_every=5, checkpoint_path=str(path))
        resumed_sim = Simulator.restore(str(path))
        assert resumed_sim._chaos is not None
        assert resumed_sim._chaos._active_cuts  # mid-episode
        resumed = resumed_sim.run()
        _assert_same_result(baseline, resumed)
        a, b = baseline.extras["chaos"], resumed.extras["chaos"]
        assert a.violations_series == b.violations_series
        assert a.down_series == b.down_series
        assert a.stale_windows == b.stale_windows
        assert [e.time_to_reconverge for e in a.episodes] == \
               [e.time_to_reconverge for e in b.episodes]
        assert (baseline.queries.success_series
                == resumed.queries.success_series)


def _write_checkpoint(tmp_path):
    path = tmp_path / "x.ckpt"
    Simulator(_scenario(steps=8)).run(checkpoint_every=3,
                                      checkpoint_path=str(path))
    return path


class _Detonator:
    """A payload that fails the test if anything ever unpickles it."""

    def __reduce__(self):
        return pytest.fail, ("a refused checkpoint's payload was unpickled",)


def _assert_refused(path, theirs):
    with pytest.raises(ValueError) as err:
        Simulator.restore(path)
    message = str(err.value)
    assert f"checkpoint stamp {theirs} != {code_stamp()}" in message
    assert f"stale file: {path}" in message


class TestStaleCheckpointRejection:
    def test_code_stamp_is_derived_from_the_code(self, tmp_path):
        """``CODE_VERSION``, then a sha256 of the package sources; the
        file header carries it after the magic word."""
        version, digest = code_stamp().split("+")
        assert version == CODE_VERSION and len(digest) == 64
        int(digest, 16)
        with _write_checkpoint(tmp_path).open("rb") as fh:
            assert fh.readline() == (CHECKPOINT_MAGIC + b" "
                                     + code_stamp().encode() + b"\n")

    def test_code_version_mismatch_rejected(self, tmp_path):
        """A file stamped by other code is refused before its payload is
        unpickled, naming both stamps and the stale file."""
        path = tmp_path / "other.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b" 6+abc123\n"
                         + pickle.dumps(_Detonator()))
        _assert_refused(path, "6+abc123")

    def test_restore_rejects_stale_object(self, tmp_path):
        """A checkpoint from before stamps — a bare pickle of the old
        ``SimCheckpoint`` object — is refused unread."""
        path = tmp_path / "pre-stamp.ckpt"
        path.write_bytes(pickle.dumps(_Detonator()))
        _assert_refused(path, "(none)")

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"junk, and no newline at all")
        _assert_refused(path, "(none)")
        path.write_bytes(b"")
        _assert_refused(path, "(none)")


class TestAtomicCheckpointWrite:
    def test_failed_save_leaves_no_tmp_and_keeps_the_last(self, tmp_path,
                                                           monkeypatch):
        """A save interrupted mid-pickle (Ctrl-C) removes its
        ``run.ckpt.tmp-<pid>``; the checkpoint it was replacing is
        intact and still resumes."""
        sc = _scenario(steps=8)
        path = tmp_path / "run.ckpt"
        Simulator(sc).run(checkpoint_every=3, checkpoint_path=str(path))
        before = path.read_bytes()

        def dump_then_interrupt(obj, fh, protocol=None):
            fh.write(b"partial")
            raise KeyboardInterrupt

        with monkeypatch.context() as patched:
            patched.setattr(pickle, "dump", dump_then_interrupt)
            with pytest.raises(KeyboardInterrupt):
                Simulator.restore(path).checkpoint(path)
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]
        assert path.read_bytes() == before
        _assert_same_result(Simulator(sc).run(),
                            Simulator.restore(path).run())


class TestSweepCheckpointing:
    def test_run_task_falls_back_on_corrupt_checkpoint(self, tmp_path):
        sc = _scenario(steps=6)
        baseline = _run_task((sc, False, None, None, None))
        bad = tmp_path / "task.ckpt"
        bad.write_bytes(b"\x80\x04 not a checkpoint")
        out = _run_task((sc, False, str(bad), 3, None))
        _assert_same_result(baseline.result, out.result)
        # Completed task cleans up its checkpoint.
        assert not bad.exists()

    def test_run_task_ignores_checkpoint_for_other_scenario(self, tmp_path):
        sc_a = _scenario(steps=6, seed=1)
        sc_b = _scenario(steps=6, seed=2)
        path = tmp_path / "mismatch.ckpt"
        Simulator(sc_a).run(checkpoint_every=2, checkpoint_path=str(path))
        baseline = _run_task((sc_b, False, None, None, None))
        out = _run_task((sc_b, False, str(path), 2, None))
        _assert_same_result(baseline.result, out.result)

    def test_sweep_with_checkpoint_dir_matches_plain(self, tmp_path):
        grid = [_scenario(steps=6, seed=s) for s in (0, 1)]
        plain = run_sweep(grid)
        ckpt = run_sweep(grid, checkpoint_dir=tmp_path, checkpoint_every=2)
        for a, b in zip(plain, ckpt):
            _assert_same_result(a, b)
        # All tasks completed, so no checkpoint files survive.
        assert list(tmp_path.glob("*.ckpt")) == []
