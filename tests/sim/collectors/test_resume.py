"""Tests for checkpoint/resume: a resumed run must be indistinguishable
from an uninterrupted one, and stale/corrupt checkpoints must be
rejected or ignored rather than trusted."""

import dataclasses
import pickle
import sys
import types

import numpy as np
import pytest

from repro.sim import Scenario, SimCheckpoint, Simulator
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
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
    assert a.ledger.migration_packets == b.ledger.migration_packets
    assert a.ledger.reorg_packets == b.ledger.reorg_packets
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
        """A run whose Verlet candidate lists outlive their step resumes
        mid-run: the result equals the uninterrupted run's, and the edge
        cache's rebuild counts carry across the checkpoint (at 2 m/s
        every list lasts a few steps, so the run rebuilds several times
        and never falls back to the plain build)."""
        sc = _scenario()
        uninterrupted = Simulator(sc)
        baseline = uninterrupted.run()
        path = tmp_path / "event.ckpt"
        Simulator(sc).run(checkpoint_every=5, checkpoint_path=str(path))
        ck = load_checkpoint(path)
        # The edge cache is mid-list: the resumed run filters the pickled
        # candidate columns before its next rebuild.
        u, v = ck.edge_cache._candidates
        assert u.flags.c_contiguous and v.flags.c_contiguous and u.size
        at_checkpoint = ck.edge_cache.rebuilds
        resumed_sim = Simulator.restore(ck)
        assert 0 < resumed_sim.next_step < sc.steps
        _assert_same_result(baseline, resumed_sim.run())
        want = uninterrupted.checkpoint().edge_cache
        got = resumed_sim.checkpoint().edge_cache
        assert (got.rebuilds, got.plain_builds) == (want.rebuilds,
                                                    want.plain_builds)
        assert want.rebuilds > at_checkpoint > 0
        assert want.plain_builds == 0

    def test_restore_accepts_checkpoint_object(self, tmp_path):
        sc = _scenario(steps=8)
        baseline = Simulator(sc).run()
        path = tmp_path / "obj.ckpt"
        Simulator(sc).run(checkpoint_every=3, checkpoint_path=str(path))
        ck = load_checkpoint(path)
        assert isinstance(ck, SimCheckpoint)
        _assert_same_result(baseline, Simulator.restore(ck).run())

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
        assert a.stale_series == b.stale_series
        assert [e.time_to_reconverge for e in a.episodes] == \
               [e.time_to_reconverge for e in b.episodes]
        assert (baseline.queries.success_series
                == resumed.queries.success_series)


class TestStaleCheckpointRejection:
    def _write_checkpoint(self, tmp_path, **replace):
        sc = _scenario(steps=8)
        path = tmp_path / "x.ckpt"
        Simulator(sc).run(checkpoint_every=3, checkpoint_path=str(path))
        ck = load_checkpoint(path)
        if replace:
            ck = dataclasses.replace(ck, **replace)
            save_checkpoint(ck, path)
        return path

    def test_code_version_mismatch_rejected(self, tmp_path):
        path = self._write_checkpoint(tmp_path, code_version="stale-0")
        with pytest.raises(ValueError, match="simulator version"):
            load_checkpoint(path)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = self._write_checkpoint(tmp_path, schema=999)
        with pytest.raises(ValueError, match="schema"):
            load_checkpoint(path)

    def _assert_schema_refused(self, tmp_path, schema):
        self._assert_refused_as_stale(
            self._write_checkpoint(tmp_path, schema=schema), schema)

    @staticmethod
    def _assert_refused_as_stale(path, schema):
        from repro.sim.checkpoint import CHECKPOINT_SCHEMA

        assert CHECKPOINT_SCHEMA == 15
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert f"checkpoint schema {schema} != 15" in str(err.value)
        assert "stale file" in str(err.value) and str(path) in str(err.value)

    def test_schema_3_checkpoint_refused(self, tmp_path):
        """Schema 3 pickled dict-keyed assignments inside the engine; a
        file of that vintage must be refused, naming both schemas and
        the stale file, never resumed."""
        self._assert_schema_refused(tmp_path, 3)

    def test_schema_4_checkpoint_refused(self, tmp_path):
        """Schema 4 pickled an adjacency dict inside every level's
        incremental election; refused the same way."""
        self._assert_schema_refused(tmp_path, 4)

    def test_schema_5_checkpoint_refused(self, tmp_path):
        """Schema 5 pickled ``maintainer`` and ``delta_plane`` where
        schema 6 has the one ``stepper``; refused the same way."""
        self._assert_schema_refused(tmp_path, 5)

    def test_schema_6_checkpoint_refused(self, tmp_path):
        """Schema 6 pickled the edge cache's candidate list as ``(m, 2)``
        pairs where schema 7 keeps two contiguous columns; refused the
        same way."""
        self._assert_schema_refused(tmp_path, 6)

    def test_schema_7_checkpoint_refused(self, tmp_path):
        """Schema 7 pickled one ALCA state tracker per level where schema
        8 keeps one level-stacked tracker; refused the same way."""
        self._assert_schema_refused(tmp_path, 7)

    @pytest.mark.parametrize("schema", [8, 9, 10, 11, 12, 13, 14])
    def test_schema_8_9_checkpoint_refused(self, tmp_path, schema):
        """Schema 8 pickled the event plane's per-level patched elections
        where schema 9 keeps the from-scratch stepper on both planes.
        Both pickled a checkpoint ``hop_sample_every`` field and a
        scenario with seven fields schema 10 turned into constants.  The
        first three pickled the ``incremental_hierarchy`` field schema 11
        deleted, with ``edge_cache`` None when it was off.  The first
        four pickled the eight service front-end fields schema 12
        deleted.  The first five pickled the ``clustering``, ``maxmin_d``
        and ``hash_fn`` fields schema 13 deleted, and the engine's
        ``hash_fn``.  All six pickled the legacy crash fields
        ``failure_rate`` and ``repair_time`` schema 14 deleted.  All
        seven pickled the checkpoint ``trace`` field and the scenario
        ``retry_timeout`` schema 15 deleted.  A file of that shape still
        unpickles, and is refused the same way."""
        path = self._write_checkpoint(tmp_path, schema=schema)
        with path.open("rb") as fh:
            ck = pickle.load(fh)
        ck.__dict__["trace"] = None
        ck.scenario.__dict__["retry_timeout"] = 1.0
        if schema < 14:
            ck.scenario.__dict__.update(failure_rate=0.0, repair_time=20.0)
        if schema < 13:
            ck.scenario.__dict__.update(
                clustering="lca", maxmin_d=2, hash_fn="rendezvous")
            ck.engine.__dict__["hash_fn"] = "rendezvous"
        if schema < 12:
            ck.scenario.__dict__.update(
                arrival_rate=0.0, arrival_process="poisson",
                admission_rate=0.0, service_workers=4,
                service_queue_capacity=512, service_hop_time=0.002,
                service_update_fraction=0.2, service_scheme="chlm")
        if schema < 11:
            ck.edge_cache = None
            ck.scenario.__dict__["incremental_hierarchy"] = False
        if schema < 10:
            ck.__dict__["hop_sample_every"] = ck.scenario.hop_sample_every
            ck.scenario.__dict__.update(
                detour=1.3, loss_level_coeff=0.0, retry_backoff=0.05,
                retry_backoff_factor=2.0, retry_jitter=0.1,
                slo_success_threshold=0.9, slo_window=3)
        save_checkpoint(ck, path)
        self._assert_refused_as_stale(path, schema)

    @pytest.mark.parametrize("module,name", [
        ("repro.hierarchy.delta", "RetiredPlane"),
        ("repro.clustering.retired", "RetiredElection"),
    ], ids=["missing-class", "missing-module"])
    def test_checkpoint_naming_missing_code_refused(self, tmp_path,
                                                    monkeypatch, module,
                                                    name):
        """An old file can pickle a ``repro`` class (or module) this code
        no longer has; unpickling it fails before the schema field can
        be read, and that is reported as a stale checkpoint, not as the
        bare ``AttributeError`` / ``ImportError``."""
        retired = type(name, (), {"__module__": module})
        if module in sys.modules:
            monkeypatch.setattr(sys.modules[module], name, retired,
                                raising=False)
        else:
            fake = types.ModuleType(module)
            setattr(fake, name, retired)
            monkeypatch.setitem(sys.modules, module, fake)
        path = self._write_checkpoint(tmp_path)
        save_checkpoint(dataclasses.replace(load_checkpoint(path),
                                            stepper=retired()), path)
        monkeypatch.undo()
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert "checkpoint schema" in str(err.value)
        assert "stale file" in str(err.value) and str(path) in str(err.value)
        assert name in str(err.value) or module in str(err.value)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        with path.open("wb") as f:
            pickle.dump({"not": "a checkpoint"}, f)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_restore_rejects_stale_object(self, tmp_path):
        good = load_checkpoint(self._write_checkpoint(tmp_path))
        stale = dataclasses.replace(good, code_version="stale-0")
        with pytest.raises(ValueError):
            Simulator.restore(stale)
        assert CODE_VERSION == good.code_version


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
                save_checkpoint(load_checkpoint(path), path)
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
