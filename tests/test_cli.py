"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.n == 200
        assert args.mobility == "random_waypoint"

    @pytest.mark.parametrize("command, steps, warmup, hops", [
        ("simulate", 50, 10, "auto"),
        ("sweep", 40, 10, "euclidean"),
    ])
    def test_shared_flags_keep_each_subcommands_defaults(
            self, command, steps, warmup, hops):
        """The run flags are declared once for both subcommands, but
        each keeps its own defaults; the rest of the block is common."""
        args = build_parser().parse_args([command])
        assert (args.steps, args.warmup, args.hops) == (steps, warmup, hops)
        assert (args.speed, args.dt, args.density, args.degree) == (
            1.0, 1.0, 0.02, 9.0)

    def test_experiment_args(self):
        args = build_parser().parse_args(["experiment", "EXP-T9", "--full"])
        assert args.exp_id == "EXP-T9"
        assert args.full


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "EXP-T4" in out
        assert "EXP-A2" in out

    def test_every_listed_experiment_has_a_title(self, capsys):
        """Titles come from the experiment modules' docstrings, so every
        catalogue entry has one, and each is a whole sentence."""
        from repro.experiments import ALL_EXPERIMENTS

        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(ALL_EXPERIMENTS)
        for line in lines:
            eid, title = line.split(maxsplit=1)
            assert not title.startswith(eid) and title.endswith("."), line

    def test_info(self, capsys):
        assert main(["info"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("repro ")
        # What ``repro --help`` shows, not the cli module's docstring.
        assert lines[1] == build_parser().description
        assert lines[1].startswith("Reproduction of Sucec & Marsic")
        assert "  repro.core" in lines

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "EXP-Z9"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_runs(self, capsys):
        assert main(["experiment", "exp-f1"]) == 0
        out = capsys.readouterr().out
        assert "EXP-F1" in out
        assert "level" in out

    def test_simulate_runs(self, capsys):
        assert main([
            "simulate", "--n", "60", "--steps", "5", "--warmup", "1",
            "--seed", "3", "--hops", "euclidean",
        ]) == 0
        out = capsys.readouterr().out
        assert "phi" in out
        assert "gamma_k" in out

    def test_simulate_with_trace(self, capsys):
        assert main([
            "simulate", "--n", "60", "--steps", "5", "--warmup", "1",
            "--seed", "3", "--hops", "euclidean", "--trace",
        ]) == 0
        out = capsys.readouterr().out
        assert "event trace" in out

    def test_hierarchy(self, capsys):
        assert main(["hierarchy", "--n", "50", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "level 0:" in out

    def test_hierarchy_tree(self, capsys):
        assert main(["hierarchy", "--n", "50", "--seed", "2", "--tree"]) == 0
        out = capsys.readouterr().out
        assert "cluster" in out


class TestPresetFlags:
    """A preset sets its regime; a flag overrides one of its values only
    when it is typed on the command line."""

    @staticmethod
    def simulated(monkeypatch, argv):
        """The Scenario ``repro simulate`` would run for ``argv``."""
        import repro.sim

        seen = []

        class Stop(Exception):
            pass

        def capture(sc, **_):
            seen.append(sc)
            raise Stop

        monkeypatch.setattr(repro.sim, "Simulator", capture)
        with pytest.raises(Stop):
            main(["simulate", *argv])
        return seen[0]

    @pytest.mark.parametrize("preset, degree", [
        ("campus", 8.0), ("vehicular", 10.0), ("sensor-field", 8.0)])
    def test_untyped_defaults_leave_the_preset_alone(self, monkeypatch,
                                                     preset, degree):
        sc = self.simulated(monkeypatch, ["--preset", preset])
        assert sc.target_degree == degree

    def test_typed_flags_override_the_preset(self, monkeypatch):
        sc = self.simulated(monkeypatch, [
            "--preset", "campus", "--speed", "3", "--density", "0.1",
            "--degree", "9"])
        assert (sc.speed, sc.density, sc.target_degree) == (3.0, 0.1, 9.0)
        assert sc.mobility == "gauss_markov"  # not typed: the preset's

    def test_preset_crash_episode_survives(self, monkeypatch):
        from repro.faults import CrashEpisode

        sc = self.simulated(monkeypatch, ["--preset", "sensor-field"])
        assert sc.chaos == (CrashEpisode(rate=0.002, repair_time=30.0),)
        typed = self.simulated(monkeypatch, [
            "--preset", "sensor-field", "--chaos", "burst:rate=0.2"])
        assert [type(ep).__name__ for ep in typed.chaos] == [
            "LossBurstEpisode"]


class TestBadScenarioValues:
    """A value the preset, the depth rule, the chaos parser or
    ``Scenario`` rejects, a bad checkpoint cadence, an unknown
    experiment and an unusable checkpoint are each one ``<command>:
    <message>`` line on stderr and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv,match", [
        (["simulate", "--density", "0"], "density"),
        (["simulate", "--speed", "-1"], "speed"),
        (["simulate", "--preset", "nope"], "unknown preset 'nope'"),
        (["simulate", "--chaos", "bogus"], "episode kind 'bogus'"),
        (["simulate", "--n", "1"], "n >= 2"),
        (["sweep", "--density", "0"], "density"),
        (["sweep", "--speed", "-1"], "speed"),
        (["simulate", "--checkpoint", "{tmp}/run.ckpt",
          "--checkpoint-every", "0"], "--checkpoint-every must be >= 1"),
        (["simulate", "--checkpoint-every", "5"],
         "--checkpoint-every requires --checkpoint"),
        (["resume", "{tmp}/missing.ckpt", "--checkpoint-every", "0"],
         "--checkpoint-every must be >= 1"),
        (["experiment", "EXP-NOPE"], "unknown experiment 'EXP-NOPE'"),
        (["resume", "{tmp}/missing.ckpt"], "no such checkpoint"),
        (["resume", "{tmp}/junk.ckpt"], "cannot resume from"),
        (["hierarchy", "--density", "0"], "density must be positive"),
        (["hierarchy", "--degree", "-3"], "--degree must be positive"),
        (["hierarchy", "--n", "1"], "at least two nodes"),
        (["simulate", "--degree", "-3"], "--degree must be positive"),
        (["sweep", "--degree", "-3"], "--degree must be positive"),
        (["simulate", "--election", "persistent", "--chaos",
          "crash:start=1,duration=1,count=1,targets=clusterheads"],
         "cannot run under --election='persistent'"),
    ], ids=["simulate-density", "simulate-speed", "simulate-preset",
            "simulate-chaos", "simulate-n", "sweep-density", "sweep-speed",
            "simulate-checkpoint-every-0", "simulate-checkpoint-every-alone",
            "resume-checkpoint-every-0", "experiment-unknown",
            "resume-missing", "resume-not-a-checkpoint",
            "hierarchy-density", "hierarchy-degree", "hierarchy-n",
            "simulate-degree", "sweep-degree", "simulate-election"])
    def test_one_line_and_exit_2(self, capsys, tmp_path, argv, match):
        import pickle

        with (tmp_path / "junk.ckpt").open("wb") as fh:
            pickle.dump({"not": "a checkpoint"}, fh)
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        extra = ["--ns", "60", "--seeds", "0", "--no-cache", "--quiet"]
        assert main(argv + (extra if argv[0] == "sweep" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"{argv[0]}: ") and match in line

    def test_pre_stamp_checkpoint_is_one_line_and_exit_2(
            self, capsys, tmp_path, monkeypatch):
        """A checkpoint written before checkpoints carried a code stamp —
        a bare pickle of ``repro.sim.checkpoint.SimCheckpoint``, a module
        this code no longer has — is refused as stale."""
        import pickle
        import sys
        import types

        from repro.sim.sweep import CODE_VERSION

        old = types.ModuleType("repro.sim.checkpoint")
        old.SimCheckpoint = type("SimCheckpoint", (),
                                 {"__module__": old.__name__})
        ck = old.SimCheckpoint()
        ck.__dict__.update(code_version="7", schema=15, next_step=3)
        with monkeypatch.context() as m:
            m.setitem(sys.modules, old.__name__, old)
            payload = pickle.dumps(ck)
        path = tmp_path / "pre-stamp.ckpt"
        path.write_bytes(payload)
        assert main(["resume", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"resume: cannot resume from {path}: ")
        assert f"checkpoint stamp (none) != {CODE_VERSION}+" in line
        assert path.exists()


class TestBadAxisValues:
    """An integer axis with a non-integer in it: one ``<command>:`` line
    on stderr and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "--ns", "60,abc", "--seeds", "0"], "--ns"),
        (["sweep", "--ns", "60", "--seeds", "0,x"], "--seeds"),
        (["experiment", "EXP-F1", "--seeds", "x"], "--seeds"),
        (["report", "--experiments", "EXP-F1", "--seeds", "x"], "--seeds"),
    ], ids=["sweep-ns", "sweep-seeds", "experiment-seeds", "report-seeds"])
    def test_one_line_and_exit_2(self, capsys, argv, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(
            f"{argv[0]}: {flag} takes comma-separated integers"), line


def _table(out: str) -> str:
    """The aggregate table ``repro sweep`` prints above its report."""
    return out.split("\n\n")[0]


class TestSweepCommand:
    def test_sweep_runs_and_caches(self, tmp_path, capsys):
        args = ["sweep", "--ns", "60,90", "--seeds", "0", "--steps", "4",
                "--warmup", "1", "--cache-dir", str(tmp_path), "--quiet"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "total/log^2n" in first
        assert "0 cached, 0% hit rate" in first
        assert len(list(tmp_path.glob("*.pkl"))) == 2
        # Second invocation replays from the cache, identical table.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert _table(second) == _table(first)
        assert "2 cached, 100% hit rate" in second

    def test_sweep_manifest_output(self, tmp_path, capsys):
        out_file = tmp_path / "runs.jsonl"
        assert main(["sweep", "--ns", "60", "--seeds", "0", "--steps", "4",
                     "--warmup", "1", "--no-cache", "--quiet",
                     "--manifest", str(out_file)]) == 0
        assert "1 manifests written" in capsys.readouterr().out
        from repro.obs import RunManifest
        from tests.jsonl import read_jsonl

        (man,) = [RunManifest.from_dict(d) for d in read_jsonl(out_file)]
        assert man.scenario["n"] == 60
        assert {"phi", "gamma", "handoff_rate"} <= set(man.metrics)
        assert man.phases

    def test_sweep_rejects_empty_grid(self, capsys):
        assert main(["sweep", "--ns", "", "--seeds", "0"]) == 2
        assert "at least one size" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,match", [
        (["--checkpoint-every", "2"], "requires checkpoint_dir"),
        (["--checkpoint-dir", "CKPT", "--checkpoint-every", "0"], ">= 1"),
        (["--task-timeout", "0"], "task_timeout"),
    ], ids=["every-without-dir", "every-zero", "timeout-zero"])
    def test_sweep_rejects_bad_run_control(self, tmp_path, capsys, flags,
                                           match):
        """The runner's own check, printed as one line with exit 2."""
        flags = [str(tmp_path / f) if f == "CKPT" else f for f in flags]
        assert main(["sweep", "--ns", "60", "--seeds", "0", "--steps", "4",
                     "--no-cache", "--quiet", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("sweep: ") and match in line


class TestProfileCommand:
    """The profiled sweep: ``repro sweep`` prints its aggregate table,
    then the :class:`~repro.obs.SweepReport` block."""

    def test_profile_prints_breakdown_and_stats(self, tmp_path, capsys):
        assert main(["sweep", "--ns", "60,90", "--seeds", "0", "--steps",
                     "4", "--warmup", "1", "--cache-dir", str(tmp_path),
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        # Profiling leaves the table's rows unchanged, byte for byte.
        assert _table(out) == (
            "     n   L      phi    gamma    total  total/log^2n\n"
            "    60   2   0.4333   1.3125   1.7458       0.10414\n"
            "    90   3   0.6111   2.5028   3.1139       0.15379")
        assert "hit rate" in out
        assert "tasks/min" in out
        assert "phase mean ms/step" in out
        for phase in ("mobility", "rebuild", "hierarchy", "handoff",
                      "sampling"):
            assert phase in out

    def test_profile_second_run_hits_cache(self, tmp_path, capsys):
        args = ["sweep", "--ns", "60", "--seeds", "0", "--steps", "4",
                "--warmup", "1", "--cache-dir", str(tmp_path), "--quiet"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "1 cached, 100% hit rate" in out
        # Cached profiled results still carry timings for the breakdown.
        assert "phase mean ms/step" in out

    def test_profile_writes_manifests(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        assert main(["sweep", "--ns", "60", "--seeds", "0,1", "--steps",
                     "4", "--warmup", "1", "--no-cache", "--quiet",
                     "--manifest", str(path)]) == 0
        assert "2 manifests written" in capsys.readouterr().out
        from repro.obs import RunManifest
        from tests.jsonl import read_jsonl

        manifests = [RunManifest.from_dict(d) for d in read_jsonl(path)]
        assert len(manifests) == 2
        assert all(m.phases for m in manifests)
        assert {m.scenario["seed"] for m in manifests} == {0, 1}

    def test_profile_reports_a_failed_task_and_exits_1(self, tmp_path,
                                                        capsys, monkeypatch):
        """One task of the grid fails every attempt: the sweep raises at
        its end, and ``repro sweep`` still prints the healthy tasks' table
        row and the report (with the failure), writes their manifests
        and exits 1."""
        import repro.sim.sweep as sweep_mod

        real = sweep_mod._run_task

        def fail_seed_1(args):
            if args[0].seed == 1:
                raise RuntimeError("injected task failure")
            return real(args)

        monkeypatch.setattr(sweep_mod, "_run_task", fail_seed_1)
        monkeypatch.setattr(sweep_mod, "RETRY_BACKOFF", 0.0)
        path = tmp_path / "runs.jsonl"
        assert main(["sweep", "--ns", "60", "--seeds", "0,1,2", "--steps",
                     "4", "--warmup", "1", "--no-cache", "--quiet",
                     "--manifest", str(path)]) == 1
        out = capsys.readouterr().out
        (row,) = _table(out).splitlines()[1:]
        assert row.split()[:2] == ["60", "2"]
        assert "2/3 done" in out
        assert "0 retried-then-succeeded, 1 failed (exception=1)" in out
        assert "phase mean ms/step" in out
        assert "2 manifests written" in out
        from repro.obs import RunManifest
        from tests.jsonl import read_jsonl

        manifests = [RunManifest.from_dict(d) for d in read_jsonl(path)]
        assert {m.scenario["seed"] for m in manifests} == {0, 2}

    def test_profile_rejects_empty_grid(self, capsys):
        assert main(["sweep", "--ns", "60", "--seeds", ""]) == 2
        assert "one seed" in capsys.readouterr().err

    def test_simulate_profile_flag(self, capsys):
        assert main([
            "simulate", "--n", "60", "--steps", "5", "--warmup", "1",
            "--seed", "3", "--hops", "euclidean", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "per step" in out

    def test_simulate_manifest_carries_trace_and_chaos(self, tmp_path,
                                                       capsys):
        """A traced chaos run writes one file: the manifest, with the
        event trace and the chaos report as sections."""
        man = tmp_path / "run.json"
        assert main([
            "simulate", "--n", "60", "--steps", "5", "--warmup", "1",
            "--seed", "3", "--hops", "euclidean", "--trace", "--profile",
            "--chaos", "partition:start=1,duration=2",
            "--manifest", str(man),
        ]) == 0
        out = capsys.readouterr().out
        assert "manifest written" in out
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
        from repro.obs import RunManifest

        loaded = RunManifest.read(man)
        assert loaded.scenario["n"] == 60
        assert loaded.wall_seconds > 0
        assert loaded.trace["events"]
        assert loaded.trace["capacity"] > 0 and loaded.trace["dropped"] == 0
        assert [ep["kind"] for ep in loaded.chaos["episodes"]] == [
            "partition"]
        assert len(loaded.chaos["violations_series"]) == 5

    def test_resume_prints_the_restored_trace(self, tmp_path, capsys):
        """``repro resume`` prints the event trace when the checkpointed
        collectors hold one, and none otherwise."""
        from repro.sim import Scenario, Simulator, TraceCollector

        sc = Scenario(n=60, steps=6, warmup=1, seed=3, hop_mode="euclidean")
        for collectors, traced in (([TraceCollector()], True), ([], False)):
            path = tmp_path / "run.ckpt"
            Simulator(sc, collectors=collectors).run(
                checkpoint_every=2, checkpoint_path=str(path))
            assert main(["resume", str(path)]) == 0
            out = capsys.readouterr().out
            assert ("event trace (last 20):" in out) is traced
            assert not path.exists()

    def test_resume_keeps_checkpointing(self, tmp_path, capsys):
        """``repro resume`` without ``--checkpoint-every`` protects the
        rest of the run as ``simulate --checkpoint`` does: every 25
        steps, to the file it resumed from."""
        from repro.sim import Scenario, Simulator

        sc = Scenario(n=60, steps=30, warmup=1, seed=3, hop_mode="euclidean")
        path = tmp_path / "run.ckpt"
        Simulator(sc).run(checkpoint_every=20, checkpoint_path=str(path))
        assert Simulator.restore(path).next_step == 20
        assert main(["resume", str(path), "--keep-checkpoint"]) == 0
        assert "resuming at step 20/30" in capsys.readouterr().out
        assert Simulator.restore(path).next_step == 25

    def test_simulate_reports_burst_only_loss(self, capsys):
        """A run whose only loss is a burst episode prints the lossy
        control plane's retransmission, abandonment and recovery."""
        assert main([
            "simulate", "--n", "60", "--steps", "5", "--warmup", "1",
            "--seed", "3", "--hops", "euclidean",
            "--chaos", "burst:start=1,duration=3,rate=0.4",
        ]) == 0
        out = capsys.readouterr().out
        for label in ("retransmission =", "abandonment    =",
                      "mean recovery  ="):
            assert label in out


class TestReportCommand:
    def test_report_stdout(self, capsys):
        assert main(["report", "--experiments", "EXP-F1", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "EXP-F1" in out

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "r.md"
        assert main(["report", "--experiments", "EXP-F2", "--seeds", "0",
                     "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert "EXP-F2" in out_file.read_text()
        assert "report written" in capsys.readouterr().out

    def test_simulate_persistent_mode(self, capsys):
        assert main([
            "simulate", "--n", "60", "--steps", "4", "--warmup", "1",
            "--seed", "3", "--hops", "euclidean", "--election", "persistent",
        ]) == 0
        assert "phi" in capsys.readouterr().out


class TestServeCommandIsGone:
    def test_serve_is_an_unknown_command(self, capsys):
        """The open-loop service front-end was retired with its
        subcommand; argparse rejects ``serve`` with usage exit 2."""
        with pytest.raises(SystemExit) as err:
            main(["serve", "--n", "60"])
        assert err.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err
