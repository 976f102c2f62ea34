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
        ("profile", 30, 10, "euclidean"),
    ])
    def test_shared_flags_keep_each_subcommands_defaults(
            self, command, steps, warmup, hops):
        """The run flags are declared once for all three subcommands, but
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

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "repro.core" in out

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


class TestBadScenarioValues:
    """A value the preset, the depth rule, the chaos parser or
    ``Scenario`` rejects is one ``<command>: <message>`` line on stderr
    and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv,match", [
        (["simulate", "--density", "0"], "density"),
        (["simulate", "--speed", "-1"], "speed"),
        (["simulate", "--preset", "nope"], "unknown preset 'nope'"),
        (["simulate", "--chaos", "bogus"], "episode kind 'bogus'"),
        (["simulate", "--n", "1"], "n >= 2"),
        (["sweep", "--density", "0"], "density"),
        (["sweep", "--speed", "-1"], "speed"),
        (["profile", "--speed", "0"], "speed"),
    ], ids=["simulate-density", "simulate-speed", "simulate-preset",
            "simulate-chaos", "simulate-n", "sweep-density", "sweep-speed",
            "profile-speed"])
    def test_one_line_and_exit_2(self, capsys, argv, match):
        extra = ["--ns", "60", "--seeds", "0", "--no-cache", "--quiet"]
        assert main(argv + (extra if argv[0] != "simulate" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"{argv[0]}: ") and match in line


class TestSweepCommand:
    def test_sweep_runs_and_caches(self, tmp_path, capsys):
        args = ["sweep", "--ns", "60,90", "--seeds", "0", "--steps", "4",
                "--warmup", "1", "--cache-dir", str(tmp_path), "--quiet"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "total/log^2n" in first
        assert len(list(tmp_path.glob("*.pkl"))) == 2
        # Second invocation replays from the cache, identical table.
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_sweep_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "points.json"
        assert main(["sweep", "--ns", "60", "--seeds", "0", "--steps", "4",
                     "--warmup", "1", "--no-cache", "--quiet",
                     "--json", str(out_file)]) == 0
        assert "points written" in capsys.readouterr().out
        from repro.persist import load_sweep

        points = load_sweep(out_file)
        assert points[0].n == 60
        assert set(points[0].values) == {"phi", "gamma", "total"}

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
    def test_profile_prints_breakdown_and_stats(self, tmp_path, capsys):
        assert main(["profile", "--ns", "60,90", "--seeds", "0", "--steps",
                     "4", "--warmup", "1", "--cache-dir", str(tmp_path),
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "tasks/min" in out
        assert "phase mean ms/step" in out
        for phase in ("mobility", "rebuild", "hierarchy", "handoff",
                      "sampling"):
            assert phase in out

    def test_profile_second_run_hits_cache(self, tmp_path, capsys):
        args = ["profile", "--ns", "60", "--seeds", "0", "--steps", "4",
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
        assert main(["profile", "--ns", "60", "--seeds", "0,1", "--steps",
                     "4", "--warmup", "1", "--no-cache", "--quiet",
                     "--manifest", str(path)]) == 0
        assert "2 manifests written" in capsys.readouterr().out
        from repro.obs import RunManifest, read_jsonl

        manifests = [RunManifest.from_dict(d) for d in read_jsonl(path)]
        assert len(manifests) == 2
        assert all(m.phases for m in manifests)
        assert {m.scenario["seed"] for m in manifests} == {0, 1}

    def test_profile_reports_a_failed_task_and_exits_1(self, tmp_path,
                                                        capsys, monkeypatch):
        """One task of the grid fails every attempt: the sweep raises at
        its end, and ``repro profile`` still renders the report (with the
        failure) and writes manifests for the healthy tasks."""
        import repro.sim.sweep as sweep_mod

        real = sweep_mod._run_task

        def fail_seed_1(args):
            if args[0].seed == 1:
                raise RuntimeError("injected task failure")
            return real(args)

        monkeypatch.setattr(sweep_mod, "_run_task", fail_seed_1)
        monkeypatch.setattr(sweep_mod, "RETRY_BACKOFF", 0.0)
        path = tmp_path / "runs.jsonl"
        assert main(["profile", "--ns", "60", "--seeds", "0,1,2", "--steps",
                     "4", "--warmup", "1", "--no-cache", "--quiet",
                     "--manifest", str(path)]) == 1
        out = capsys.readouterr().out
        assert "2/3 done" in out
        assert "0 retried-then-succeeded, 1 failed (exception=1)" in out
        assert "phase mean ms/step" in out
        assert "2 manifests written" in out
        from repro.obs import RunManifest, read_jsonl

        manifests = [RunManifest.from_dict(d) for d in read_jsonl(path)]
        assert {m.scenario["seed"] for m in manifests} == {0, 2}

    def test_profile_rejects_empty_grid(self, capsys):
        assert main(["profile", "--ns", "", "--seeds", "0"]) == 2
        assert "at least one size" in capsys.readouterr().err

    def test_simulate_profile_flag(self, capsys):
        assert main([
            "simulate", "--n", "60", "--steps", "5", "--warmup", "1",
            "--seed", "3", "--hops", "euclidean", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "per step" in out

    def test_simulate_manifest_and_trace_jsonl(self, tmp_path, capsys):
        man = tmp_path / "run.json"
        trc = tmp_path / "trace.jsonl"
        assert main([
            "simulate", "--n", "60", "--steps", "5", "--warmup", "1",
            "--seed", "3", "--hops", "euclidean", "--trace", "--profile",
            "--manifest", str(man), "--trace-jsonl", str(trc),
        ]) == 0
        out = capsys.readouterr().out
        assert "manifest written" in out
        from repro.obs import RunManifest
        from repro.sim import EventTrace

        loaded = RunManifest.read(man)
        assert loaded.scenario["n"] == 60
        assert loaded.wall_seconds > 0
        assert len(EventTrace.from_jsonl(trc)) >= 0


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
