"""Command-line interface.

::

    python -m repro list
    python -m repro experiment EXP-T4 [--full] [--seeds 0,1]
    python -m repro simulate --n 300 --steps 60 --speed 1.5 [--trace]
    python -m repro simulate --n 300 --checkpoint run.ckpt --checkpoint-every 20
    python -m repro simulate --n 300 --chaos partition:start=30,duration=20 \\
        --trace --manifest run.json
    python -m repro resume run.ckpt
    python -m repro sweep --ns 200,400,800 --seeds 0,1,2 --workers 4 \\
        [--manifest runs.jsonl]
    python -m repro hierarchy --n 120 [--seed 7]
    python -m repro info

Everything the CLI prints comes from the same public API the examples
use; the CLI adds no behavior of its own.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter

import numpy as np

__all__ = ["main", "build_parser"]


# Flags that describe a Scenario: argparse dest -> Scenario field.  Each is
# declared once, in one of the _add_*_args helpers or in the one subcommand
# that owns it, and _scenario_from_args copies whichever of them a
# subcommand declared -- so dropping a Scenario field is an edit here and
# at its add_argument, nowhere else.
_SCENARIO_FLAGS = {
    "n": "n", "seed": "seed",
    "steps": "steps", "warmup": "warmup", "speed": "speed", "dt": "dt",
    "density": "density", "degree": "target_degree", "hops": "hop_mode",
    "loss_rate": "loss_rate", "retry_attempts": "retry_attempts",
    "mobility": "mobility", "election": "election_mode",
    "invariant_mode": "invariant_mode",
}


class _Typed(argparse.Action):
    """argparse's ``store`` that also notes the flag's dest in
    ``namespace.typed``, so a preset yields only to flags typed on the
    command line, never to a default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.typed = getattr(namespace, "typed", frozenset()) | {self.dest}


def _add_run_args(p, *, steps: int, warmup: int, hops: str) -> None:
    """Run length and deployment flags (simulate/sweep); the keyword
    arguments are the subcommand's own defaults."""
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument("--warmup", type=int, default=warmup)
    p.add_argument("--speed", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--density", type=float, default=0.02)
    p.add_argument("--degree", type=float, default=9.0)
    p.add_argument("--hops", default=hops,
                   choices=["auto", "bfs", "euclidean"])


def _add_control_plane_args(p) -> None:
    """Control-plane loss flags (simulate/sweep)."""
    p.add_argument("--loss-rate", type=float, default=0.0,
                   help="per-hop control-packet loss probability "
                        "(default 0 = lossless)")
    p.add_argument("--retry-attempts", type=int, default=4,
                   help="max delivery attempts per control message "
                        "when --loss-rate > 0 (default 4)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Sucec & Marsic (IPPS 2002): "
                    "hierarchical MANET LM handoff overhead.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("info", help="show version and component inventory")

    p_exp = sub.add_parser("experiment", help="run one experiment")
    p_exp.add_argument("exp_id", help="experiment id, e.g. EXP-T4")
    p_exp.add_argument("--full", action="store_true",
                       help="wide grid (slow) instead of the quick grid")
    p_exp.add_argument("--seeds", default="0,1",
                       help="comma-separated seeds (default 0,1)")

    p_sim = sub.add_parser("simulate", help="run one scenario and print metrics")
    p_sim.register("action", None, _Typed)  # the action of a plain flag
    p_sim.add_argument("--preset", default=None,
                       help="start from a named preset (see repro.sim.PRESETS)")
    p_sim.add_argument("--n", type=int, default=200)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--levels", type=int, default=None,
                       help="hierarchy depth cap (default: log-scaled)")
    _add_run_args(p_sim, steps=50, warmup=10, hops="auto")
    p_sim.add_argument("--mobility", default="random_waypoint",
                       choices=["random_waypoint", "random_direction",
                                "group", "stationary", "gauss_markov"])
    p_sim.add_argument("--election", default="memoryless",
                       choices=["memoryless", "sticky", "persistent"])
    _add_control_plane_args(p_sim)
    p_sim.add_argument("--chaos", action="append", default=None,
                       metavar="SPEC",
                       help="schedule a fault episode (repeatable); SPEC is "
                            "kind:key=value,... e.g. "
                            "'crash:start=10,duration=5,rate=0.02' or "
                            "'partition:start=30,duration=20,angle=1.57' or "
                            "'burst:start=5,duration=10,rate=0.3' "
                            "(see repro.faults.parse_episode)")
    p_sim.add_argument("--invariant-mode", default="auto",
                       choices=["auto", "count", "strict", "off"],
                       help="hierarchy invariant checking: auto enables "
                            "counting whenever faults are injected; strict "
                            "raises on the first violation (default auto)")
    p_sim.add_argument("--trace", action="store_true",
                       help="record the event trace; print its tail")
    p_sim.add_argument("--profile", action="store_true",
                       help="meter pipeline phases; print the breakdown")
    p_sim.add_argument("--manifest", default=None, metavar="PATH",
                       help="write the run manifest (JSON, with the event "
                            "trace and chaos report) to this path")
    p_sim.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="write periodic checkpoints to this path "
                            "(resume later with 'repro resume PATH')")
    p_sim.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="checkpoint cadence in steps (default 25; "
                            "requires --checkpoint)")

    p_res = sub.add_parser(
        "resume", help="resume an interrupted simulate run from a checkpoint")
    p_res.add_argument("checkpoint", metavar="CHECKPOINT",
                       help="checkpoint file written by simulate --checkpoint")
    p_res.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="checkpoint cadence in steps while finishing the "
                            "run, to the same file (default 25)")
    p_res.add_argument("--keep-checkpoint", action="store_true",
                       help="leave the checkpoint file in place after the run "
                            "completes (default: delete it)")

    p_rep = sub.add_parser("report", help="run experiments, emit a markdown report")
    p_rep.add_argument("--out", default=None, help="write the report to this file")
    p_rep.add_argument("--experiments", default=None,
                       help="comma-separated experiment ids (default: all)")
    p_rep.add_argument("--full", action="store_true", help="wide grids")
    p_rep.add_argument("--seeds", default="0,1")

    p_sw = sub.add_parser(
        "sweep",
        help="run a sizes x seeds scenario grid (parallel, result-cached, "
             "profiled)")
    p_sw.add_argument("--ns", default="100,200,400",
                      help="comma-separated node counts (default 100,200,400)")
    p_sw.add_argument("--seeds", default="0,1",
                      help="comma-separated seeds (default 0,1)")
    p_sw.add_argument("--workers", type=int, default=None,
                      help="process count "
                           "(default: REPRO_SWEEP_WORKERS or serial)")
    p_sw.add_argument("--cache-dir", default=None,
                      help="result cache directory "
                           "(default: ~/.cache/repro/sweeps)")
    p_sw.add_argument("--no-cache", action="store_true",
                      help="always re-simulate, never touch the cache")
    p_sw.add_argument("--quiet", action="store_true",
                      help="suppress per-task progress lines")
    _add_run_args(p_sw, steps=40, warmup=10, hops="euclidean")
    _add_control_plane_args(p_sw)
    p_sw.add_argument("--task-timeout", type=float, default=None,
                      help="per-task wall-clock budget in seconds "
                           "(parallel mode; default: no timeout)")
    p_sw.add_argument("--task-retries", type=int, default=1,
                      help="re-runs granted to crashed/timed-out tasks "
                           "(default 1)")
    p_sw.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                      help="write per-task checkpoints here so crashed or "
                           "timed-out tasks resume instead of restarting")
    p_sw.add_argument("--checkpoint-every", type=int, default=None,
                      metavar="N",
                      help="per-task checkpoint cadence in steps "
                           "(default 25; requires --checkpoint-dir)")
    p_sw.add_argument("--manifest", default=None, metavar="PATH",
                      help="write one run manifest per finished task "
                           "as JSONL")

    p_h = sub.add_parser("hierarchy", help="build and render a hierarchy")
    p_h.add_argument("--n", type=int, default=100)
    p_h.add_argument("--seed", type=int, default=7)
    p_h.add_argument("--density", type=float, default=0.02)
    p_h.add_argument("--degree", type=float, default=9.0)
    p_h.add_argument("--tree", action="store_true",
                     help="print the full cluster tree, not just the summary")
    return parser


def _cmd_list() -> int:
    import inspect

    from repro.experiments import ALL_EXPERIMENTS

    for eid, run in ALL_EXPERIMENTS.items():
        # The title is the first line of the module docstring, less the id.
        doc = inspect.getmodule(run).__doc__
        title = doc.strip().splitlines()[0].removeprefix(eid).lstrip(" —")
        print(f"{eid:8s} {title}")
    return 0


def _cmd_info(description: str) -> int:
    import repro

    print(f"repro {repro.__version__}")
    print(description)
    for pkg in repro.__all__:
        print(f"  repro.{pkg}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS, run_experiment

    exp_id = args.exp_id.upper()
    if exp_id not in ALL_EXPERIMENTS:
        print(f"experiment: unknown experiment {args.exp_id!r}; "
              "try 'repro list'", file=sys.stderr)
        return 2
    seeds = _ints(args, "seeds")
    if seeds is None:
        return 2
    result = run_experiment(exp_id, quick=not args.full, seeds=seeds or None)
    print(result.to_text())
    return 0


def _ints(args, flag: str):
    """The comma-separated integers of ``--<flag>`` (blanks skipped), or
    None after printing ``<command>: <message>`` on stderr when one is
    not an integer; the caller exits 2."""
    text = getattr(args, flag)
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        print(f"{args.command}: --{flag} takes comma-separated integers, "
              f"got {text!r}", file=sys.stderr)
        return None


def _scenario_from_args(args, **fields):
    """The Scenario a subcommand's flags describe: every _SCENARIO_FLAGS
    entry the subcommand declared, plus ``fields`` it computes itself.

    A value the preset, the depth rule, the chaos parser or ``Scenario``
    rejects is printed as one ``<command>: <message>`` line on stderr,
    naming the flag where the field's name is not the flag's (``--degree``
    for ``target_degree``), and None is returned; the caller exits 2."""
    from repro.analysis import levels_for
    from repro.sim import PRESETS, Scenario, make_scenario

    given = vars(args)
    preset = given.get("preset")
    # A preset sets its regime; one of its values yields to a flag only
    # when that flag was typed.
    regime = PRESETS.get(preset, {})
    typed = given.get("typed", frozenset())
    kwargs = {field: given[flag] for flag, field in _SCENARIO_FLAGS.items()
              if flag in given and (field not in regime or flag in typed)}
    kwargs.update(fields)
    try:
        if "levels" in given:
            kwargs["max_levels"] = (levels_for(args.n) if args.levels is None
                                    else args.levels)
        if preset:
            return make_scenario(preset, **kwargs)
        return Scenario(**kwargs)
    except (ValueError, TypeError) as exc:
        message = str(exc)
        for flag, field in _SCENARIO_FLAGS.items():
            if flag != field and flag in given:
                message = re.sub(rf"\b{field}\b", f"--{flag}", message)
        print(f"{args.command}: {message}", file=sys.stderr)
        return None


def _checkpoint_every_ok(args, path) -> bool:
    """Whether ``--checkpoint-every`` suits a run checkpointing to
    ``path``; if not, print one ``<command>: <message>`` line on stderr
    (the caller exits 2)."""
    every = args.checkpoint_every
    if every is None:
        return True
    if not path:
        message = "--checkpoint-every requires --checkpoint"
    elif every < 1:
        message = f"--checkpoint-every must be >= 1, got {every}"
    else:
        return True
    print(f"{args.command}: {message}", file=sys.stderr)
    return False


def _cmd_simulate(args) -> int:
    from repro.sim import Simulator, TraceCollector

    chaos = {"chaos": tuple(args.chaos)} if args.chaos else {}
    sc = _scenario_from_args(args, **chaos)
    if sc is None or not _checkpoint_every_ok(args, args.checkpoint):
        return 2
    sim = Simulator(sc, profile=args.profile,
                    collectors=[TraceCollector()] if args.trace else None)
    res = sim.run(checkpoint_every=args.checkpoint_every,
                  checkpoint_path=args.checkpoint)
    _print_run(res)
    if args.checkpoint:
        # The run finished, so the crash-protection checkpoint is stale;
        # an interrupted run leaves it behind for 'repro resume'.
        import os

        try:
            os.remove(args.checkpoint)
        except OSError:
            pass
    if args.manifest:
        from repro.obs import RunManifest

        path = RunManifest.from_result(res).write(args.manifest)
        print(f"manifest written to {path}")
    return 0


def _print_trace(trace: dict) -> None:
    """The last 20 events of a trace and its counts by kind."""
    print("\nevent trace (last 20):")
    for ev in trace["events"][-20:]:
        items = ", ".join(f"{k}={v}" for k, v in sorted(ev["payload"].items()))
        print(f"  [t={ev['t']:8.2f}] {ev['kind']:18s} {items}")
    if trace["dropped"]:
        print(f"  ... ({trace['dropped']} events dropped at capacity)")
    counts = Counter(ev["kind"] for ev in trace["events"])
    print(f"  summary: {dict(sorted(counts.items()))}")


def _print_run(res):
    """Print the standard per-run metric block (simulate and resume),
    with the event trace and phase breakdown when the run kept them."""
    sc = res.scenario
    levels = "auto" if sc.max_levels is None else sc.max_levels
    print(f"n={sc.n}  L<={levels}  mu={sc.speed} m/s  "
          f"{sc.duration:.0f} s metered  (seed {sc.seed})")
    print(f"  f_0          = {res.f0:.3f} link events/node/s")
    print(f"  phi          = {res.phi:.4f} pkts/node/s")
    print(f"  gamma        = {res.gamma:.4f} pkts/node/s")
    print(f"  handoff      = {res.handoff_rate:.4f} pkts/node/s "
          f"(log^2 n = {np.log(sc.n) ** 2:.1f})")
    print(f"  registration = {res.ledger.registration_rate:.4f} pkts/node/s")
    print(f"  phi_k   = {res.ledger.phi_k()}")
    print(f"  gamma_k = {res.ledger.gamma_k()}")
    print(f"  f_k     = {res.ledger.f_k()}")
    if sc.faults_enabled:
        from repro.core.handoff import ABANDONED, RECOVERED

        flat = res.ledger.flat()
        print(f"  retransmission = {res.ledger.retransmission_rate:.4f} "
              f"pkts/node/s")
        print(f"  abandonment    = {res.ledger.abandonment_rate:.5f} "
              f"entries/node/s")
        print(f"  mean recovery  = {res.ledger.mean_recovery_time:.2f} s "
              f"({flat[RECOVERED]} recovered, {flat[ABANDONED]} abandoned)")
    chaos = res.extras.get("chaos")
    if chaos is not None:
        ttr = chaos.max_time_to_reconverge()
        print(f"  invariants   = {chaos.total_violations} violations "
              f"(peak {chaos.peak_violations}/step)")
        print(f"  chaos        = peak {chaos.peak_down} nodes down, "
              f"max stale window {chaos.max_stale_window} steps, "
              f"reconverge "
              f"{'n/a' if ttr is None else f'{ttr:.1f} s'}")
        for ep in chaos.episodes:
            t = ep.time_to_reconverge
            print(f"    episode {ep.index} ({ep.kind}) "
                  f"[{ep.start:g}, {ep.end:g}): "
                  f"peak {ep.peak_violations} violations, "
                  f"{ep.peak_down} down, recovery "
                  f"{'not reached' if t is None else f'{t:.1f} s'}")
    if "trace" in res.extras:
        _print_trace(res.extras["trace"])
    if res.timings is not None:
        print(f"\nphase breakdown (wall {res.timings.wall_seconds:.2f} s):")
        for line in res.timings.to_lines():
            print(" ", line)


def _cmd_resume(args) -> int:
    import os

    from repro.sim import Simulator

    if not _checkpoint_every_ok(args, args.checkpoint):
        return 2
    if not os.path.exists(args.checkpoint):
        print(f"resume: no such checkpoint: {args.checkpoint}",
              file=sys.stderr)
        return 2
    try:
        sim = Simulator.restore(args.checkpoint)
    except (ValueError, OSError) as exc:
        print(f"resume: cannot resume from {args.checkpoint}: {exc}",
              file=sys.stderr)
        return 2
    sc = sim.sc
    print(f"resuming at step {sim.next_step}/{sc.steps} "
          f"from {args.checkpoint}")
    res = sim.run(checkpoint_every=args.checkpoint_every,
                  checkpoint_path=args.checkpoint)
    _print_run(res)
    if not args.keep_checkpoint:
        try:
            os.remove(args.checkpoint)
        except OSError:
            pass
    return 0


def _log_levels(sc, n):
    """``scenario_for`` hook: depth cap log-scaled with the size axis."""
    from dataclasses import replace

    from repro.analysis import levels_for

    return replace(sc, max_levels=levels_for(n))


def _cmd_sweep(args) -> int:
    from repro.analysis import compare_shapes, levels_for
    from repro.obs import RunManifest, SweepReport, write_jsonl
    from repro.sim import (
        SweepError, SweepRun, default_cache_dir, expand_grid, print_progress,
        run_sweep, sweep_points,
    )

    ns, seeds = _ints(args, "ns"), _ints(args, "seeds")
    if ns is None or seeds is None:
        return 2
    if not ns or not seeds:
        print("sweep: need at least one size and one seed", file=sys.stderr)
        return 2
    base = _scenario_from_args(args, n=ns[0])
    if base is None:
        return 2
    report = SweepReport()

    def _progress(p):
        report.record(p)
        if not args.quiet:
            print_progress(p)

    try:
        run = SweepRun(run_sweep(
            expand_grid(base, ns, seeds, scenario_for=_log_levels),
            workers=args.workers,
            cache_dir=None if args.no_cache
            else (args.cache_dir or default_cache_dir()),
            progress=_progress,
            task_timeout=args.task_timeout, task_retries=args.task_retries,
            profile=True,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        ), errors=[])
    except SweepError as exc:  # the healthy tasks still get reported
        run = exc.run
    except ValueError as exc:  # run-control arguments, checked at the call
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    lossy = base.faults_enabled
    metrics = {
        "phi": lambda r: r.phi,
        "gamma": lambda r: r.gamma,
        "total": lambda r: r.handoff_rate,
    }
    if lossy:
        metrics["retx"] = lambda r: r.ledger.retransmission_rate
        metrics["abandon"] = lambda r: r.ledger.abandonment_rate
    points = sweep_points(run.results, metrics)
    header = (f"{'n':>6} {'L':>3} {'phi':>8} {'gamma':>8} {'total':>8} "
              f"{'total/log^2n':>13}")
    if lossy:
        header += f" {'retx':>8} {'abandon':>8}"
    print(header)
    for p in points:
        line = (f"{p.n:>6} {levels_for(p.n):>3} {p['phi']:>8.4f} "
                f"{p['gamma']:>8.4f} {p['total']:>8.4f} "
                f"{p['total'] / np.log(p.n) ** 2:>13.5f}")
        if lossy:
            line += f" {p['retx']:>8.4f} {p['abandon']:>8.5f}"
        print(line)
    if len(points) >= 3:
        xs = [p.n for p in points]
        ys = [p["total"] for p in points]
        fits = compare_shapes(xs, ys, shapes=("log2", "sqrt", "log", "linear"))
        print(f"AIC best shape: {fits[0].shape}; "
              f"ranking: {[f.shape for f in fits]}")
    report.finish(run)
    print()
    print(report.render())
    if args.manifest:
        count = write_jsonl(args.manifest, [
            RunManifest.from_result(r).to_dict() for r in report.results
        ])
        print(f"{count} manifests written to {args.manifest}")
    return 0 if run.ok else 1


def _cmd_hierarchy(args) -> int:
    from repro.hierarchy import render_hierarchy, render_summary
    from repro.sim import static_snapshot

    sc = _scenario_from_args(args)
    if sc is None:
        return 2
    pts = sc.region.sample(sc.n, np.random.default_rng(sc.seed))
    h = static_snapshot(sc, pts).hierarchy
    print(render_summary(h))
    if args.tree:
        print()
        print(render_hierarchy(h))
    return 0


def _cmd_report(args) -> int:
    from repro.analysis import generate_report

    exp_ids = None
    if args.experiments:
        exp_ids = [e.strip().upper() for e in args.experiments.split(",") if e.strip()]
    seeds = _ints(args, "seeds")
    if seeds is None:
        return 2
    text = generate_report(exp_ids=exp_ids, quick=not args.full,
                           seeds=seeds, out_path=args.out)
    if args.out:
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "info":
        return _cmd_info(parser.description)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "hierarchy":
        return _cmd_hierarchy(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
