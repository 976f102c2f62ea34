#!/usr/bin/env python3
"""End-to-end benchmark driver.  See README.md in this directory.

  python3 benchmarks/e2e/run.py                      # every workload, traced
  python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
  python3 benchmarks/e2e/run.py --aa 5               # two sequential sets

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits non-zero when a check failed or the simulator cannot be imported.
"""

from __future__ import annotations

import os

# Before numpy is imported: BLAS threads would compete with the two
# sweep workers for this host's two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_ROOT = ROOT / ".bench_e2e_work"
SETUP_PASSES = 3
FAIL_HOOK = "BENCH_E2E_INJECT_FAILURE"  # test-only: adds one failing check


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest reaped
    child (the sweep workers); ``ru_maxrss`` is KiB on Linux."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def calibrate_ms() -> float:
    """A fixed pure-Python + numpy kernel (best of 3): tells a slow host
    regime from a slow program."""
    import numpy as np

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        a = np.arange(400_000, dtype=np.float64)[::-1].copy()
        a.sort()
        float((a * a).sum())
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def adopt_orphans() -> None:
    """Become the reaper of every descendant (``PR_SET_CHILD_SUBREAPER``).

    A sweep worker that packs a result into shared memory starts its own
    ``multiprocessing.resource_tracker``; that process outlives the worker
    by a few milliseconds and would be handed to init, where
    ``stop_children`` could not wait for it."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: children are still stopped, orphans are not seen


def child_pids() -> list[int]:
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    # pid (comm) state ppid ...; comm may hold spaces
                    if fh.read().rsplit(")", 1)[1].split()[1] == me:
                        found.append(int(entry))
            except (OSError, IndexError):
                pass  # ended while we looked
    return found


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended,
    on every path out of ``main``: no run may leave a process behind.

    ``run_sweep`` shuts its pool down without waiting, and this process's
    resource tracker (started when a shared-memory result is unpacked)
    only ends once its pipe is closed - after the interpreter has gone,
    unless it is stopped here."""
    import multiprocessing
    import signal

    for proc in multiprocessing.active_children():
        proc.join(grace)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            # Closes the pipe, so the tracker cleans up and exits; waits for it.
            tracker._resource_tracker._stop()
        except (AttributeError, OSError):
            grace = 0.0  # no such hook in this Python: it never ends by itself
    # What is left are adopted orphans on their way out, or something hung.
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid == 0:
            if time.monotonic() >= deadline:
                # SIGKILL: the resource tracker ignores SIGTERM and SIGINT.
                for child in child_pids():
                    try:
                        os.kill(child, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline = float("inf")
            time.sleep(0.002)


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool,
            spec: dict) -> dict:
    """Measure one workload in this process and return its document."""
    work_dir = WORK_ROOT / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work_dir)  # nothing is written outside the checkout
    try:
        return _measure(name, seed, seconds, trace, quick, spec, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it


def _measure(name, seed, seconds, trace, quick, spec, work_dir) -> dict:
    # -- set-up: import, SETUP_PASSES x (inputs + warm-up), one cross-check
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        import traces
        import workloads
    except ImportError as exc:
        sys.exit(f"run.py: cannot import the simulator from {ROOT / 'src'}: {exc}")
    import_s = time.perf_counter() - t0

    checks, inputs = workloads.Checks(), workloads.Inputs()
    if os.environ.get(FAIL_HOOK):
        checks.check(False, "injected failure (test hook)")
    passes = []
    for _ in range(SETUP_PASSES):
        t0 = time.perf_counter()
        w = workloads.build(name, seed, quick, inputs, work_dir)
        warm_digest = w.warm_up(checks)
        passes.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    w.cross_check(checks, warm_digest)
    setup_s = import_s + statistics.median(passes) + time.perf_counter() - t0

    # -- timed window: closed loop, identical repetitions.  An exception
    # in a repetition ends the run with a traceback and no result.
    calib_before = calibrate_ms()
    walls, reps, first = [], [], None
    t_window = time.perf_counter()
    while (len(walls) < (2 if quick else w.min_reps)
           or time.perf_counter() - t_window < seconds):
        gc.collect()
        rep = w.rep()
        checks.check(True, "repetition completed")
        w.check_rep(rep, checks)
        d = workloads.digest(rep["results"])
        first = first or d
        checks.check(d == first, "digest equals repetition 0's")
        handoff = statistics.fmean(r.handoff_rate for r in rep["results"])
        walls.append(rep["wall"])
        reps.append({k: v for k, v in rep.items() if not k.endswith("results")})
    calib_drift = calibrate_ms() / calib_before - 1.0
    rss_peak = peak_rss_mb()
    # The median, not a low quantile: this host runs ~30 % slower most of
    # the time and fast in short bursts, so a low quantile reports whether
    # a burst fell inside the window.  See README "Host noise".
    wall_s = statistics.median(walls)

    # -- Trace A: exact call counts of the count input, grouped by layer
    gc.collect()
    counted, total_calls, by_layer = traces.profile_calls(
        lambda: w.run(w.count), os.path.dirname(os.path.abspath(repro.__file__)))
    count_steps = workloads.node_steps(w.count)
    if w.warm == w.count:
        checks.check(workloads.digest(counted) == warm_digest,
                     "profiled count input digest equals the warm-up's")

    per_layer, info = None, {}
    if trace:
        per_layer = {name: 0.0 for name in (m["name"] for m in spec["per_layer"])}
        self_total = sum(s for _, s in by_layer.values())
        for layer, (calls, self_s) in by_layer.items():
            per_layer[f"{layer}.pycalls_per_node_step"] = calls / count_steps
            per_layer[f"{layer}.self_share"] = self_s / self_total
        if w.workers > 1:
            per_layer.update(workloads.sweep_layer_metrics(reps, w.workers))
        per_layer.update({
            "rep_s_p25": (statistics.quantiles(walls, n=4, method="inclusive")[0]
                          if len(walls) > 1 else walls[0]),
            "rep_s_max": max(walls),
            "host.calib_ms": calib_before, "host.calib_drift": calib_drift,
        })
        traces.trace_b(w, wall_s, first, checks, per_layer, info)

    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss_peak,
        "pycalls_per_node_step": total_calls / count_steps,
        "ok_share": 1.0 - len(checks.failures) / checks.attempted,
    }
    info.update(
        result_digest=first,
        handoff_pkts_node_s=handoff,
        dropped_fields=sorted(inputs.dropped),
        pycalls_total=total_calls,
        count_node_steps=count_steps,
        rep_s=walls,
        setup_pass_s=passes,
        import_s=import_s,
        noisy=calib_drift > 0.10 or max(walls) / wall_s > 1.25,
        failures=checks.failures,
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    def with_units(metrics: dict | None) -> dict | None:
        return metrics and {
            k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}

    return {
        "workload": name, "seed": seed, "quick": quick,
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "end_to_end": with_units(end_to_end),
        "per_layer": with_units(per_layer),
        "info": info,
    }


# -- parent modes: every workload (one child interpreter each), and A/A ----------


def run_child(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--doc"] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run.py: workload {name} printed no result "
                 f"(exit status {proc.returncode})")
    return json.loads(lines[-1])


def header() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "platform": platform.platform()}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    gap = (second - first) / abs(first)
    return gap if better == "lower" else -gap


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def aa(k: int, names: list, seed: int, seconds: float, quick: bool, spec: dict) -> int:
    """Two sequential sets of ``k`` runs of the same code (run ``i`` of
    either set uses seed ``seed + i``); sequential, not interleaved,
    because that is the worst case for host drift.  A row is ok when the
    second median is no worse than the first by more than the bound and
    both spreads (IQR / median) are within it; ``steady`` says whether
    both spreads are also below a third of the bound."""
    sets = []
    for label in "AB":
        runs = {name: [] for name in names}
        for i in range(k):
            for name in names:
                doc = run_child(name, seed + i, seconds, 0, quick)
                runs[name].append(doc)
                print(f"set {label} run {i} {name}: " + " ".join(
                    f"{key}={m['value']:.6g}" for key, m in doc["end_to_end"].items()),
                    file=sys.stderr)
        sets.append(runs)
    print("| workload | metric | median A | median B | gap | spread A | spread B "
          "| bound | ok | steady |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    bad = mismatched = 0
    for name in names:
        for m in spec["end_to_end"]:
            a, b = ([doc["end_to_end"][m["name"]]["value"] for doc in s[name]]
                    for s in sets)
            gap = worse_by(statistics.median(a), statistics.median(b), m["better"])
            widest = max(spread(a), spread(b))
            exempt = m["name"] == "setup_s"  # its spread is not gated
            ok = gap <= m["bound"] and (exempt or widest <= m["bound"])
            bad += not ok
            print(f"| {name} | {m['name']} | {statistics.median(a):.6g} "
                  f"| {statistics.median(b):.6g} | {gap:+.4f} | {spread(a):.4f} "
                  f"| {spread(b):.4f} | {m['bound']} | {'yes' if ok else 'NO'} "
                  f"| {'yes' if widest < m['bound'] / 3 else 'no'} |")
        for i in range(k):
            exact = {(doc["end_to_end"]["pycalls_per_node_step"]["value"],
                      doc["info"]["result_digest"], doc["correct"])
                     for s in sets for doc in s[name] if doc["seed"] == seed + i}
            mismatched += len(exact) != 1
    print(f"\ncall counts, digests and check results identical between the sets, "
          f"seed by seed: {'yes' if not mismatched else 'NO'}")
    return 1 if bad or mismatched else 0


def main() -> int:
    adopt_orphans()
    try:
        return _main()
    finally:
        stop_children()


def _main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics only; 1: per-layer metrics "
                         "(default 1 without --workload, 0 with)")
    ap.add_argument("--quick", action="store_true",
                    help="smoke-test sizes (n <= 300, 2 repetitions)")
    ap.add_argument("--aa", type=int, metavar="K",
                    help="two sequential sets of K >= 5 runs; non-zero exit "
                         "if a median gap or a spread exceeds its bound")
    ap.add_argument("--doc", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    seconds = 0.0 if args.quick else args.seconds

    if args.aa is not None:
        if args.aa < 5:
            ap.error("--aa needs K >= 5")
        chosen = [args.workload] if args.workload else names
        return aa(args.aa, chosen, args.seed, seconds, args.quick, spec)

    if args.workload is None:
        trace = 1 if args.trace is None else args.trace
        docs = {n: run_child(n, args.seed, seconds, trace, args.quick) for n in names}
        print(json.dumps({"header": header(), "workloads": docs}, indent=2))
        return 0 if all(d["correct"] for d in docs.values()) else 1

    doc = measure(args.workload, args.seed, seconds, bool(args.trace), args.quick, spec)
    if args.doc:
        print(json.dumps(doc))
    else:
        print(json.dumps({k: doc[k] for k in ("workload", "seed", "info")}))
        print(json.dumps({
            "correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": doc["per_layer"] if args.trace else doc["end_to_end"],
        }))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
