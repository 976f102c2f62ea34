"""Assert the forwarding-fabric kernels stay inside their perf budget.

Reads a pytest-benchmark JSON file (``BENCH_kernels.json`` by default)
and enforces these gates:

* full fabric construction (``test_bench_forwarding_fabric``), one
  incremental fabric update (``test_bench_fabric_incremental``), one
  snapshot of exact hop metering (``test_bench_bfs_hops_batch``),
  one level-stacked hierarchy diff (``test_bench_diff_hierarchies``)
  and 1000 batched lookups (``test_bench_batch_query``) must each stay
  within
  ``SELF_TOLERANCE``x of **their own mean in the committed file**
  (``git show HEAD:BENCH_kernels.json``).  The two fabric benchmarks
  used to be gated as ratios to another benchmark —
  ``test_bench_full_assignment``, ``test_bench_simulator_step`` — and
  those denominators kept getting faster (31.2 -> 3.4 ms and 43.9 ->
  17.6 ms in one PR, then again), so the ratio budgets had to be
  re-anchored (25 -> 230, 2 -> 5) with the numerators unchanged.  A
  benchmark compared with its own previous value needs no
  re-anchoring; the check is skipped where there is nothing committed
  to compare with (no git checkout, a first run, or a benchmark the
  committed file does not have yet);
* a fully chaotic step (``test_bench_chaos_step``: active crash
  episode + partition cut + per-step invariant checking) must stay
  within ``CHAOS_BUDGET``x of the plain step — fault injection and
  invariant checking must never dominate the simulation itself.

Exit status is non-zero on violation, so CI fails the build.

Usage: ``python benchmarks/check_bench_budget.py [BENCH_kernels.json]``
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SELF_TOLERANCE = 1.5
SELF_GATED = (
    "test_bench_forwarding_fabric",
    "test_bench_fabric_incremental",
    "test_bench_bfs_hops_batch",
    "test_bench_diff_hierarchies",
    "test_bench_batch_query",
)
COMMITTED = "BENCH_kernels.json"
CHAOS_BUDGET = 2.0


def mean_of(benchmarks: list[dict], name: str) -> float:
    for b in benchmarks:
        if b["name"] == name:
            return float(b["stats"]["mean"])
    raise SystemExit(f"benchmark {name!r} missing from results")


def committed_benchmarks() -> list[dict] | None:
    """``COMMITTED`` as of HEAD, or None when git cannot produce it."""
    try:
        shown = subprocess.run(
            ["git", "show", f"HEAD:{COMMITTED}"], text=True, check=True,
            cwd=Path(__file__).resolve().parent.parent,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return json.loads(shown.stdout)["benchmarks"]


def check_against_committed(benchmarks: list[dict]) -> bool:
    """Gate ``SELF_GATED`` against their committed means; True on failure."""
    committed = committed_benchmarks()
    failed = False
    for name in SELF_GATED:
        if committed is None or all(b["name"] != name for b in committed):
            print(f"SKIP: {name} (no committed {COMMITTED} row to compare with)")
            continue
        t, ref = mean_of(benchmarks, name), mean_of(committed, name)
        ratio = t / ref
        failed |= ratio > SELF_TOLERANCE
        print(f"{'FAIL' if ratio > SELF_TOLERANCE else 'OK'}: {name} "
              f"{t * 1e3:.1f} ms = {ratio:.3g}x its committed "
              f"{ref * 1e3:.1f} ms (tolerance {SELF_TOLERANCE:g}x)")
    return failed


def main(path: str) -> int:
    with open(path) as f:
        benchmarks = json.load(f)["benchmarks"]
    failed = check_against_committed(benchmarks)
    name, baseline = "test_bench_chaos_step", "test_bench_simulator_step"
    t, ref = mean_of(benchmarks, name), mean_of(benchmarks, baseline)
    ratio = t / ref
    failed |= ratio > CHAOS_BUDGET
    print(f"{'FAIL' if ratio > CHAOS_BUDGET else 'OK'}: {name} "
          f"{t * 1e3:.1f} ms = {ratio:.3g}x {baseline} "
          f"(budget {CHAOS_BUDGET:g}x)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_kernels.json"))
