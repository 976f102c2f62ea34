"""Append one slim row per end-to-end workload to ``BENCH_history.jsonl``.

The file is the repo's performance trajectory: append-only, one JSON
object per line, small enough to read in a diff.  Each row is one
workload of ``BENCHMARK.json`` measured at one checkout: the median and
quartiles, over ``--runs`` runs of the unmodified
``benchmarks/e2e/run.py``, of its five end-to-end metrics, plus what is
needed to compare rows honestly (commit, core count, seed, run length,
number of timed repetitions behind ``wall_s``).

Usage (``make bench-history`` runs the first form)::

    python benchmarks/history.py --label "PR 16"
    python benchmarks/history.py --checkout /root/scratch/parent --label parent

``--checkout`` measures another working tree (its own ``run.py`` and
``src/``) and still appends to this repository's history file.

A row measured on uncommitted changes (``dirty: true``) carries the
commit it was based on, which it shares with its parent's row; its
``tree`` field — the ``git write-tree`` hash of the working tree as
``git add -A`` would stage it — is what tells the two apart.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "pycalls_per_node_step",
           "ok_share")


def git(checkout: Path, *args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=checkout, text=True, check=True,
                          stdout=subprocess.PIPE, env=env).stdout.strip()


def worktree_tree(checkout: Path) -> str:
    """Tree hash of the working tree, staged into a throw-away index so
    the checkout's own index is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git(checkout, "read-tree", "HEAD", env=env)
        git(checkout, "add", "-A", env=env)
        return git(checkout, "write-tree", env=env)[:7]


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             quick: bool) -> tuple[dict, dict]:
    """One ``run.py`` run: its ``info`` block and its result line."""
    cmd = [sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd + (["--quick"] if quick else []), cwd=checkout,
                          text=True, stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"history.py: {workload} printed no result "
                 f"(exit status {proc.returncode})")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    """Median and inclusive quartiles, rounded so rows stay slim."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4),
            "p25": round(q1, 4), "p75": round(q3, 4)}


def measure(checkout: Path, workload: str, seed: int, seconds: float,
            runs: int, quick: bool) -> dict:
    samples: dict[str, list[float]] = {m: [] for m in METRICS}
    reps = 0
    digests = set()
    for _ in range(runs):
        info, result = run_once(checkout, workload, seed, seconds, quick)
        for m in METRICS:
            samples[m].append(float(result["metrics"][m]["value"]))
        reps += len(info["rep_s"])
        digests.add(info["result_digest"])
    if len(digests) != 1:
        sys.exit(f"history.py: {workload} digests differ between runs")
    row = {"workload": workload, "seed": seed, "seconds": seconds,
           "runs": runs, "reps": reps, "digest": digests.pop()[:16]}
    row.update({m: quartiles(samples[m]) for m in METRICS})
    return row


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="working tree to measure (default: this one)")
    ap.add_argument("--label", default="",
                    help="free text stored with the rows, e.g. the PR number")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--quick", action="store_true",
                    help="smoke-test sizes; rows are marked and not comparable")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_history.jsonl")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be >= 1")

    checkout = args.checkout.resolve()
    stamp = {
        "commit": git(checkout, "rev-parse", "--short", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain",
                          "--untracked-files=no")),
        "label": args.label,
        "cores": os.cpu_count(),
    }
    if stamp["dirty"]:
        stamp["tree"] = worktree_tree(checkout)
    if args.quick:
        stamp["quick"] = True
    for workload in names:
        row = {**stamp, **measure(checkout, workload, args.seed,
                                  float(spec["run_seconds"]), args.runs,
                                  args.quick)}
        with args.out.open("a") as f:
            f.write(json.dumps(row) + "\n")
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
