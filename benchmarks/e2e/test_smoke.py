"""Smoke test of the end-to-end benchmark at ``--quick`` sizes.

    python -m pytest benchmarks/e2e -q
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def session_members(sid: int) -> list:
    """Live (not zombie) processes of session ``sid``."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            state, _, _, session = Path(f"/proc/{entry}/stat").read_text() \
                .rsplit(")", 1)[1].split()[:4]
        except OSError:
            continue  # ended while we looked
        if int(session) == sid and state != "Z":
            found.append(int(entry))
    return found


def run(*args, env=None, cwd=ROOT, script=HERE / "run.py"):
    """Run the driver in a session of its own and fail if it leaves a
    process behind.  Standard output goes to a file: a pipe would read
    EOF only once every straggler holding it had gone, and hide them."""
    with tempfile.TemporaryFile("w+") as out:
        proc = subprocess.Popen(
            [sys.executable, str(script), "--quick", *args], cwd=cwd,
            env={**os.environ, **(env or {})}, stdout=out,
            start_new_session=True)
        proc.wait()
        left = session_members(proc.pid)
        out.seek(0)
        stdout = out.read()
    assert left == [], f"processes left running by run.py {args}"
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout)


def assert_metrics(metrics: dict, declared: list) -> None:
    """Exactly the declared names, each finite and with its unit."""
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert NAME.match(m["name"]), m["name"]
        got = metrics[m["name"]]
        assert math.isfinite(got["value"]), m["name"]
        assert got["unit"] == m["unit"], m["name"]


@pytest.fixture(scope="module")
def full():
    """One traced pass over every workload, as a person would run it."""
    proc = run()
    assert proc.returncode == 0, proc.stdout[-2000:]
    return json.loads(proc.stdout)


def test_every_declared_metric_and_workload_is_reported(full):
    assert set(full["header"]) >= {"nproc", "python", "numpy", "commit"}
    assert list(full["workloads"]) == WORKLOADS
    for doc in full["workloads"].values():
        assert_metrics(doc["end_to_end"], SPEC["end_to_end"])
        assert_metrics(doc["per_layer"], SPEC["per_layer"])
        assert doc["end_to_end"]["ok_share"]["value"] == 1.0
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        assert all(m["value"] != 0 for m in doc["end_to_end"].values())


def test_traces_account_for_the_whole(full):
    for name, doc in full["workloads"].items():
        total = doc["end_to_end"]["pycalls_per_node_step"]["value"]
        layers = sum(v["value"] for k, v in doc["per_layer"].items()
                     if k.endswith(".pycalls_per_node_step"))
        assert layers == pytest.approx(total, rel=1e-9), name
        shares = sum(v["value"] for k, v in doc["per_layer"].items()
                     if k.endswith(".self_share"))
        assert shares == pytest.approx(1.0, rel=1e-9), name
        assert doc["info"]["phase_coverage"] == pytest.approx(1.0, abs=0.05), name
        assert doc["info"]["absent_phases"] == [], name
    sweep = full["workloads"]["sweep_grid"]["per_layer"]
    assert sweep["sweep.simulate_s"]["value"] > 0
    assert sweep["sim.sweep.pycalls_per_node_step"]["value"] > 0
    scale = full["workloads"]["scale_1e5"]["per_layer"]
    assert scale["scale.exp.handoff"]["value"] != 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_result_line_and_exact_repeat(full, name):
    """The driver's invocation: the last line is the result object, and
    a second run repeats the call count and the digest exactly."""
    trace = 1 if name == WORKLOADS[0] else 0
    proc = run("--workload", name, "--seed", "0", "--seconds", "1",
               "--trace", str(trace))
    assert proc.returncode == 0
    head, last = (json.loads(x) for x in proc.stdout.strip().splitlines()[-2:])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert_metrics(last["metrics"], SPEC["per_layer" if trace else "end_to_end"])
    before = full["workloads"][name]["info"]
    for key in ("pycalls_total", "count_node_steps", "result_digest"):
        assert head["info"][key] == before[key], key
    if trace:
        for key, m in full["workloads"][name]["per_layer"].items():
            if key.endswith(".pycalls_per_node_step"):
                assert last["metrics"][key] == m, key


def test_injected_failure_lowers_ok_share_and_exit_status():
    proc = run("--workload", "steady_default", "--trace", "0",
               env={"BENCH_E2E_INJECT_FAILURE": "1"})
    assert proc.returncode != 0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1
    assert last["metrics"]["ok_share"]["value"] < 1.0


def test_fails_without_result_where_the_simulator_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "steady_default", "--trace", "0", cwd=tmp_path,
               script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
