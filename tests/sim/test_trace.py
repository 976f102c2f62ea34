"""Tests for the event trace: the :class:`TraceCollector` ring buffer,
what it records from a run, and how the manifest and the CLI carry it."""

import contextlib
import io
import json
import re
from collections import Counter

import pytest

from repro.cli import main
from repro.obs import RunManifest, write_jsonl
from repro.sim import Scenario, Simulator, TraceCollector
from repro.sim.collectors import tracing

SC = Scenario(n=80, steps=8, warmup=2, speed=2.0, seed=1, max_levels=3)

SIMULATE = ["simulate", "--n", "60", "--steps", "5", "--warmup", "1",
            "--seed", "3", "--hops", "euclidean", "--trace"]


def _run(sc=SC, *collectors):
    return Simulator(sc, collectors=[TraceCollector(), *collectors]).run()


def _simulate(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def full():
    trace = _run().extras["trace"]
    assert trace["dropped"] == 0
    return trace


class TestEventTrace:
    """The trace as a record: plain dicts in a bounded ring."""

    def test_record_and_len(self, full):
        """Each event is a plain ``{"t", "kind", "payload"}`` dict."""
        assert len(full["events"]) > 20
        assert full["capacity"] == tracing.TRACE_CAPACITY
        for ev in full["events"]:
            assert set(ev) == {"t", "kind", "payload"}
            assert isinstance(ev["t"], float) and isinstance(ev["kind"], str)
            assert isinstance(ev["payload"], dict)

    def test_iteration(self, full):
        """Events run oldest first, each stamped with its step's time."""
        times = [ev["t"] for ev in full["events"]]
        assert times == sorted(times)
        assert set(times) <= {float(k) * SC.dt for k in range(1, SC.steps + 1)}

    def test_capacity_drops_counted(self, full, monkeypatch):
        monkeypatch.setattr(tracing, "TRACE_CAPACITY", 2)
        small = _run().extras["trace"]
        assert small["capacity"] == 2
        assert len(small["events"]) == 2
        assert small["dropped"] == len(full["events"]) - 2

    def test_saturation_keeps_newest(self, full, monkeypatch):
        monkeypatch.setattr(tracing, "TRACE_CAPACITY", 3)
        assert _run().extras["trace"]["events"] == full["events"][-3:]

    def test_saturated_jsonl_round_trip(self, monkeypatch, tmp_path):
        """A saturated trace streams through a JSONL file of manifests
        (what ``repro sweep --manifest`` writes) with its capacity,
        dropped count and newest events intact."""
        monkeypatch.setattr(tracing, "TRACE_CAPACITY", 4)
        res = _run()
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [RunManifest.from_result(res).to_dict()])
        (line,) = path.read_text().splitlines()
        back = RunManifest.from_dict(json.loads(line))
        assert back.trace == res.extras["trace"]
        assert back.trace["capacity"] == 4 and back.trace["dropped"] > 0

    def test_summary(self, tmp_path):
        """``repro simulate --trace`` prints the counts by kind of the
        trace its manifest carries."""
        path = tmp_path / "run.json"
        out = _simulate(SIMULATE + ["--manifest", str(path)])
        events = RunManifest.read(path).trace["events"]
        counts = dict(sorted(Counter(ev["kind"] for ev in events).items()))
        assert f"  summary: {counts}" in out.splitlines()

    def test_to_lines_limit(self, monkeypatch):
        """The CLI prints the last 20 events, then the dropped count."""
        monkeypatch.setattr(tracing, "TRACE_CAPACITY", 25)
        out = _simulate(SIMULATE).split("event trace (last 20):\n")[1]
        lines = out.splitlines()
        assert all(line.startswith("  [t=") for line in lines[:20])
        assert re.fullmatch(r"  \.\.\. \(\d+ events dropped at capacity\)",
                            lines[20])
        assert lines[21].startswith("  summary: ")

    def test_str_rendering(self):
        out = _simulate(SIMULATE)
        assert re.search(r"^  \[t= +\d+\.\d\d\] migration +level=\d+, "
                         r"new=\d+, node=\d+, old=\d+$", out, re.MULTILINE)


class TestSimulatorIntegration:
    def test_trace_collected(self, full):
        kinds = {ev["kind"] for ev in full["events"]}
        assert "handoff" in kinds or any(k.startswith("reorg") for k in kinds)

    def test_trace_off_by_default(self):
        sc = Scenario(n=60, steps=4, warmup=1, speed=2.0, seed=1, max_levels=2)
        res = Simulator(sc).run()
        assert "trace" not in res.extras
        assert RunManifest.from_result(res).trace == {}

    def test_stationary_trace_empty(self):
        sc = Scenario(n=60, steps=4, warmup=0, mobility="stationary",
                      seed=1, max_levels=2)
        assert _run(sc).extras["trace"]["events"] == []

    def test_trace_rows_equal_the_event_object_views(self, monkeypatch):
        """The collector reads the diff's columns; what it records is
        what walking the diff's event object views would."""
        from repro.sim import Collector
        from tests.core.events_oracle import migration_events, reorg_events

        class ViewRecorder(Collector):
            def __init__(self):
                self.expected = []

            def on_step(self, snap):
                diff = snap.report.diff
                for ev in migration_events(diff):
                    if ev.pure:
                        self.expected.append((snap.t, "migration", dict(
                            node=ev.node, level=ev.level,
                            old=ev.old_cluster, new=ev.new_cluster)))
                for ev in reorg_events(diff):
                    self.expected.append((snap.t, f"reorg:{ev.kind.value}", dict(
                        level=ev.level, subject=ev.subject, other=ev.other)))

        sc = Scenario(n=120, steps=8, warmup=2, speed=3.0, seed=3, max_levels=3)
        views = ViewRecorder()
        monkeypatch.setattr(tracing, "TRACE_CAPACITY", None)  # keep every row
        res = _run(sc, views)
        got = [(ev["t"], ev["kind"], ev["payload"])
               for ev in res.extras["trace"]["events"]
               if ev["kind"] != "handoff"]
        assert got == views.expected
        kinds = {kind for _, kind, _ in got}
        assert "migration" in kinds and len(kinds) >= 4
        assert any(p["other"] is None for _, k, p in got if k.startswith("reorg"))
