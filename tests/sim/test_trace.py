"""Tests for event traces and their simulator integration."""

import pytest

from repro.sim import EventTrace, Scenario, Simulator, engine


class TestEventTrace:
    def test_record_and_len(self):
        t = EventTrace()
        t.record(1.0, "migration", node=5, level=2)
        t.record(2.0, "handoff", phi=3)
        assert len(t) == 2

    def test_filter_by_kind(self):
        t = EventTrace()
        t.record(1.0, "a")
        t.record(2.0, "b")
        t.record(3.0, "a")
        assert len(t.filter(kind="a")) == 2

    def test_filter_by_time(self):
        t = EventTrace()
        for i in range(5):
            t.record(float(i), "x")
        assert len(t.filter(t_min=1.0, t_max=3.0)) == 3

    def test_summary(self):
        t = EventTrace()
        t.record(0, "a")
        t.record(0, "a")
        t.record(0, "b")
        assert t.summary() == {"a": 2, "b": 1}

    def test_capacity_drops_counted(self):
        t = EventTrace(capacity=2)
        for i in range(5):
            t.record(float(i), "x")
        assert len(t) == 2
        assert t.dropped == 3
        assert "dropped" in t.to_lines()[-1]

    def test_to_lines_limit(self):
        t = EventTrace()
        for i in range(10):
            t.record(float(i), "x", i=i)
        lines = t.to_lines(limit=3)
        assert len(lines) == 3
        assert "i=9" in lines[-1]

    def test_str_rendering(self):
        t = EventTrace()
        t.record(1.5, "migration", node=3)
        assert "migration" in str(t.events[0])
        assert "node=3" in str(t.events[0])

    def test_iteration(self):
        t = EventTrace()
        t.record(0, "x")
        assert [ev.kind for ev in t] == ["x"]

    def test_saturation_keeps_newest(self):
        t = EventTrace(capacity=3)
        for i in range(10):
            t.record(float(i), "x", i=i)
        assert [ev.payload["i"] for ev in t] == [7, 8, 9]
        assert t.dropped == 7

    def test_saturated_jsonl_round_trip(self, tmp_path):
        t = EventTrace(capacity=4)
        for i in range(12):
            t.record(float(i), "migration", node=i)
        path = tmp_path / "trace.jsonl"
        t.to_jsonl(path)
        back = EventTrace.from_jsonl(path)
        assert [ev.payload["node"] for ev in back] == [8, 9, 10, 11]
        assert back.dropped == t.dropped == 8
        assert back.capacity == 4
        # The restored ring is live, not just a transcript: one more
        # record evicts the oldest surviving event.
        back.record(12.0, "migration", node=12)
        assert [ev.payload["node"] for ev in back] == [9, 10, 11, 12]
        assert back.dropped == 9


class TestSimulatorIntegration:
    def test_trace_collected(self):
        sc = Scenario(n=80, steps=8, warmup=2, speed=2.0, seed=1, max_levels=3)
        sim = Simulator(sc, trace=True)
        res = sim.run()
        assert res.trace is not None
        assert len(res.trace) > 0
        kinds = set(res.trace.summary())
        assert "handoff" in kinds or any(k.startswith("reorg") for k in kinds)

    def test_trace_off_by_default(self):
        sc = Scenario(n=60, steps=4, warmup=1, speed=2.0, seed=1, max_levels=2)
        res = Simulator(sc).run()
        assert res.trace is None

    def test_stationary_trace_empty(self):
        sc = Scenario(n=60, steps=4, warmup=0, mobility="stationary",
                      seed=1, max_levels=2)
        res = Simulator(sc, trace=True).run()
        assert len(res.trace) == 0

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
        monkeypatch.setattr(engine, "TRACE_CAPACITY", None)  # keep every row
        res = Simulator(sc, trace=True, collectors=[views]).run()
        got = [(ev.t, ev.kind, ev.payload) for ev in res.trace
               if ev.kind != "handoff"]
        assert got == views.expected
        kinds = {kind for _, kind, _ in got}
        assert "migration" in kinds and len(kinds) >= 4
        assert any(p["other"] is None for _, k, p in got if k.startswith("reorg"))
