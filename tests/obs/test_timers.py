"""Unit tests for the StepTimings accumulator."""

import pytest

from repro.obs import PHASES, StepTimings


class TestAccumulation:
    def test_add_accumulates_per_phase(self):
        t = StepTimings()
        t.add("mobility", 0.5)
        t.add("mobility", 0.25)
        t.add("handoff", 1.0)
        assert t.totals == {"mobility": 0.75, "handoff": 1.0}
        assert t.phase_seconds == pytest.approx(1.75)

    def test_fractions_sum_to_one(self):
        t = StepTimings()
        for i, phase in enumerate(PHASES):
            t.add(phase, float(i + 1))
        fracs = t.fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)
        assert fracs["setup"] < fracs["sampling"]

    def test_empty_views_are_empty(self):
        t = StepTimings()
        assert t.fractions() == {}
        assert t.mean_per_step() == {}
        assert t.phase_seconds == 0.0

    def test_mean_per_step_excludes_setup(self):
        t = StepTimings()
        t.add("setup", 9.0)
        t.add("mobility", 2.0)
        t.tick_step()
        t.tick_step()
        assert t.mean_per_step() == {"mobility": 1.0}

    def test_merge_folds_totals_steps_and_wall(self):
        a = StepTimings(totals={"mobility": 1.0}, steps=2, wall_seconds=3.0)
        b = StepTimings(totals={"mobility": 0.5, "diff": 0.1}, steps=1,
                        wall_seconds=1.0)
        a.merge(b)
        assert a.totals == {"mobility": 1.5, "diff": 0.1}
        assert a.steps == 3
        assert a.wall_seconds == pytest.approx(4.0)

    def test_merge_keeps_the_larger_peak_rss(self):
        a = StepTimings(peak_rss_mb=80.0)
        a.merge(StepTimings(peak_rss_mb=120.0))
        a.merge(StepTimings(peak_rss_mb=90.0))
        assert a.peak_rss_mb == 120.0

    def test_note_peak_rss_keeps_the_larger(self):
        pytest.importorskip("resource")
        t = StepTimings()
        t.note_peak_rss()
        assert t.peak_rss_mb > 10
        t.peak_rss_mb = 1e9
        t.note_peak_rss()
        assert t.peak_rss_mb == 1e9


class TestSerialization:
    def test_dict_round_trip(self):
        t = StepTimings(totals={"mobility": 1.25, "handoff": 0.5},
                        steps=7, wall_seconds=2.5, peak_rss_mb=97.5)
        again = StepTimings.from_dict(t.to_dict())
        assert again == t

    def test_timings_without_peak_rss_load(self):
        """Timings written before the peak was recorded load with 0."""
        old = StepTimings(totals={"mobility": 1.0}, steps=1).to_dict()
        del old["peak_rss_mb"]
        assert StepTimings.from_dict(old).peak_rss_mb == 0.0

    def test_from_dict_defaults(self):
        assert StepTimings.from_dict({}) == StepTimings()

    def test_to_lines_orders_by_pipeline(self):
        t = StepTimings(totals={"sampling": 1.0, "setup": 2.0}, steps=1)
        lines = t.to_lines()
        assert lines[0].startswith("setup")
        assert lines[1].startswith("sampling")
        assert "1 steps" in lines[-1]
