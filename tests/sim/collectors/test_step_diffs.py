"""The step's two diffs, as the collectors read them.

* ``StepSnapshot.link_diff`` (level 0) must equal a python-set diff of
  the previous and the current edge list on every step: at 3 m/s
  (``full``: the Verlet cache's plain builds, so the step merges its own
  diff), at 1 m/s (``event``: the cache's candidate-list diff), both
  under chaos (where the cache's diff is dropped and the step merges its
  own), and after a mid-run resume with and without patching forced.
* The level series the simulator reads off ``snap.report.diff`` must
  equal the per-level re-diff oracle (``tests/sim/levels_oracle.py``)
  after every step, for every election mode and level model.
"""

import numpy as np
import pytest

from repro.sim import Scenario, Simulator
from repro.sim.collectors import Collector, LevelSeriesCollector

from ..levels_oracle import OracleLevelSeriesCollector
from ..stepping_oracle import force_patch

CHAOS = ("crash:start=2,duration=4,rate=0.05,repair=3",
         "partition:start=7,duration=3")


def _rows(edges):
    return {tuple(e) for e in edges.tolist()}


class LinkDiffProbe(Collector):
    """Checks every step's ``link_diff`` against a set diff of the edge
    lists it saw; finalizes to the number of steps checked."""

    name = "link_diff_probe"

    def __init__(self):
        self.prev = None
        self.checked = 0
        self.events = 0

    def on_start(self, snap):
        assert snap.link_diff is None
        self.prev = snap.edges

    def on_step(self, snap):
        before, after = _rows(self.prev), _rows(snap.edges)
        diff = snap.link_diff
        assert diff.ups.tolist() == [list(e) for e in sorted(after - before)]
        assert diff.downs.tolist() == [list(e) for e in sorted(before - after)]
        assert diff.ups.dtype == diff.downs.dtype == np.int64
        self.prev = snap.edges
        self.checked += 1
        self.events += diff.n_events

    def finalize(self, elapsed):
        return {self.name: (self.checked, self.events)}


def _scenario(**over):
    base = dict(n=90, steps=12, warmup=2, speed=3.0, seed=11, max_levels=3)
    base.update(over)
    return Scenario(**base)


class TestLinkDiff:
    @pytest.mark.parametrize("case", [
        dict(),
        dict(speed=1.0),
        dict(speed=1.0, chaos=CHAOS),
        dict(chaos=CHAOS),
    ], ids=["full", "event", "event-chaos", "full-chaos"])
    def test_equals_a_set_diff_on_every_step(self, case):
        sc = _scenario(**case)
        res = Simulator(sc, collectors=[LinkDiffProbe()]).run()
        checked, events = res.extras[LinkDiffProbe.name]
        assert checked == sc.steps and events > 0

    def test_f0_counts_the_same_events(self):
        """The link collector accumulates exactly the probed diffs."""
        sc = _scenario()
        res = Simulator(sc, collectors=[LinkDiffProbe()]).run()
        _, events = res.extras[LinkDiffProbe.name]
        # Each event charges both endpoints once.
        assert res.f0 == pytest.approx(2 * events / sc.n / res.elapsed)

    @pytest.mark.parametrize("forced", [False, True])
    def test_after_a_mid_run_resume(self, tmp_path, monkeypatch, forced):
        if forced:
            force_patch(monkeypatch)
        sc = _scenario(speed=1.0)
        path = tmp_path / "run.ckpt"
        whole = Simulator(sc, collectors=[LinkDiffProbe()]).run(
            checkpoint_every=5, checkpoint_path=str(path))
        resumed = Simulator.restore(str(path))
        assert 0 < resumed.next_step < sc.steps
        res = resumed.run()
        assert res.extras[LinkDiffProbe.name] == whole.extras[LinkDiffProbe.name]
        assert res.f0 == whole.f0


class PerStep(Collector):
    """Runs a level-series collector and copies its series after every
    step."""

    def __init__(self, inner, name):
        self.inner = inner
        self.name = name
        self.rows = []

    def on_step(self, snap):
        self.inner.on_step(snap)
        series = self.inner.series
        self.rows.append((dict(series.link_events),
                          dict(series.drift_link_events),
                          dict(series.address_changes),
                          {k: list(v) for k, v in series.edge_counts.items()}))

    def finalize(self, elapsed):
        return {self.name: self.rows}


MODES = {
    "memoryless": dict(),
    "sticky": dict(election_mode="sticky"),
    "persistent": dict(election_mode="persistent"),
}
# Persistent clusters exist under the radio link model only.
CASES = [
    pytest.param(mode, level_mode, id=f"{name}-{level_mode}")
    for name, mode in MODES.items()
    for level_mode in ("radio", "contraction")
    if not (name == "persistent" and level_mode == "contraction")
]


class TestLevelSeriesEqualsOracle:
    @pytest.mark.parametrize("mode,level_mode", CASES)
    def test_every_step(self, mode, level_mode):
        sc = _scenario(level_mode=level_mode, speed=5.0, **mode)
        res = Simulator(sc, collectors=[
            PerStep(LevelSeriesCollector(), "production"),
            PerStep(OracleLevelSeriesCollector(), "oracle"),
        ]).run()
        production, oracle = res.extras["production"], res.extras["oracle"]
        assert len(production) == sc.steps
        assert production == oracle
        links, drift, moved, _ = production[-1]
        assert sum(links.values()) > 0 and sum(moved.values()) > 0
        assert res.level_series.drift_link_events == drift

    def test_persistent_regression(self):
        """Persistent elections name levels >= 1 by minted cluster IDs
        (>= 10^7).  The base-n keys the level series used to be diffed
        under collided on them: this run read drift 0 at every level and
        3 793 level-1 link events.  A tuple-set recount gives these."""
        sc = Scenario(n=200, steps=40, seed=21, speed=5,
                      election_mode="persistent")
        oracle = OracleLevelSeriesCollector()
        series = Simulator(sc, collectors=[oracle]).run().level_series
        assert series.drift_link_events == oracle.series.drift_link_events
        assert series.link_events == oracle.series.link_events
        assert series.address_changes == oracle.series.address_changes
        assert series.link_events[1] == 3797
        assert (series.drift_link_events[1], series.drift_link_events[2]) == (796, 62)
