"""Tests for end-to-end sessions on the full stack (EXP-A9's
``SessionCollector`` riding the simulator)."""

import numpy as np
import pytest

from repro.experiments.e_a9_end_to_end import Session, SessionCollector
from repro.graphs import CompactGraph
from repro.radio import unit_disk_edges
from repro.sim import BfsHops, Scenario, Simulator
from repro.sim.collectors import Collector
from repro.sim.engine import RNG_STREAMS
from repro.sim.rng import spawn_rngs

N = 150


def scenario(mobility="random_waypoint", speed=1.0, steps=6, seed=0):
    return Scenario(n=N, speed=speed, steps=steps, warmup=2, seed=seed,
                    mobility=mobility, max_levels=3,
                    hop_mode="euclidean", hop_sample_every=10_000)


def run_sessions(sc, per_step=8):
    collector = SessionCollector(per_step=per_step)
    res = Simulator(sc, collectors=[collector]).run()
    return collector, res


class _Snapshots(Collector):
    """Keeps every snapshot the engine dispatches, baseline first."""

    def __init__(self):
        self.snaps = []

    def on_start(self, snap):
        self.snaps.append(snap)

    def on_step(self, snap):
        self.snaps.append(snap)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError, match="per_step"):
            SessionCollector(per_step=0)

    def test_not_ready_before_two_observations(self):
        """The baseline opens no session; the first metered step's
        sessions resolve against the baseline's database (one round
        stale) and forward on the step's own topology."""
        snaps = _Snapshots()
        Simulator(scenario(speed=8.0, steps=1),
                  collectors=[snaps]).run()
        base, step = snaps.snaps
        c = SessionCollector(per_step=40)
        c.on_start(base)
        assert c.sessions == []
        c.on_step(step)
        assert c.sessions
        for s in c.sessions:
            assert s.resolved
            lagged = base.hierarchy.address(s.target)
            current = step.hierarchy.address(s.target)
            assert s.stale_address == (tuple(lagged) != tuple(current))
        assert any(s.stale_address for s in c.sessions)


class TestSessions:
    def test_self_session_trivial(self):
        """Self-pairs are skipped rather than opened, and the pairs come
        from a stream spawned after the engine's own."""
        sc = scenario(steps=2)
        c, _ = run_sessions(sc, per_step=300)
        rng = spawn_rngs(sc.seed, [*RNG_STREAMS, "sessions"])["sessions"]
        drawn = [tuple(p) for _ in range(sc.steps)
                 for p in rng.integers(0, N, size=(300, 2)).tolist()]
        expected = [p for p in drawn if p[0] != p[1]]
        assert len(expected) < len(drawn)
        assert [(s.source, s.target) for s in c.sessions] == expected

    def test_static_network_all_deliver_exact(self):
        """With zero mobility the database is never stale and every
        connected pair delivers."""
        sc = scenario(mobility="stationary", steps=6)
        c, res = run_sessions(sc)
        pts = res.final_positions
        flat = BfsHops(CompactGraph(np.arange(N),
                                       unit_disk_edges(pts, sc.r_tx)))
        checked = 0
        for s in c.sessions:
            assert not s.stale_address
            if flat(s.source, s.target) < 0:
                continue
            assert s.resolved and s.delivered, s
            checked += 1
        assert checked > 20

    def test_fresh_database_resolves_every_session(self):
        """With zero mobility the lagged database equals the current one,
        so every session resolves, at the global level at the latest."""
        c, _ = run_sessions(scenario(mobility="stationary", steps=10),
                            per_step=20)
        assert len(c.sessions) > 150
        assert all(s.resolved and not s.stale_address for s in c.sessions)

    def test_mobile_network_mostly_delivers(self):
        c, res = run_sessions(scenario(speed=1.0, steps=8), per_step=10)
        delivered = sum(s.delivered for s in c.sessions)
        assert delivered / len(c.sessions) > 0.6
        summary = res.extras["sessions"]
        assert summary["delivered"] == delivered / len(c.sessions)

    def test_result_fields_consistent(self):
        c, _ = run_sessions(scenario(speed=4.0, steps=6))
        assert c.sessions
        for s in c.sessions:
            assert isinstance(s, Session)
            assert s.source != s.target
            assert s.query_packets >= 0
            if not s.resolved:
                assert not s.delivered and not s.stale_address
            if s.delivered:
                assert s.data_hops > 0
            else:
                assert s.data_hops == 0
