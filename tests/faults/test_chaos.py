"""Tests for the chaos engine: episode validation, the CLI episode
grammar, and the crash/partition/burst mechanics."""

import math
import pickle

import numpy as np
import pytest

from repro.faults import (
    ChaosEngine,
    CrashEpisode,
    LossBurstEpisode,
    PartitionEpisode,
    parse_episode,
)
from repro.faults.loss import LossModel
from repro.sim import Scenario, Simulator


def engine(n=20, episodes=(), seed=0):
    return ChaosEngine(n, tuple(episodes), np.random.default_rng(seed))


class TestEpisodeValidation:
    @pytest.mark.parametrize("kwargs", [
        {"start": -1.0, "rate": 0.1},
        {"start": float("nan"), "rate": 0.1},
        {"start": float("inf"), "rate": 0.1},
        {"duration": 0.0, "rate": 0.1},
        {"duration": -5.0, "rate": 0.1},
        {"duration": float("nan"), "rate": 0.1},
        {"rate": -0.1},
        {"rate": float("inf")},
        {"rate": 0.1, "repair_time": 0.0},
        {"rate": 0.1, "repair_time": float("inf")},
        {"rate": 0.1, "targets": "everyone"},
        {"rate": float("nan")},
        {"count": -2},
        {"nodes": (3, -1)},
        {},  # no rate, nodes, or count: can never crash anything
    ])
    def test_crash_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CrashEpisode(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"start": float("nan")},
        {"duration": 0.0},
        {"angle": float("inf")},
        {"offset": float("nan")},
    ])
    def test_partition_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PartitionEpisode(**kwargs)

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.2, float("nan")])
    def test_burst_rejects_bad_rates(self, rate):
        with pytest.raises(ValueError):
            LossBurstEpisode(rate=rate)

    def test_error_messages_are_actionable(self):
        with pytest.raises(ValueError, match="duration must be positive"):
            CrashEpisode(duration=-1.0, rate=0.1)
        with pytest.raises(ValueError, match="rate > 0, nodes, or count"):
            CrashEpisode()

    def test_window_and_activity(self):
        ep = CrashEpisode(start=5.0, duration=3.0, rate=0.1)
        assert ep.end == 8.0
        assert not ep.active(4.9)
        assert ep.active(5.0)
        assert ep.active(7.9)
        assert not ep.active(8.0)  # half-open window

    def test_schedule_rejects_non_episodes(self):
        with pytest.raises(TypeError, match="episodes"):
            Scenario(chaos=(LossModel(rate=0.1),))

    def test_schedule_properties(self):
        """The simulator builds a chaos engine for any episode, and a
        delivery engine on a lossless base only for a burst window."""
        crash = CrashEpisode(rate=0.1)
        cut = PartitionEpisode(duration=5.0)
        burst = LossBurstEpisode(rate=0.3)
        base = dict(n=40, steps=2, warmup=0)
        sim = Simulator(Scenario(**base, chaos=(crash, cut, burst)))
        assert sim._chaos.episodes == (crash, cut, burst)
        assert sim._delivery is not None
        sim = Simulator(Scenario(**base, chaos=(crash, cut)))
        assert sim._chaos is not None and sim._delivery is None
        sim = Simulator(Scenario(**base))
        assert sim._chaos is None and sim._delivery is None


class TestParseEpisode:
    def test_crash_spec(self):
        ep = parse_episode("crash:start=10,duration=5,rate=0.02,repair=15")
        assert ep == CrashEpisode(start=10.0, duration=5.0, rate=0.02,
                                  repair_time=15.0)

    def test_targeted_and_scripted_specs(self):
        ep = parse_episode("crash:start=20,duration=1,count=3,"
                           "targets=clusterheads")
        assert ep.count == 3 and ep.targets == "clusterheads"
        ep = parse_episode("crash:start=20,duration=1,nodes=4+17+32")
        assert ep.nodes == (4, 17, 32)

    def test_partition_and_burst_specs(self):
        ep = parse_episode("partition:start=30,duration=20,angle=1.57")
        assert isinstance(ep, PartitionEpisode) and ep.angle == 1.57
        ep = parse_episode("burst:start=5,duration=10,rate=0.3")
        assert isinstance(ep, LossBurstEpisode) and ep.rate == 0.3

    @pytest.mark.parametrize("spec", [
        "meteor:start=1,duration=2",          # unknown kind
        "crash:angle=0.5,rate=0.1",           # key not valid for kind
        "crash:start",                        # missing =value
        "burst:start=1,duration=2,rate=zed",  # unparseable value
        "partition:start=1,duration=-2",      # validated after parse
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_episode(spec)

    def test_from_specs_round_trip(self):
        specs = ("crash:rate=0.1", "burst:rate=0.5,start=3,duration=2")
        assert Scenario(chaos=specs).chaos == (
            CrashEpisode(rate=0.1),
            LossBurstEpisode(start=3.0, duration=2.0, rate=0.5),
        )


class TestCrashMechanics:
    def test_poisson_rate_matches_intensity(self):
        eng = engine(n=4000, episodes=[CrashEpisode(rate=0.1,
                                                    repair_time=0.5)])
        crashes = trials = 0
        for _ in range(25):
            before = eng.down_until.copy()
            trials += int((eng.down_until < eng.now + 1.0).sum())
            eng.advance(1.0)
            crashes += int((eng.down_until != before).sum())
        assert crashes / trials == pytest.approx(-np.expm1(-0.1), rel=0.1)

    def test_inactive_window_draws_nothing(self):
        eng = engine(episodes=[CrashEpisode(start=100.0, duration=1.0,
                                            rate=5.0)])
        for _ in range(10):
            eng.advance(1.0)
        assert not eng.down_mask().any()

    def test_scripted_kill_fires_once(self):
        eng = engine(episodes=[CrashEpisode(start=2.0, duration=10.0,
                                            nodes=(3, 7), repair_time=4.0)])
        eng.advance(1.0)
        assert not eng.down_mask().any()
        eng.advance(1.0)  # t=2: episode opens, nodes killed
        assert set(np.flatnonzero(eng.down_mask())) == {3, 7}
        assert eng.down_until[3] == 2.0 + 4.0
        eng.advance(1.0)  # one-shot: deadlines must not be re-extended
        assert eng.down_until[3] == 6.0

    def test_count_kill_draws_from_pool(self):
        eng = engine(n=30, episodes=[CrashEpisode(start=1.0, duration=5.0,
                                                  count=6, repair_time=9.0)])
        eng.advance(1.0)
        assert int(eng.down_mask().sum()) == 6

    def test_clusterhead_targeting_uses_hierarchy(self):
        class FakeLevel:
            node_ids = np.array([2, 5, 11])

        class FakeHierarchy:
            num_levels = 1
            levels = {1: FakeLevel()}

        eng = engine(n=20, episodes=[CrashEpisode(start=1.0, duration=2.0,
                                                  count=10,
                                                  targets="clusterheads")])
        eng.advance(1.0, hierarchy=FakeHierarchy())
        assert set(np.flatnonzero(eng.down_mask())) == {2, 5, 11}

    def test_recovery_after_repair_window(self):
        eng = engine(episodes=[CrashEpisode(start=1.0, duration=1.0,
                                            nodes=(4,), repair_time=2.5)])
        eng.advance(1.0)
        assert eng.down_mask()[4]
        eng.advance(1.0)
        assert eng.down_mask()[4]  # down_until=3.5 >= now=2
        eng.advance(1.0)
        assert eng.down_mask()[4]  # 3.5 >= 3
        eng.advance(1.0)
        assert not eng.down_mask()[4]

    def test_engine_pickles_mid_episode(self):
        eng = engine(episodes=[CrashEpisode(rate=0.3, repair_time=2.0)])
        for _ in range(3):
            eng.advance(1.0)
        clone = pickle.loads(pickle.dumps(eng))
        eng.advance(1.0)
        clone.advance(1.0)
        assert np.array_equal(eng.down_until, clone.down_until)
        assert eng.now == clone.now


class TestPartitionMechanics:
    def test_cut_severs_only_crossing_links(self):
        eng = engine(n=4, episodes=[PartitionEpisode(start=1.0,
                                                     duration=2.0)])
        pos = np.array([[-1.0, 0.0], [-2.0, 1.0], [1.0, 0.0], [2.0, 1.0]])
        edges = np.array([[0, 1], [2, 3], [0, 2], [1, 3]])
        eng.advance(1.0)
        kept = eng.filter_edges(edges, pos)
        assert kept.tolist() == [[0, 1], [2, 3]]

    def test_cut_heals_when_window_closes(self):
        eng = engine(n=2, episodes=[PartitionEpisode(start=1.0,
                                                     duration=1.0)])
        pos = np.array([[-1.0, 0.0], [1.0, 0.0]])
        edges = np.array([[0, 1]])
        eng.advance(1.0)
        assert eng.filter_edges(edges, pos).size == 0
        eng.advance(1.0)
        assert eng.filter_edges(edges, pos).tolist() == [[0, 1]]
        eng.advance(1.0)
        assert eng.filter_edges(edges, pos).tolist() == [[0, 1]]

    def test_offset_and_angle_shift_the_cut(self):
        ep = PartitionEpisode(start=0.0, angle=math.pi / 2, offset=3.0)
        eng = engine(n=3, episodes=[ep])
        eng.advance(1.0)
        # Cut at y=3: nodes 0,1 below, node 2 above.
        pos = np.array([[0.0, 0.0], [5.0, 1.0], [0.0, 5.0]])
        kept = eng.filter_edges(np.array([[0, 1], [1, 2]]), pos)
        assert kept.tolist() == [[0, 1]]


class TestBurstLoss:
    def test_inactive_burst_returns_base_object(self):
        base = LossModel(rate=0.1)
        eng = engine(episodes=[LossBurstEpisode(start=5.0, duration=1.0,
                                                rate=0.4)])
        eng.advance(1.0)
        assert eng.loss_model(base) is base
        assert eng.loss_model(None) is None

    def test_active_burst_adds_to_base_rate(self):
        base = LossModel(rate=0.1)
        eng = engine(episodes=[LossBurstEpisode(start=1.0, duration=3.0,
                                                rate=0.4)])
        eng.advance(1.0)
        assert eng.loss_model(base).rate == pytest.approx(0.5)
        assert eng.loss_model(None).rate == pytest.approx(0.4)

    def test_overlapping_bursts_cap(self):
        eng = engine(episodes=[
            LossBurstEpisode(start=0.0, duration=10.0, rate=0.7),
            LossBurstEpisode(start=0.0, duration=10.0, rate=0.7),
        ])
        eng.advance(1.0)
        assert eng.loss_model(LossModel(rate=0.5)).rate == pytest.approx(0.999)
