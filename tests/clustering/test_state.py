"""Tests for the ALCA state machine tracker and Eq. (15)-(21) quantities."""

import numpy as np
import pytest

from repro.clustering import StateTracker, elect, recursion_quantities


def snapshot(ids, edges):
    return elect(ids, np.asarray(edges).reshape(-1, 2))


class TestStateTracker:
    def test_requires_observations(self):
        with pytest.raises(ValueError):
            StateTracker().stats()

    def test_occupancy_single_snapshot(self):
        t = StateTracker()
        # Pair 1-2: node 2 in state 1, node 1 in state 0.
        t.observe([snapshot([1, 2], [[1, 2]])])
        s = t.stats()[0]
        assert s.occupancy[0] == pytest.approx(0.5)
        assert s.occupancy[1] == pytest.approx(0.5)
        assert s.p_state1 == pytest.approx(0.5)
        assert s.samples == 2

    def test_transition_detection(self):
        t = StateTracker()
        # Step 1: 1-9 linked; state(9) = 1.
        t.observe([snapshot([1, 2, 9], [[1, 9]])])
        # Step 2: both 1 and 2 elect 9; state(9) = 2 (one +1 transition).
        t.observe([snapshot([1, 2, 9], [[1, 9], [2, 9]])])
        s = t.stats()[0]
        assert s.transition_histogram.get(1, 0) >= 1

    def test_critical_crossing_counted(self):
        t = StateTracker()
        t.observe([snapshot([1, 2, 3], [[1, 3]])])  # 2 isolated: state(3)=1
        t.observe([snapshot([1, 2, 3], [[1, 2]])])  # 3 isolated: drops to 0
        s = t.stats()[0]
        # 3 crossed 1 -> 0 and 2 crossed 0 -> 1.
        assert s.critical_crossings == 2

    def test_node_churn_tolerated(self):
        t = StateTracker()
        t.observe([snapshot([1, 2], [[1, 2]])])
        t.observe([snapshot([2, 3], [[2, 3]])])  # node 1 left, node 3 joined
        s = t.stats()[0]
        assert s.samples == 4

    def test_p_state1_heads(self):
        t = StateTracker()
        # Star 1,2,3 -> 9: state(9) = 3; others 0.
        t.observe([snapshot([1, 2, 3, 9], [[1, 9], [2, 9], [3, 9]])])
        s = t.stats()[0]
        assert s.p_state1_heads == 0.0  # the only head is in state 3
        assert s.occupancy[3] == pytest.approx(0.25)


class TestConsecutiveSnapshotsOnly:
    """Transitions are counted between consecutive snapshots only: a
    level that vanishes for a step (the hierarchy's depth dips) is not
    diffed against its election from two steps back when it returns."""

    def test_level_returning_after_a_dip_starts_afresh(self):
        level0 = snapshot([1, 2, 3], [[1, 2], [2, 3]])
        t = StateTracker()
        t.observe([level0, snapshot([5, 6], [[5, 6]])])
        t.observe([level0])
        t.observe([level0, snapshot([5, 6], np.empty((0, 2)))])
        s = t.stats()[1]
        assert s.samples == 4
        assert s.transition_histogram == {}
        assert s.critical_crossings == 0
        # Level 0 saw every snapshot: two steps of three unchanged nodes.
        assert t.stats()[0].transition_histogram == {0: 6}

    def test_depth_dip_in_a_run(self):
        """``Scenario(n=1000, steps=30, seed=4)`` dips from 5 to 4 levels
        five times, once for two steps.  Diffing level 4 across each dip
        counted 59 transitions ({0: 45, 1: 13, 2: 1}); consecutive
        snapshots hold 49.  Occupancy does not depend on the pairing."""
        from repro.sim import Scenario, run_scenario

        res = run_scenario(Scenario(n=1000, steps=30, seed=4))
        s = res.state_stats[4]
        assert s.transition_histogram == {0: 39, 1: 9, 2: 1}
        assert s.samples == 74


class TestStackedAgainstPerLevelOracle:
    """The level-stacked tracker returns, level for level, what the
    per-level loop (``tests/clustering/state_oracle.py``) returns."""

    @staticmethod
    def _random_snapshots(seed, steps=25):
        """Elections of a random multi-level stack: node sets churn, IDs
        are gappy and large at the upper levels, and the depth varies
        from one snapshot to the next (a level may vanish and return)."""
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(steps):
            depth = int(rng.integers(0, 5))
            snap = []
            for k in range(depth):
                pool = np.arange(40) * (10**7 if k else 1) + k
                ids = rng.choice(pool, size=int(rng.integers(1, 30)),
                                 replace=False)
                pairs = rng.choice(ids, size=(int(rng.integers(0, 60)), 2))
                snap.append(snapshot(ids, pairs[pairs[:, 0] != pairs[:, 1]]))
            out.append(snap)
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_random_stacks(self, seed):
        from tests.clustering.state_oracle import PerLevelStates

        stacked, oracle = StateTracker(), PerLevelStates()
        for snap in self._random_snapshots(seed):
            stacked.observe(snap)
            oracle.observe(snap)
        if stacked.samples:
            assert stacked.stats() == oracle.stats()
        else:
            assert oracle.stats() == {}

    @pytest.mark.parametrize("over", [
        # Crashes and a partition change the node sets between steps.
        dict(n=150, steps=14, seed=3, chaos=(
            "crash:start=2,duration=6,rate=0.05,repair=3",
            "partition:start=8,duration=3")),
        # Minted cluster IDs >= 10^7 at every upper level.
        dict(n=150, steps=14, seed=5, election_mode="persistent"),
        # The same at 1 m/s, where few links change per step.
        dict(n=150, steps=14, seed=5, election_mode="persistent",
             speed=1.0),
    ], ids=["chaos", "persistent", "persistent-event"])
    def test_simulation(self, over):
        from repro.sim import Scenario, Simulator
        from tests.clustering.state_oracle import OracleStateCollector

        res = Simulator(Scenario(warmup=2, max_levels=4, **over),
                        collectors=[OracleStateCollector()]).run()
        assert res.state_stats and len(res.state_stats) >= 2
        assert res.state_stats == res.extras["state_oracle"]

    def test_resume_mid_run(self, tmp_path):
        """The stacked tracker rides the checkpoint: a resumed run's
        statistics equal the uninterrupted run's and the oracle's, which
        was checkpointed beside it."""
        from repro.sim import Scenario, Simulator
        from tests.clustering.state_oracle import OracleStateCollector

        sc = Scenario(n=120, steps=12, warmup=2, seed=11, max_levels=4)
        baseline = Simulator(sc).run()
        path = tmp_path / "run.ckpt"
        Simulator(sc, collectors=[OracleStateCollector()]).run(
            checkpoint_every=5, checkpoint_path=str(path))
        resumed = Simulator.restore(str(path))
        assert 0 < resumed.next_step < sc.steps
        res = resumed.run()
        assert res.state_stats == baseline.state_stats
        assert res.state_stats == res.extras["state_oracle"]


class TestRecursionQuantities:
    def test_uniform_p(self):
        """With p_j = p for all j, Eq. (15a) gives q_1 = (1-p)*p and
        Q = sum; the q1/Q lower bound must hold."""
        p = 0.3
        k = 5
        rq = recursion_quantities([p] * k, k)
        assert rq.p == pytest.approx(p)
        assert rq.q[0] == pytest.approx((1 - p) * p)
        # q_{k-1} has no (1-p) factor.
        assert rq.q[-1] == pytest.approx(p ** (k - 1))
        assert rq.Q <= rq.P + 1e-12  # Eq. (21a): P >= Q
        assert rq.q1_over_Q >= rq.q1_over_Q_lower_bound - 1e-12  # Eq. (21b)

    def test_k2_single_stage(self):
        rq = recursion_quantities([0.5, 0.4], 2)
        # k=2: only j=1 = k-1 -> q_1 = p_{k-1} = p_1 with no (1-p) factor.
        assert rq.q.shape == (1,)
        assert rq.q[0] == pytest.approx(0.4)
        assert rq.Q == pytest.approx(0.4)

    def test_q_sums_to_valid_probability_mass(self):
        rq = recursion_quantities([0.2, 0.5, 0.3, 0.4, 0.25], 5)
        assert 0 <= rq.Q <= 1 + 1e-12
        assert (rq.q >= 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            recursion_quantities([0.5, 0.5], 1)
        with pytest.raises(ValueError):
            recursion_quantities([0.5], 2)
        with pytest.raises(ValueError):
            recursion_quantities([0.5, 1.5], 2)

    def test_eq22_positive_q1(self):
        """Eq. (22): q_1 bounded away from 0 when the p_j are moderate."""
        for k in range(2, 8):
            rq = recursion_quantities([0.35] * k, k)
            assert rq.q[0] > 0.2  # (1-0.35)*0.35 = 0.2275 for k > 2
