"""Equivalence and behavior tests for the lossy control plane.

The acceptance bar for the fault subsystem is exactness at zero: with
``loss_rate=0`` every metered series must be bit-identical to the
pre-fault engine.  The tests here enforce that at two layers (the
handoff engine's report against a zero-rate channel pass, and the
full simulator against inert fault knobs), then pin down the lossy
regime: determinism, retransmission accounting, stale-server recovery,
and query degradation.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import HandoffEngine
from repro.core.handoff import ABANDONED, RECOVERED, RETRANSMITTED, STALE
from repro.faults import DeliveryEngine, LossModel, RetryPolicy
from repro.geometry import disc_for_density
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges
from repro.sim import Scenario, run_scenario
from tests.core.descent_oracle import server_map
from tests.fingerprint import fingerprint


def _snapshots(n=120, steps=6, seed=0):
    from repro.mobility import RandomWaypoint

    density = 0.02
    region = disc_for_density(n, density)
    model = RandomWaypoint(n, region, 8.0, np.random.default_rng(seed))
    r = radius_for_degree(9.0, density)

    def snap():
        edges = unit_disk_edges(model.positions.copy(), r)
        return build_hierarchy(np.arange(n), edges)

    snaps = [snap()]
    for _ in range(steps):
        model.step(1.0)
        snaps.append(snap())
    return snaps


def unit_hops(u, v):
    return 0 if u == v else 1


class TestZeroLossExactness:
    def test_engine_with_zero_loss_delivery_matches_none(self):
        """A zero-rate channel pass must return the lossless report
        unchanged: same counts and charge rows, nothing left behind or
        stale, and no RNG use."""
        eng = HandoffEngine()
        rng = np.random.default_rng(99)
        state_before = rng.bit_generator.state
        lossless = DeliveryEngine(
            loss=LossModel(rate=0.0),
            retry=RetryPolicy(max_attempts=8),
            rng=rng,
        )
        moved = 0
        for t, h in enumerate(_snapshots()):
            a = eng.observe(h, unit_hops)
            if not t:
                continue  # the baseline: nothing to send
            b, stayed = lossless.handoff(a, eng.assignment, float(t))
            assert np.array_equal(a.counts, b.counts)
            assert np.array_equal(a.flat, b.flat)
            assert all(map(np.array_equal, a.moved + a.registered,
                           b.moved + b.registered))
            assert b.recovery_time_total == 0 and not lossless.stale
            assert not any(col.size for col in stayed)
            moved += a.moved[0].size
        assert moved > 0
        assert rng.bit_generator.state == state_before

    def test_simulation_bit_identical_with_inert_fault_knobs(self):
        """loss_rate=0 plus an arbitrary retry setting must replay the
        default scenario exactly — the retry knob is inert at zero."""
        base = Scenario(n=80, steps=8, warmup=2, speed=1.5, seed=3,
                        max_levels=3, hop_mode="euclidean", hop_sample_every=4)
        knobbed = replace(base, loss_rate=0.0, retry_attempts=7)
        assert fingerprint(run_scenario(base)) == \
            fingerprint(run_scenario(knobbed))

    def test_query_sampling_does_not_perturb_metered_series(self):
        """Queries draw from their own RNG stream, so sampling them must
        leave phi/gamma/f0 and every handoff series untouched."""
        quiet = Scenario(n=80, steps=8, warmup=2, speed=1.5, seed=3,
                         max_levels=3, hop_mode="euclidean",
                         hop_sample_every=4)
        sampled = replace(quiet, queries_per_step=4)
        a = run_scenario(quiet)
        b = run_scenario(sampled)
        assert fingerprint(a) == fingerprint(b)
        assert a.queries is None and a.query_success_rate is None
        assert b.queries is not None
        assert b.queries.attempts == 8 * 4
        assert b.query_success_rate == 1.0  # lossless: every query lands


LOSSY = Scenario(n=100, steps=12, warmup=2, speed=1.5, seed=11,
                 max_levels=3, hop_mode="euclidean",
                 loss_rate=0.08, retry_attempts=3, queries_per_step=4,
                 hop_sample_every=4)


class TestLossyBehavior:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(LOSSY)

    def test_seed_deterministic(self, result):
        again = run_scenario(LOSSY)
        assert fingerprint(result) == fingerprint(again)
        assert result.queries.success_series == again.queries.success_series

    def test_retransmissions_metered(self, result):
        assert result.ledger.flat()[RETRANSMITTED] > 0
        assert result.ledger.retransmission_rate > 0

    def test_abandonment_leaves_then_recovers_stale_entries(self, result):
        led = result.ledger
        assert led.flat()[ABANDONED] > 0
        assert len(led.stale_series) == LOSSY.steps
        assert max(led.stale_series) > 0
        # Recoveries happen and take at least one step each.
        assert led.flat()[RECOVERED] > 0
        assert led.mean_recovery_time >= LOSSY.dt

    def test_lossy_costs_more_than_lossless(self, result):
        clean = run_scenario(replace(LOSSY, loss_rate=0.0))
        assert result.handoff_rate > clean.handoff_rate

    def test_query_ledger_populated(self, result):
        q = result.queries
        assert q.attempts == LOSSY.steps * LOSSY.queries_per_step
        assert 0.0 <= q.success_rate <= 1.0
        assert q.total_packets > 0

    def test_rates_scale_with_loss(self):
        mild = run_scenario(replace(LOSSY, loss_rate=0.02))
        harsh = run_scenario(replace(LOSSY, loss_rate=0.25))
        assert harsh.ledger.retransmission_rate > mild.ledger.retransmission_rate
        assert harsh.ledger.abandonment_rate >= mild.ledger.abandonment_rate
