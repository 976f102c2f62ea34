"""Tests for the per-hop lossy-channel model."""

import numpy as np
import pytest

from repro.faults import MAX_HOP_LOSS, LossModel


class TestValidation:
    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5, float("nan"), float("inf")])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            LossModel(rate=rate)

    @pytest.mark.parametrize("coeff", [-0.5, float("nan")])
    def test_bad_level_coeff_rejected(self, coeff):
        """The level coefficient is gone: no value for it is accepted."""
        with pytest.raises(TypeError, match="level_coeff"):
            LossModel(rate=0.1, level_coeff=coeff)


class TestHopLoss:
    def test_zero_rate_level_blind(self):
        """The channel is level-blind, and a zero rate loses nothing."""
        assert LossModel(rate=0.0).hop_loss() == 0.0

    def test_rate_is_the_hop_loss(self):
        assert LossModel(rate=0.05).hop_loss() == 0.05

    def test_capped_at_max(self):
        m = LossModel(rate=0.9995)
        assert m.hop_loss() == MAX_HOP_LOSS


class TestAttempt:
    def test_zero_rate_draws_nothing(self):
        """The lossless channel must not consume RNG state — that is
        what keeps loss_rate=0 runs bit-identical to the old engine."""
        m = LossModel(rate=0.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        ok, tx = m.attempt(7, rng)
        assert (ok, tx) == (True, 7)
        assert rng.bit_generator.state == before

    def test_zero_hops_trivial(self):
        m = LossModel(rate=0.9)
        rng = np.random.default_rng(0)
        assert m.attempt(0, rng) == (True, 0)

    def test_failure_charges_partial_route(self):
        """A lost packet at hop i costs i transmissions, never more."""
        m = LossModel(rate=0.7)
        rng = np.random.default_rng(3)
        for _ in range(200):
            ok, tx = m.attempt(10, rng)
            if ok:
                assert tx == 10
            else:
                assert 1 <= tx <= 10

    def test_deterministic_under_seed(self):
        m = LossModel(rate=0.3)
        a = [m.attempt(5, np.random.default_rng(9)) for _ in range(1)]
        b = [m.attempt(5, np.random.default_rng(9)) for _ in range(1)]
        assert a == b

    def test_success_probability_matches_empirics(self):
        m = LossModel(rate=0.2)
        rng = np.random.default_rng(1)
        n = 4000
        hits = sum(m.attempt(4, rng)[0] for _ in range(n))
        # Four independent hops each survive with probability 1 - rate.
        assert hits / n == pytest.approx((1 - 0.2) ** 4, abs=0.03)

    def test_success_probability_edges(self):
        """A zero-hop route, or a lossless channel, always delivers."""
        rng = np.random.default_rng(2)
        assert all(LossModel(rate=0.5).attempt(0, rng)[0] for _ in range(50))
        assert all(LossModel(rate=0.0).attempt(50, rng)[0] for _ in range(50))
