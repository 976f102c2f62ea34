"""Tests for retry policy and attempt-level delivery accounting."""

import numpy as np
import pytest

from repro.faults import DeliveryEngine, LossModel, RetryPolicy
from repro.faults.retry import BACKOFF_FACTOR, BASE_BACKOFF, JITTER


class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_attempts": -2},
            {"timeout": float("nan")},
            {"timeout": -1.0},
            {"timeout": float("-inf")},
            {"timeout": 0.0},
            {"timeout": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestBackoff:
    def test_exponential_without_jitter(self):
        """Divided by its jitter factor, retry k waits BASE_BACKOFF *
        BACKOFF_FACTOR^(k-1); each retry takes exactly one jitter draw
        from the caller's stream."""
        assert (BASE_BACKOFF, BACKOFF_FACTOR, JITTER) == (0.05, 2.0, 0.1)
        p = RetryPolicy(max_attempts=5)
        rng = np.random.default_rng(0)
        u = np.random.default_rng(0).random(3)
        for k in (1, 2, 3):
            unjittered = p.backoff(k, rng) / (1.0 + JITTER * u[k - 1])
            assert unjittered == pytest.approx(
                BASE_BACKOFF * BACKOFF_FACTOR ** (k - 1))

    def test_jitter_bounded(self):
        p = RetryPolicy(max_attempts=2)
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = p.backoff(1, rng)
            assert BASE_BACKOFF <= d < BASE_BACKOFF * (1.0 + JITTER)

    def test_attempt_index_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0, np.random.default_rng(0))


def _engine(rate, seed=0, **retry_kwargs):
    return DeliveryEngine(
        loss=LossModel(rate=rate),
        retry=RetryPolicy(**retry_kwargs),
        rng=np.random.default_rng(seed),
    )


class TestDeliveryEngine:
    def test_lossless_is_passthrough(self):
        eng = _engine(0.0, max_attempts=4)
        out = eng.send(9)
        assert out.delivered and out.attempts == 1
        assert out.packets == out.hops == 9
        assert out.retransmitted == 0 and out.latency == 0.0

    def test_zero_hop_message_is_free(self):
        out = _engine(0.5, max_attempts=3).send(0)
        assert out.delivered and out.packets == 0

    def test_retries_bounded_by_max_attempts(self):
        eng = _engine(0.95, max_attempts=3, timeout=1e9)
        for _ in range(50):
            out = eng.send(20)
            assert out.attempts <= 3
            if not out.delivered:
                # Every transmission of an abandoned message is waste.
                assert out.retransmitted == out.packets > 0

    def test_timeout_abandons_before_max_attempts(self):
        # First backoff alone (0.05 s+) blows the 0.04 s budget, so the
        # engine abandons after a single attempt despite max_attempts=10.
        eng = _engine(0.999, max_attempts=10, timeout=0.04)
        out = eng.send(30)
        assert not out.delivered
        assert out.attempts == 1

    def test_retransmitted_counts_extra_packets_only(self):
        eng = _engine(0.4, seed=2, max_attempts=8, timeout=1e9)
        for _ in range(100):
            out = eng.send(6)
            if out.delivered and out.attempts > 1:
                assert out.retransmitted == out.packets - 6 > 0
                return
        pytest.fail("no multi-attempt delivery observed")

    def test_seed_deterministic(self):
        a = [_engine(0.3, seed=5, max_attempts=4).send(7) for _ in range(1)]
        b = [_engine(0.3, seed=5, max_attempts=4).send(7) for _ in range(1)]
        assert a == b
