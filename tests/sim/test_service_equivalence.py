"""Equivalence, determinism, and acceptance tests for service mode.

The service front-end's standing contract is stronger than the usual
"off means bit-identical": it is a *pure observer*, so even a run with
the service ON must leave every core metric series bit-identical to the
same run with the service off.  The tests here enforce both directions,
pin seed-determinism of the latency sample (however the dispatcher
threads interleave), exercise backpressure (admission shedding and
bounded-queue drops), prove checkpoint/resume replays the workload
exactly, and run the PR's acceptance load: 10k+ requests against a
500-node deployment with finite tail latencies.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.sim import Scenario, Simulator, run_scenario
from tests.fingerprint import fingerprint


def _service_fingerprint(rep):
    """Everything deterministic in a ServiceReport (wall time excluded)."""
    return (
        rep.offered, rep.shed, rep.dropped, rep.lookups, rep.updates,
        rep.direct_hits, rep.fallback_hits, rep.failed, rep.packets,
        list(rep.latencies), list(rep.waits),
        list(rep.arrivals_series), list(rep.shed_series),
        list(rep.dropped_series), list(rep.queue_depth_series),
    )


def _scenario(**over):
    base = dict(n=80, steps=8, warmup=2, speed=1.5, seed=3,
                max_levels=3, hop_mode="euclidean", hop_sample_every=4)
    base.update(over)
    return Scenario(**base)


SERVED = _scenario(arrival_rate=40.0, admission_rate=25.0,
                   service_workers=3)


class TestPureObserver:
    def test_service_off_knobs_are_inert(self):
        """arrival_rate=0 with every other service knob cranked must
        replay the plain scenario exactly."""
        knobbed = _scenario(arrival_rate=0.0, admission_rate=99.0,
                            service_workers=9, service_queue_capacity=7,
                            service_hop_time=0.5,
                            service_update_fraction=0.9,
                            arrival_process="hotspot")
        a = run_scenario(_scenario())
        b = run_scenario(knobbed)
        assert fingerprint(a) == fingerprint(b)
        assert "service" not in b.extras

    def test_service_on_leaves_core_metrics_bit_identical(self):
        """The strong contract: the front-end observes, never perturbs."""
        off = run_scenario(_scenario())
        on = run_scenario(SERVED)
        assert fingerprint(off) == fingerprint(on)
        assert np.array_equal(off.final_positions, on.final_positions)
        assert on.extras["service"].offered > 0

    def test_service_composes_with_queries_and_loss(self):
        """Stacked on the lossy control plane and query sampling, the
        service still perturbs nothing — including the query ledger."""
        lossy = _scenario(loss_rate=0.08, retry_attempts=3,
                          queries_per_step=4)
        off = run_scenario(lossy)
        on = run_scenario(replace(lossy, arrival_rate=40.0))
        assert fingerprint(off) == fingerprint(on)
        assert off.queries.success_series == on.queries.success_series
        assert on.extras["service"].offered > 0


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_scenario(SERVED).extras["service"]
        b = run_scenario(SERVED).extras["service"]
        assert _service_fingerprint(a) == _service_fingerprint(b)
        assert a.latency_histogram() == b.latency_histogram()

    def test_worker_count_does_not_change_arrivals(self):
        """Thread-pool width is wall-clock machinery: the workload and
        its resolution outcomes must not depend on it.  (Simulated
        queueing *does* depend on service_workers, so compare the
        arrival stream and resolution tallies, not latencies.)"""
        wide = replace(SERVED, service_workers=8)
        a = run_scenario(SERVED).extras["service"]
        b = run_scenario(wide).extras["service"]
        assert a.arrivals_series == b.arrivals_series
        assert a.offered == b.offered
        assert a.shed == b.shed

    def test_different_seed_different_workload(self):
        a = run_scenario(SERVED).extras["service"]
        b = run_scenario(replace(SERVED, seed=4)).extras["service"]
        assert _service_fingerprint(a) != _service_fingerprint(b)


class TestBackpressure:
    def test_admission_sheds_excess_load(self):
        rep = run_scenario(SERVED).extras["service"]
        assert rep.shed > 0
        assert rep.served + rep.shed + rep.dropped == rep.offered
        # ~40/s offered vs 25/s admitted over 8 metered seconds.
        assert rep.shed == sum(rep.shed_series)

    def test_admit_all_never_sheds(self):
        rep = run_scenario(
            replace(SERVED, admission_rate=0.0)).extras["service"]
        assert rep.shed == 0

    def test_bounded_queue_drops_under_overload(self):
        crushed = _scenario(arrival_rate=120.0, service_workers=1,
                            service_queue_capacity=2,
                            service_hop_time=0.05)
        rep = run_scenario(crushed).extras["service"]
        assert rep.dropped > 0
        assert rep.peak_queue_depth <= 2 + 1  # bound, +1 for the one in hand
        assert rep.served + rep.dropped == rep.offered

    def test_gls_scheme_serves(self):
        rep = run_scenario(
            replace(SERVED, service_scheme="gls")).extras["service"]
        assert rep.served > 0
        assert rep.updates > 0
        assert rep.direct_hits + rep.fallback_hits + rep.failed == rep.lookups


class TestResume:
    def test_resumed_run_replays_service_exactly(self, tmp_path):
        sc = replace(SERVED, steps=12, warmup=3)
        baseline = Simulator(sc).run()

        path = tmp_path / "serve.ckpt"
        Simulator(sc).run(checkpoint_every=5, checkpoint_path=str(path))
        resumed_sim = Simulator.restore(str(path))
        assert 0 < resumed_sim.next_step < sc.steps
        resumed = resumed_sim.run()
        assert _service_fingerprint(baseline.extras["service"]) == \
            _service_fingerprint(resumed.extras["service"])
        assert fingerprint(baseline) == fingerprint(resumed)


class TestAcceptanceLoad:
    """The PR's acceptance bar: a 500-node run absorbing 10k+ requests
    with latency percentiles, throughput, and backpressure reported."""

    @pytest.fixture(scope="class")
    def report(self):
        sc = Scenario(n=500, steps=25, warmup=5, seed=0, max_levels=3,
                      hop_mode="euclidean", arrival_rate=500.0,
                      admission_rate=460.0, service_workers=16,
                      service_hop_time=0.001, hop_sample_every=10_000)
        return run_scenario(sc)

    def test_sustains_10k_requests(self, report):
        rep = report.extras["service"]
        assert rep.offered >= 10_000
        assert rep.served >= 8_000
        assert rep.shed > 0  # admission demonstrably shedding
        assert rep.served + rep.shed + rep.dropped == rep.offered
        assert np.isfinite(rep.p50) and rep.p50 > 0
        assert rep.p50 <= rep.p95 <= rep.p99
        assert rep.throughput > 300.0

    def test_manifest_carries_service_slos(self, report):
        from repro.obs import RunManifest

        metrics = RunManifest.from_result(report).metrics
        assert metrics["service_offered"] >= 10_000
        assert metrics["service_p99_latency"] >= metrics["service_p50_latency"]
        assert metrics["service_throughput"] > 0
        assert metrics["service_shed"] > 0
