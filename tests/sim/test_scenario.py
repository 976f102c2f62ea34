"""Tests for scenario configuration."""

import dataclasses

import numpy as np
import pytest

from repro.faults import LossModel, RetryPolicy
from repro.sim import Scenario

DELETED_FIELDS = {
    "detour", "loss_level_coeff", "retry_backoff", "retry_backoff_factor",
    "retry_jitter", "slo_success_threshold", "slo_window",
    # The open-loop service front-end and its knobs, retired whole.
    "arrival_rate", "arrival_process", "admission_rate", "service_workers",
    "service_queue_capacity", "service_hop_time", "service_update_fraction",
    "service_scheme",
    # One clustering algorithm (ALCA) and one run-path hash (rendezvous).
    "clustering", "maxmin_d", "hash_fn",
    # One way to inject faults: crashes are a CrashEpisode in ``chaos``.
    "failure_rate", "repair_time",
}


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1},
            {"density": 0.0},
            {"target_degree": 0.0},
            {"dt": 0.0},
            {"steps": 0},
            {"warmup": -1},
            {"hop_mode": "psychic"},
            {"hop_sample_every": 0},  # the only way to ask for cadence 0
            {"level_mode": "wormhole"},
            {"election_mode": "hereditary"},
            {"mobility": "teleport"},
            {"seed": -1},
            {"speed": -1.0},
            {"max_levels": 0},  # would build and meter phi = gamma = 0
            {"max_levels": -2},
            {"speed": 0.0},
            {"speed": (5.0, 1.0)},
            {"speed": (1.0, 2.0, 3.0)},  # the third value was dropped
            {"mobility_kwargs": {"bogus": 1}},
            {"mobility": "stationary", "mobility_kwargs": {"pause": 1.0}},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        """Each fails at construction with a message naming the field,
        not inside the mobility model or mid-run."""
        field = list(kwargs)[-1]
        with pytest.raises(ValueError, match=field):
            Scenario(**{"n": 60, "steps": 2, "warmup": 1, **kwargs})

    @pytest.mark.parametrize("field,value", [
        ("n", 100.5), ("steps", 2.5), ("warmup", 1.5), ("seed", 1.5),
        ("queries_per_step", 1.5), ("max_levels", 2.5),
        ("hop_sample_every", 2.5), ("retry_attempts", 2.5), ("n", "100"),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            Scenario(**{"n": 60, "steps": 2, "warmup": 1, field: value})

    def test_numpy_integers_accepted(self):
        sc = Scenario(n=np.int64(60), steps=np.int32(2), seed=np.uint8(3),
                      max_levels=np.int64(2))
        assert sc.n == 60 and sc.seed == 3

    def test_defaults_valid(self):
        sc = Scenario()
        assert sc.n == 200

    @pytest.mark.parametrize(
        "field",
        ["density", "target_degree", "speed", "dt", "detour", "failure_rate",
         "repair_time", "loss_rate", "loss_level_coeff", "retry_attempts",
         "retry_backoff", "retry_backoff_factor", "retry_jitter",
         "retry_timeout"],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_floats(self, field, bad):
        if field in DELETED_FIELDS:
            # Now a module constant: no value for it is accepted at all.
            with pytest.raises(TypeError, match="unexpected keyword"):
                Scenario(**{field: bad})
            return
        with pytest.raises((ValueError, TypeError)):
            Scenario(**{field: bad})

    def test_one_value_fields_are_gone(self):
        """The seven fields no caller set to anything but their default
        are constants of the code that reads them, the control-plane
        switch is gone (the simulator picks its plan per step), and so
        are the eight service front-end fields and the clustering and
        hash choices, and the legacy crash fields; 21 fields remain."""
        names = {f.name for f in dataclasses.fields(Scenario)}
        assert not names & DELETED_FIELDS
        assert "incremental_hierarchy" not in names
        assert len(names) == 21
        for field in DELETED_FIELDS:
            with pytest.raises(TypeError, match="unexpected keyword"):
                Scenario(**{field: 1.0})

    def test_rejects_non_finite_speed_tuple(self):
        with pytest.raises(ValueError):
            Scenario(speed=(1.0, float("nan")))

    def test_error_message_names_the_field(self):
        with pytest.raises(ValueError, match="density"):
            Scenario(density=float("nan"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_rate": -0.01},
            {"loss_rate": 1.0},   # certain loss: every message spins
            {"loss_rate": 1.5},
            {"chaos": ("crash:rate=-0.1",)},
            {"retry_attempts": 0},
            {"chaos": ("crash:rate=0.1,repair=0",)},
            {"retry_attempts": -1},
            {"retry_timeout": -1.0},
            {"retry_timeout": 0.0},
            {"queries_per_step": -1},
        ],
    )
    def test_rejects_bad_fault_fields(self, kwargs):
        with pytest.raises(ValueError):
            Scenario(**kwargs)

    def test_loss_rate_message_is_actionable(self):
        with pytest.raises(ValueError, match=r"loss_rate.*\[0, 1\)"):
            Scenario(loss_rate=1.2)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_zero_steps_rejected_with_actionable_message(self, steps):
        """Pinned behavior: a steps<1 scenario is rejected up front (the
        engine divides by ``steps`` for every per-step rate), and the
        message points at ``warmup`` for unmetered mixing."""
        with pytest.raises(ValueError, match=r"steps must be >= 1.*warmup"):
            Scenario(steps=steps)

    def test_faults_enabled_gate(self):
        assert not Scenario().faults_enabled
        assert not Scenario(retry_attempts=5).faults_enabled
        assert Scenario(loss_rate=0.01).faults_enabled

    def test_fault_helpers_mirror_fields(self):
        sc = Scenario(loss_rate=0.1, retry_attempts=3, retry_timeout=9.0)
        assert sc.loss_model() == LossModel(rate=0.1)
        assert sc.retry_policy() == RetryPolicy(max_attempts=3, timeout=9.0)


class TestChaosFields:
    @pytest.mark.parametrize("kwargs", [
        {"chaos": ("crash:rate=-1",)},              # bad episode value
        {"chaos": ("meteor:start=1,duration=2",)},  # unknown kind
        {"chaos": ("partition:start=1,duration=-2",)},
        {"invariant_mode": "loose"},
        {"chaos": ("crash:start=-1,duration=2,rate=0.1",)},
        {"chaos": ("burst:start=0,duration=2,rate=1.5",)},
        {"chaos": ("partition:start=0,duration=2,angle=nan",)},
        {"invariant_mode": "STRICT"},
    ])
    def test_rejects_bad_chaos_values(self, kwargs):
        with pytest.raises(ValueError):
            Scenario(**kwargs)

    def test_rejects_non_episode_chaos_entries(self):
        with pytest.raises(TypeError, match="episode"):
            Scenario(chaos=(object(),))

    def test_string_specs_normalized_to_episodes(self):
        from repro.faults import CrashEpisode, PartitionEpisode

        sc = Scenario(chaos=("crash:rate=0.1,repair=5",
                             PartitionEpisode(start=3.0, duration=2.0)))
        assert isinstance(sc.chaos[0], CrashEpisode)
        assert sc.chaos[0].repair_time == 5.0
        assert isinstance(sc.chaos[1], PartitionEpisode)

    def test_invariant_mode_resolution(self):
        assert Scenario().resolved_invariant_mode == "off"
        assert Scenario(
            chaos=("crash:rate=0.01",)).resolved_invariant_mode == "count"
        assert Scenario(
            chaos=("burst:rate=0.3,start=1,duration=2",)
        ).resolved_invariant_mode == "count"
        assert Scenario(invariant_mode="strict").resolved_invariant_mode \
            == "strict"
        assert Scenario(chaos=("crash:rate=0.01",),
                        invariant_mode="off").resolved_invariant_mode == "off"

    def test_clusterhead_kill_rejected_under_persistent_elections(self):
        """Persistent level-1 ids are cluster ids, not node ids, so a
        clusterhead-targeted crash would kill nobody; the scenario says
        so at construction, naming both settings."""
        spec = "crash:start=3,duration=1,count=5,targets=clusterheads"
        with pytest.raises(ValueError,
                           match="targets='clusterheads'.*persistent"):
            Scenario(election_mode="persistent", chaos=(spec,))
        for mode in ("memoryless", "sticky"):
            assert Scenario(election_mode=mode, chaos=(spec,)).chaos
        assert Scenario(election_mode="persistent",
                        chaos=("crash:start=3,duration=1,count=5",)).chaos


class TestDerivedQuantities:
    def test_fixed_density_scaling(self):
        """Area grows linearly with n at fixed density (Section 1.2)."""
        a = Scenario(n=100).region.area
        b = Scenario(n=400).region.area
        assert b == pytest.approx(4 * a)

    def test_r_tx_independent_of_n(self):
        """At fixed density the transmission radius is constant — R_tx
        does not shrink with n in the paper's scaling regime."""
        assert Scenario(n=100).r_tx == pytest.approx(Scenario(n=1000).r_tx)

    def test_r_tx_gives_target_degree(self):
        sc = Scenario(density=0.01, target_degree=8.0)
        expected = np.sqrt(8.0 / (np.pi * 0.01))
        assert sc.r_tx == pytest.approx(expected)

    def test_auto_hop_mode(self):
        assert Scenario(n=100).resolved_hop_mode == "bfs"
        assert Scenario(n=2000).resolved_hop_mode == "euclidean"
        assert Scenario(n=2000, hop_mode="bfs").resolved_hop_mode == "bfs"

    def test_duration(self):
        assert Scenario(steps=50, dt=0.5).duration == pytest.approx(25.0)

    def test_frozen(self):
        sc = Scenario()
        with pytest.raises(Exception):
            sc.n = 5
