"""Simulation scenario configuration.

Defaults follow the paper's model assumptions (Section 1.2): fixed node
density (area grows with |V|), unit-disk links sized for a constant
target degree, random-waypoint mobility with zero pause, ALCA clustering
recursed to the top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.servers import hash_stage
from repro.geometry.region import DiscRegion, disc_for_density
from repro.radio.connectivity import radius_for_degree

__all__ = ["Scenario"]


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one simulation run.

    Parameters
    ----------
    n:
        Node count |V|.
    density:
        Nodes per square meter; the disc area is n/density, realizing the
        paper's fixed-density scaling.
    target_degree:
        Expected unit-disk degree; sets R_tx = sqrt(d / (pi * density)).
        The paper's reference [2] motivates values around 6-9.
    speed:
        Node speed mu in m/s (scalar, or (low, high) uniform range).
    dt:
        Step duration in seconds.  Should be small enough that a node
        moves a fraction of R_tx per step (the adjacent-transition regime
        of Fig. 3).
    steps:
        Metered steps (after warmup).
    warmup:
        Steps run before metering starts (RWP mixing + baseline).
    mobility:
        Mobility registry name ("random_waypoint", "random_direction",
        "group", "stationary").
    mobility_kwargs:
        Extra arguments for the mobility model.
    clustering:
        "lca" (paper) or "maxmin" (baseline ablation).
    maxmin_d:
        Radius for max-min clustering.
    max_levels:
        Cap on hierarchy depth (None: recurse fully, L = Theta(log n)).
    level_mode:
        Level-k link construction: "radio" (geometric clusterhead links,
        the paper's Section 5.3.1 model; default) or "contraction"
        (cluster-adjacency links; ablation — high-level links flicker).
    election_mode:
        "memoryless" re-elects every level from scratch each step (the
        declarative ALCA reading); "sticky" maintains affiliations with
        LCC hysteresis across steps (the deployed-protocol reading, see
        EXP-A1); "persistent" additionally decouples cluster identity
        from the head role — cids survive head handover (the structural
        fix EXPERIMENTS.md identifies; see EXP-A5).
    hash_fn:
        CHLM hash ("rendezvous" or "naive").
    hop_mode:
        "bfs" for exact hop metering, "euclidean" for the fast distance
        estimator, "auto" to pick by size.
    detour:
        Euclidean estimator detour factor (hops ~ detour * dist / R_tx).
    failure_rate:
        Per-node crash rate (1/s).  The paper *excludes* node birth and
        death ("extremely rare"); nonzero rates quantify that excluded
        factor (EXP-A3).  A crashed node keeps its identity but loses
        all links until repaired.
    repair_time:
        Downtime per crash, in seconds.
    loss_rate:
        Per-hop control-packet loss probability in [0, 1).  The paper
        assumes lossless delivery; nonzero rates inject the lossy
        channel of EXP-A10 (see ``repro.faults`` and ROBUSTNESS.md).
        0 disables fault injection entirely (bit-identical metering).
    loss_level_coeff:
        Optional level dependence of the channel: a level-k message sees
        an effective per-hop loss of ``loss_rate * (1 + coeff * k)``.
    retry_attempts:
        Total delivery tries per control message, including the first
        (1 disables retransmission).
    retry_backoff:
        Delay before the first retransmission, in seconds.
    retry_backoff_factor:
        Exponential backoff multiplier per further retransmission.
    retry_jitter:
        Multiplicative backoff jitter (0 disables).
    retry_timeout:
        Per-message give-up budget in seconds; messages whose
        accumulated backoff would exceed it are abandoned.
    queries_per_step:
        Location queries sampled per metered step (random s-d pairs,
        resolved through the lossy stack with expanding-ring fallback).
        0 (default) samples none, leaving all metered series untouched.
    chaos:
        Fault schedule: a tuple of :mod:`repro.faults.chaos` episodes
        (``CrashEpisode`` / ``PartitionEpisode`` / ``LossBurstEpisode``)
        or their ``"kind:key=value,..."`` spec strings (parsed at
        construction).  Empty (default) injects nothing and is
        guaranteed bit-identical to a chaos-free engine.  All episode
        randomness comes from the dedicated ``"chaos"`` RNG stream.
    invariant_mode:
        Per-step hierarchy invariant checking (see
        :mod:`repro.faults.invariants`): ``"auto"`` (default) checks
        exactly when fault injection is on, ``"count"`` always checks,
        ``"strict"`` raises on the first violation, ``"off"`` never
        checks.
    slo_success_threshold:
        Query success rate an episode's recovery must recross before
        the run counts as reconverged (only binds when the scenario
        samples queries).
    slo_window:
        Consecutive converged steps required to declare recovery.
    arrival_rate:
        Open-loop service load in requests per simulated second
        (lookups plus updates), driven by ``repro.service``.  0
        (default) disables service mode entirely — the engine is then
        bit-identical to one without the service plane.  Arrivals draw
        only from the dedicated ``"service"`` RNG stream.
    arrival_process:
        Arrival process shape: ``"poisson"`` (homogeneous), ``"diurnal"``
        (sinusoidally modulated rate), or ``"hotspot"`` (Poisson
        arrivals with Zipf-skewed targets).
    admission_rate:
        Token-bucket admission limit in requests per simulated second;
        arrivals past the bucket are shed before queueing.  0 (default)
        admits everything.
    service_workers:
        Servers in the deterministic queueing model *and* threads in
        the wall-clock dispatcher.
    service_queue_capacity:
        Bounded FIFO backlog; admitted requests arriving to a full
        queue are dropped (backpressure).
    service_hop_time:
        Simulated seconds charged per control packet when converting a
        request's packet count into service time.
    service_update_fraction:
        Fraction of arrivals that are location *updates* (re-register
        the target's servers); the rest are lookups.
    service_scheme:
        Location scheme the front-end resolves against: ``"chlm"``
        (default; the live CHLM assignment) or ``"gls"`` (a Grid
        Location Service maintained alongside the run).
    hop_sample_every:
        Hop/giant-component sampling cadence: sample every k-th metered
        step (step 0 always samples).  Part of the scenario — and thus
        of the sweep cache key — so direct runs and sweeps agree on the
        default.  Mean hop sampling is the costliest per-step observation
        (BFS from several sources); raise the cadence for wide sweeps
        (see docs/PERFORMANCE.md), lower it when h/h_k accuracy matters.
    incremental_hierarchy:
        Run the event-driven hierarchy plane (see
        :mod:`repro.hierarchy.delta` and docs/ARCHITECTURE.md): the ALCA
        hierarchy is patched from link deltas instead of rebuilt, the
        unit-disk graph is maintained by a Verlet-style candidate cache,
        and the handoff engine re-hashes only dirty descent chains.
        Guaranteed bit-identical to the full-rebuild pipeline for every
        scenario (the equivalence matrix in
        ``tests/sim/test_incremental_equivalence`` covers plain / lossy /
        chaos / stateful / max-min / naive-hash / resume): elections
        with no patchable form (sticky, persistent, max-min) run as they
        are and only their snapshots are diffed, and a hash that keeps
        no descent chains is recomputed on the patched hierarchy.  Read
        once, where the simulator is constructed.  Part of the scenario,
        so cached sweeps key the two pipelines separately.
    seed:
        Root seed for all randomness.
    """

    n: int = 200
    density: float = 0.02
    target_degree: float = 9.0
    speed: float | tuple[float, float] = 5.0
    dt: float = 1.0
    steps: int = 100
    warmup: int = 10
    mobility: str = "random_waypoint"
    mobility_kwargs: dict = field(default_factory=dict)
    clustering: str = "lca"
    maxmin_d: int = 2
    level_mode: str = "radio"
    election_mode: str = "memoryless"
    max_levels: int | None = None
    hash_fn: str = "rendezvous"
    hop_mode: str = "auto"
    detour: float = 1.3
    failure_rate: float = 0.0
    repair_time: float = 20.0
    loss_rate: float = 0.0
    loss_level_coeff: float = 0.0
    retry_attempts: int = 1
    retry_backoff: float = 0.05
    retry_backoff_factor: float = 2.0
    retry_jitter: float = 0.1
    retry_timeout: float = 1.0
    queries_per_step: int = 0
    arrival_rate: float = 0.0
    arrival_process: str = "poisson"
    admission_rate: float = 0.0
    service_workers: int = 4
    service_queue_capacity: int = 512
    service_hop_time: float = 0.002
    service_update_fraction: float = 0.2
    service_scheme: str = "chlm"
    chaos: tuple = ()
    invariant_mode: str = "auto"
    slo_success_threshold: float = 0.9
    slo_window: int = 3
    hop_sample_every: int = 25
    incremental_hierarchy: bool = False
    seed: int = 0

    # Numeric fields screened for NaN/inf before any range check runs
    # (range checks silently pass on NaN: ``nan < 1`` is False).
    _NUMERIC_FIELDS = (
        "density", "target_degree", "dt", "detour", "failure_rate",
        "repair_time", "loss_rate", "loss_level_coeff", "retry_attempts",
        "retry_backoff", "retry_backoff_factor", "retry_jitter",
        "retry_timeout", "queries_per_step", "arrival_rate",
        "admission_rate", "service_workers", "service_queue_capacity",
        "service_hop_time", "service_update_fraction",
        "slo_success_threshold", "slo_window", "hop_sample_every",
    )

    def __post_init__(self):
        for name in self._NUMERIC_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(
                    f"{name} must be a finite number, got {value!r} "
                    "(NaN/inf would silently poison every derived metric)"
                )
        speeds = (self.speed,) if np.isscalar(self.speed) else tuple(self.speed)
        if not all(np.isfinite(v) for v in speeds):
            raise ValueError(
                f"speed must be finite (scalar or (low, high)), got {self.speed!r}"
            )
        if self.n <= 1:
            raise ValueError("need at least two nodes")
        if self.density <= 0:
            raise ValueError("density must be positive")
        if self.target_degree <= 0:
            raise ValueError("target degree must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError(
                f"steps must be >= 1, got {self.steps!r}: with zero metered "
                "steps every per-step rate (mean_degree, phi, gamma) would "
                "divide by zero — use warmup for unmetered mixing instead"
            )
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.hop_mode not in ("bfs", "euclidean", "auto"):
            raise ValueError("hop_mode must be bfs, euclidean, or auto")
        if self.level_mode not in ("radio", "contraction"):
            raise ValueError("level_mode must be radio or contraction")
        if self.election_mode not in ("memoryless", "sticky", "persistent"):
            raise ValueError(
                "election_mode must be memoryless, sticky, or persistent"
            )
        hash_stage(self.hash_fn)  # an unknown name raises here, not mid-run
        if self.election_mode != "memoryless" and self.clustering != "lca":
            raise ValueError("stateful elections require lca clustering")
        if self.election_mode == "persistent" and self.level_mode != "radio":
            raise ValueError("persistent clusters require radio level_mode")
        if self.detour < 1.0:
            raise ValueError("detour factor must be >= 1")
        if self.failure_rate < 0:
            raise ValueError("failure rate must be non-negative")
        if self.repair_time <= 0:
            raise ValueError(
                f"repair time must be positive, got {self.repair_time!r} "
                "(a crashed node needs a finite downtime to recover from)"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(
                f"loss_rate must be a probability in [0, 1), got "
                f"{self.loss_rate!r} (1.0 would mean no control packet "
                "ever survives a hop)"
            )
        if self.loss_level_coeff < 0:
            raise ValueError(
                f"loss_level_coeff must be non-negative, got "
                f"{self.loss_level_coeff!r}"
            )
        if self.retry_attempts < 1:
            raise ValueError(
                f"retry_attempts must be >= 1 (1 disables retries), got "
                f"{self.retry_attempts!r}"
            )
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be non-negative, got {self.retry_backoff!r}"
            )
        if self.retry_backoff_factor < 1.0:
            raise ValueError(
                f"retry_backoff_factor must be >= 1, got "
                f"{self.retry_backoff_factor!r}"
            )
        if self.retry_jitter < 0:
            raise ValueError(
                f"retry_jitter must be non-negative, got {self.retry_jitter!r}"
            )
        if self.retry_timeout <= 0:
            raise ValueError(
                f"retry_timeout must be positive, got {self.retry_timeout!r}"
            )
        if self.queries_per_step < 0:
            raise ValueError(
                f"queries_per_step must be non-negative, got "
                f"{self.queries_per_step!r}"
            )
        if self.arrival_rate < 0:
            raise ValueError(
                f"arrival_rate must be non-negative, got "
                f"{self.arrival_rate!r} (0 disables service mode)"
            )
        if self.arrival_process not in ("poisson", "diurnal", "hotspot"):
            raise ValueError(
                f"arrival_process must be poisson, diurnal, or hotspot, "
                f"got {self.arrival_process!r}"
            )
        if self.admission_rate < 0:
            raise ValueError(
                f"admission_rate must be non-negative, got "
                f"{self.admission_rate!r} (0 admits everything)"
            )
        if self.service_workers < 1:
            raise ValueError(
                f"service_workers must be >= 1, got {self.service_workers!r}"
            )
        if self.service_queue_capacity < 1:
            raise ValueError(
                f"service_queue_capacity must be >= 1, got "
                f"{self.service_queue_capacity!r} (an unbuffered service "
                "would drop every request that finds all workers busy)"
            )
        if self.service_hop_time <= 0:
            raise ValueError(
                f"service_hop_time must be positive, got "
                f"{self.service_hop_time!r}"
            )
        if not 0.0 <= self.service_update_fraction <= 1.0:
            raise ValueError(
                f"service_update_fraction must be in [0, 1], got "
                f"{self.service_update_fraction!r}"
            )
        if self.service_scheme not in ("chlm", "gls"):
            raise ValueError(
                f"service_scheme must be chlm or gls, got "
                f"{self.service_scheme!r}"
            )
        if self.hop_sample_every < 1:
            raise ValueError(
                f"hop_sample_every must be >= 1, got "
                f"{self.hop_sample_every!r} (1 samples every metered step)"
            )
        # Chaos episodes: spec strings are parsed here (each episode
        # dataclass validates its own window/rates with actionable
        # messages), so a malformed schedule fails at construction, not
        # mid-run.
        from repro.faults.chaos import (
            CrashEpisode, LossBurstEpisode, PartitionEpisode, parse_episode,
        )

        episodes = []
        for ep in self.chaos:
            if isinstance(ep, str):
                ep = parse_episode(ep)
            elif not isinstance(
                ep, (CrashEpisode, PartitionEpisode, LossBurstEpisode)
            ):
                raise TypeError(
                    f"chaos entries must be fault episodes or "
                    f"'kind:key=value,...' specs, got {ep!r}"
                )
            episodes.append(ep)
        object.__setattr__(self, "chaos", tuple(episodes))
        if self.invariant_mode not in ("auto", "count", "strict", "off"):
            raise ValueError(
                f"invariant_mode must be auto, count, strict, or off, "
                f"got {self.invariant_mode!r}"
            )
        if not 0.0 < self.slo_success_threshold <= 1.0:
            raise ValueError(
                f"slo_success_threshold must be a rate in (0, 1], got "
                f"{self.slo_success_threshold!r} (0 would declare "
                "recovery while every query still fails)"
            )
        if self.slo_window < 1:
            raise ValueError(
                f"slo_window must be >= 1 consecutive steps, got "
                f"{self.slo_window!r}"
            )

    # -- derived quantities -------------------------------------------------------

    @property
    def region(self) -> DiscRegion:
        """The paper's circular deployment area for this n and density."""
        return disc_for_density(self.n, self.density)

    @property
    def r_tx(self) -> float:
        """Unit-disk transmission radius."""
        return radius_for_degree(self.target_degree, self.density)

    @property
    def resolved_hop_mode(self) -> str:
        """"auto" resolves to exact BFS below 500 nodes."""
        if self.hop_mode != "auto":
            return self.hop_mode
        return "bfs" if self.n <= 500 else "euclidean"

    @property
    def duration(self) -> float:
        """Metered simulated time in seconds."""
        return self.steps * self.dt

    @property
    def faults_enabled(self) -> bool:
        """True when the control plane is lossy (EXP-A10 regime)."""
        return self.loss_rate > 0.0

    @property
    def service_enabled(self) -> bool:
        """True when the open-loop service front-end runs (server mode)."""
        return self.arrival_rate > 0.0

    @property
    def has_chaos(self) -> bool:
        """True when any fault injection runs: a scheduled episode or
        the legacy Poisson crash field."""
        return bool(self.chaos) or self.failure_rate > 0.0

    @property
    def resolved_invariant_mode(self) -> str:
        """"auto" resolves to "count" when fault injection is on."""
        if self.invariant_mode != "auto":
            return self.invariant_mode
        return "count" if self.has_chaos else "off"

    def fault_schedule(self):
        """The effective :class:`~repro.faults.chaos.FaultSchedule`:
        scheduled episodes plus the legacy ``failure_rate`` crash
        process (expressed as a whole-run episode on the historical
        ``"failures"`` RNG stream, preserving EXP-A3 bit-identically).
        """
        from repro.faults.chaos import CrashEpisode, FaultSchedule

        episodes = tuple(self.chaos)
        if self.failure_rate > 0.0:
            episodes += (CrashEpisode(
                rate=self.failure_rate, repair_time=self.repair_time,
                stream="failures",
            ),)
        return FaultSchedule(episodes=episodes)

    def loss_model(self):
        """The :class:`~repro.faults.loss.LossModel` these fields describe."""
        from repro.faults import LossModel

        return LossModel(rate=self.loss_rate, level_coeff=self.loss_level_coeff)

    def retry_policy(self):
        """The :class:`~repro.faults.retry.RetryPolicy` these fields describe."""
        from repro.faults import RetryPolicy

        return RetryPolicy(
            max_attempts=self.retry_attempts,
            base_backoff=self.retry_backoff,
            backoff_factor=self.retry_backoff_factor,
            jitter=self.retry_jitter,
            timeout=self.retry_timeout,
        )

    def mean_step_displacement(self) -> float:
        """Expected node displacement per step, in units of R_tx."""
        mu = (
            float(self.speed)
            if np.isscalar(self.speed)
            else (self.speed[0] + self.speed[1]) / 2.0
        )
        return mu * self.dt / self.r_tx
