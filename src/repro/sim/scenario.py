"""Simulation scenario configuration.

Defaults follow the paper's model assumptions (Section 1.2): fixed node
density (area grows with |V|), unit-disk links sized for a constant
target degree, random-waypoint mobility with zero pause, ALCA clustering
recursed to the top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.region import DiscRegion, disc_for_density
from repro.mobility import MODEL_REGISTRY, check_model_kwargs
from repro.mobility.base import check_speed
from repro.radio.connectivity import radius_for_degree

__all__ = ["Scenario"]


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one simulation run.

    Every run clusters with ALCA (Sec. 2.2) and places LM servers with
    the rendezvous CHLM hash (Sec. 3.2).

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
        Node speed mu in m/s (positive scalar, or (low, high) uniform
        range with 0 < low <= high).
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
        Extra arguments for the mobility model's constructor.
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
    hop_mode:
        "bfs" for exact hop metering, "euclidean" for the fast distance
        estimator, "auto" to pick by size.
    loss_rate:
        Per-hop control-packet loss probability in [0, 1).  The paper
        assumes lossless delivery; nonzero rates inject the lossy
        channel of EXP-A10 (see ``repro.faults`` and ROBUSTNESS.md).
        0 disables fault injection entirely (bit-identical metering).
    retry_attempts:
        Total delivery tries per control message, including the first
        (1 disables retransmission).  Retries back off by
        :class:`~repro.faults.retry.RetryPolicy`'s default schedule.
    retry_timeout:
        Per-message give-up budget in seconds; messages whose
        accumulated backoff would exceed it are abandoned.
    queries_per_step:
        Location queries sampled per metered step (random s-d pairs,
        resolved through the lossy stack with expanding-ring fallback).
        0 (default) samples none, leaving all metered series untouched.
    chaos:
        The one way to inject faults: a tuple of :mod:`repro.faults.chaos`
        episodes (``CrashEpisode`` / ``PartitionEpisode`` /
        ``LossBurstEpisode``) or their ``"kind:key=value,..."`` spec
        strings (parsed at construction).  The paper *excludes* node
        birth and death ("extremely rare"); a whole-run
        ``CrashEpisode(rate=..., repair_time=...)`` quantifies that
        excluded factor (EXP-A3).  Empty (default) injects nothing and
        is guaranteed bit-identical to a chaos-free engine.  All episode
        randomness comes from the dedicated ``"chaos"`` RNG stream.
        Clusterhead-targeted crashes need head-named clusters, so they
        are rejected under ``election_mode="persistent"``.
    invariant_mode:
        Per-step hierarchy invariant checking (see
        :mod:`repro.faults.invariants`): ``"auto"`` (default) checks
        exactly when fault injection is on, ``"count"`` always checks,
        ``"strict"`` raises on the first violation, ``"off"`` never
        checks.
    hop_sample_every:
        Hop/giant-component sampling cadence: sample every k-th metered
        step (step 0 always samples).  The only place a run's cadence is
        set, so the result, its manifest and its sweep cache key all
        report the value the run used.  Mean hop sampling is the
        costliest per-step observation (BFS from several sources); raise
        the cadence for wide sweeps (see docs/PERFORMANCE.md), lower it
        when h/h_k accuracy matters.
    seed:
        Root seed for all randomness (a non-negative integer).
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
    level_mode: str = "radio"
    election_mode: str = "memoryless"
    max_levels: int | None = None
    hop_mode: str = "auto"
    loss_rate: float = 0.0
    retry_attempts: int = 1
    retry_timeout: float = 1.0
    queries_per_step: int = 0
    chaos: tuple = ()
    invariant_mode: str = "auto"
    hop_sample_every: int = 25
    seed: int = 0

    # Counts, checked to be integers before any range check runs
    # (``max_levels`` may also be None).
    _INTEGER_FIELDS = (
        "n", "steps", "warmup", "max_levels", "retry_attempts",
        "queries_per_step", "hop_sample_every", "seed",
    )
    # Float fields screened for NaN/inf before any range check runs
    # (range checks silently pass on NaN: ``nan < 1`` is False).
    _NUMERIC_FIELDS = (
        "density", "target_degree", "dt", "loss_rate", "retry_timeout",
    )

    def __post_init__(self):
        for name in self._INTEGER_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) and not (
                    name == "max_levels" and value is None):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        for name in self._NUMERIC_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(
                    f"{name} must be a finite number, got {value!r} "
                    "(NaN/inf would silently poison every derived metric)"
                )
        check_speed(self.speed)
        if self.n <= 1:
            raise ValueError("need at least two nodes")
        if self.density <= 0:
            raise ValueError("density must be positive")
        if self.target_degree <= 0:
            raise ValueError("target_degree must be positive")
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if self.mobility not in MODEL_REGISTRY:
            raise ValueError(
                f"unknown mobility model {self.mobility!r}; known: "
                f"{', '.join(sorted(MODEL_REGISTRY))}"
            )
        check_model_kwargs(self.mobility, self.mobility_kwargs)
        if self.max_levels is not None and self.max_levels < 1:
            raise ValueError(
                f"max_levels must be >= 1 or None, got {self.max_levels!r} "
                "(a one-level hierarchy has no LM servers, so phi and "
                "gamma would be a silent 0)"
            )
        if self.hop_mode not in ("bfs", "euclidean", "auto"):
            raise ValueError("hop_mode must be bfs, euclidean, or auto")
        if self.level_mode not in ("radio", "contraction"):
            raise ValueError("level_mode must be radio or contraction")
        if self.election_mode not in ("memoryless", "sticky", "persistent"):
            raise ValueError(
                "election_mode must be memoryless, sticky, or persistent"
            )
        if self.election_mode == "persistent" and self.level_mode != "radio":
            raise ValueError("persistent clusters require radio level_mode")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(
                f"loss_rate must be a probability in [0, 1), got "
                f"{self.loss_rate!r} (1.0 would mean no control packet "
                "ever survives a hop)"
            )
        if self.retry_attempts < 1:
            raise ValueError(
                f"retry_attempts must be >= 1 (1 disables retries), got "
                f"{self.retry_attempts!r}"
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
            if (isinstance(ep, CrashEpisode) and ep.targets == "clusterheads"
                    and self.election_mode == "persistent"):
                raise ValueError(
                    "a crash episode with targets='clusterheads' cannot "
                    "run under election_mode='persistent': persistent "
                    "level-1 ids are cluster ids, not node ids, so the "
                    "kill would hit nobody"
                )
            episodes.append(ep)
        object.__setattr__(self, "chaos", tuple(episodes))
        if self.invariant_mode not in ("auto", "count", "strict", "off"):
            raise ValueError(
                f"invariant_mode must be auto, count, strict, or off, "
                f"got {self.invariant_mode!r}"
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
    def has_chaos(self) -> bool:
        """True when a fault episode is scheduled."""
        return bool(self.chaos)

    @property
    def resolved_invariant_mode(self) -> str:
        """"auto" resolves to "count" when fault injection is on."""
        if self.invariant_mode != "auto":
            return self.invariant_mode
        return "count" if self.has_chaos else "off"

    def loss_model(self):
        """The :class:`~repro.faults.loss.LossModel` these fields describe."""
        from repro.faults import LossModel

        return LossModel(rate=self.loss_rate)

    def retry_policy(self):
        """The :class:`~repro.faults.retry.RetryPolicy` these fields describe."""
        from repro.faults import RetryPolicy

        return RetryPolicy(max_attempts=self.retry_attempts,
                           timeout=self.retry_timeout)

