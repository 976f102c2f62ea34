"""Deterministic chaos engine: scheduled fault episodes.

The paper excludes node birth/death ("assumed here to be extremely
rare") and never models partitions.  This module is the one way to
inject faults: ``Scenario.chaos`` holds a tuple of timed episodes —

* :class:`CrashEpisode` — Poisson crash/recover, scripted node kills,
  or targeted clusterhead kills, each with its own repair time;
* :class:`PartitionEpisode` — a geographic cut that severs every
  unit-disk link crossing a line through the deployment region, healed
  when the episode window closes;
* :class:`LossBurstEpisode` — a window during which the control
  channel's per-hop loss rate is ramped on top of the scenario's base
  :class:`~repro.faults.loss.LossModel`.

All randomness is drawn from the dedicated ``"chaos"`` RNG stream
(spawned after the other streams, so episodes leave every other stream
untouched: an *empty* schedule is bit-identical to the pre-chaos
engine).

Episode timing convention: an episode is *active* during simulated time
``start <= t < start + duration``, where ``t`` is the chaos clock
*after* the step's advance ("clock first, then sample").  See
docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.faults.loss import MAX_HOP_LOSS, LossModel

__all__ = [
    "CrashEpisode",
    "PartitionEpisode",
    "LossBurstEpisode",
    "ChaosEngine",
    "parse_episode",
]


def _check_window(kind: str, start: float, duration: float) -> None:
    """Shared episode-window validation (PR-2 style: NaN screened first,
    then ranges, with actionable messages)."""
    if not np.isfinite(start):
        raise ValueError(
            f"{kind} start must be a finite time, got {start!r} "
            "(NaN/inf would silently disable the episode)"
        )
    if start < 0:
        raise ValueError(
            f"{kind} start must be non-negative, got {start!r} "
            "(episode windows are simulated seconds from t=0)"
        )
    if math.isnan(duration) or duration <= 0:
        raise ValueError(
            f"{kind} duration must be positive (inf = whole run), got "
            f"{duration!r} — a zero/negative window never activates"
        )


@dataclass(frozen=True)
class CrashEpisode:
    """Node crash/recover during one time window.

    Three targeting modes, combinable with the window:

    * ``rate > 0`` — every eligible up-node crashes per step with
      probability ``1 - exp(-rate * dt)`` (the EXP-A3 Poisson model);
    * ``nodes`` — these exact nodes are killed once, on the episode's
      first active step (scripted kills);
    * ``count > 0`` — ``count`` eligible nodes are drawn (without
      replacement) and killed once, on the first active step.

    ``targets="clusterheads"`` restricts eligibility to the previous
    step's level-1 clusterheads — the paper's most disruptive single
    failure, forcing a reorganization handoff per kill.  Crashed nodes
    keep their identity but lose all links until ``repair_time`` has
    elapsed.
    """

    start: float = 0.0
    duration: float = math.inf
    rate: float = 0.0
    nodes: tuple[int, ...] = ()
    count: int = 0
    repair_time: float = 20.0
    targets: str = "any"

    def __post_init__(self):
        _check_window("CrashEpisode", self.start, self.duration)
        if not np.isfinite(self.rate) or self.rate < 0:
            raise ValueError(
                f"CrashEpisode rate must be a finite non-negative crash "
                f"rate (1/s), got {self.rate!r}"
            )
        if not np.isfinite(self.repair_time) or self.repair_time <= 0:
            raise ValueError(
                f"CrashEpisode repair_time must be positive, got "
                f"{self.repair_time!r} (a crashed node needs a finite "
                "downtime to recover from)"
            )
        if self.targets not in ("any", "clusterheads"):
            raise ValueError(
                f"CrashEpisode targets must be 'any' or 'clusterheads', "
                f"got {self.targets!r}"
            )
        if self.count < 0:
            raise ValueError(
                f"CrashEpisode count must be non-negative, got {self.count!r}"
            )
        if any((not isinstance(v, (int, np.integer))) or v < 0
               for v in self.nodes):
            raise ValueError(
                f"CrashEpisode nodes must be non-negative node ids, got "
                f"{self.nodes!r}"
            )
        if self.rate == 0 and not self.nodes and self.count == 0:
            raise ValueError(
                "CrashEpisode needs rate > 0, nodes, or count > 0 — "
                "otherwise it never crashes anything"
            )

    @property
    def end(self) -> float:
        """Episode close time (``start + duration``)."""
        return self.start + self.duration

    def active(self, t: float) -> bool:
        """Whether crashes sample at chaos-clock time ``t``."""
        return self.start <= t < self.end


@dataclass(frozen=True)
class PartitionEpisode:
    """Geographic partition: sever every link crossing a cut line.

    The cut is the line ``{p : p . (cos angle, sin angle) = offset}``
    through the (origin-centred) deployment disc; while active, links
    whose endpoints fall on opposite sides are removed from the
    unit-disk graph, splitting the network into two halves.  The cut
    heals (links return) the step the window closes.  ``offset`` is in
    meters along the cut normal; 0 bisects the disc.
    """

    start: float = 0.0
    duration: float = math.inf
    angle: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        _check_window("PartitionEpisode", self.start, self.duration)
        if not np.isfinite(self.angle):
            raise ValueError(
                f"PartitionEpisode angle must be finite radians, got "
                f"{self.angle!r}"
            )
        if not np.isfinite(self.offset):
            raise ValueError(
                f"PartitionEpisode offset must be finite meters, got "
                f"{self.offset!r} (0 bisects the deployment disc)"
            )

    @property
    def end(self) -> float:
        """Episode close time (``start + duration``)."""
        return self.start + self.duration

    def active(self, t: float) -> bool:
        """Whether the cut is severing links at chaos-clock time ``t``."""
        return self.start <= t < self.end

    def normal(self) -> np.ndarray:
        """Unit normal of the cut line."""
        return np.array([math.cos(self.angle), math.sin(self.angle)])


@dataclass(frozen=True)
class LossBurstEpisode:
    """Burst-loss window: ramp the control channel's per-hop loss.

    While active, ``rate`` is *added* to the scenario's base
    ``loss_rate`` (the sum capped at :data:`~repro.faults.MAX_HOP_LOSS`),
    degrading every handoff transfer and query probe through the existing
    :class:`~repro.faults.DeliveryEngine` path.  Works with a lossless
    base scenario too — the delivery engine is then built solely for
    the burst windows.
    """

    start: float = 0.0
    duration: float = math.inf
    rate: float = 0.0

    def __post_init__(self):
        _check_window("LossBurstEpisode", self.start, self.duration)
        if not np.isfinite(self.rate) or not 0.0 < self.rate < 1.0:
            raise ValueError(
                f"LossBurstEpisode rate must be an added per-hop loss "
                f"probability in (0, 1), got {self.rate!r}"
            )

    @property
    def end(self) -> float:
        """Episode close time (``start + duration``)."""
        return self.start + self.duration

    def active(self, t: float) -> bool:
        """Whether the burst is ramping loss at chaos-clock time ``t``."""
        return self.start <= t < self.end


Episode = CrashEpisode | PartitionEpisode | LossBurstEpisode


class ChaosEngine:
    """Per-run mutable state of one episode tuple (``Scenario.chaos``,
    already parsed and validated).

    Owned by the simulator; advanced once per step *before* the
    unit-disk rebuild (clock first, then sampling).  Picklable
    wholesale, so checkpoint/resume mid-episode is bit-identical to an
    uninterrupted run.
    """

    def __init__(self, n: int, episodes: tuple[Episode, ...],
                 rng: np.random.Generator):
        self.n = int(n)
        self.episodes = episodes
        self._rng = rng
        self.now = 0.0
        self.down_until = np.full(self.n, -math.inf)
        self._fired: set[int] = set()   # episode idx of one-shot kills done
        self._active_cuts: tuple[int, ...] = ()

    # -- stepping -----------------------------------------------------------

    def advance(self, dt: float, hierarchy=None) -> None:
        """Advance the chaos clock by one step and apply every active
        episode's crash sampling.  ``hierarchy`` is the *previous*
        step's hierarchy — clusterhead targeting kills the heads the
        network currently depends on."""
        self.now += dt
        for idx, ep in enumerate(self.episodes):
            if not isinstance(ep, CrashEpisode) or not ep.active(self.now):
                continue
            up = self.down_until < self.now
            eligible = up
            if ep.targets == "clusterheads":
                eligible = up & self._head_mask(hierarchy)
            if ep.rate > 0:
                # One full-length draw per active step, independent of
                # the eligible count — the draw order then never depends
                # on network state.
                p = -np.expm1(-ep.rate * dt)
                crashing = eligible & (self._rng.random(self.n) < p)
                if np.any(crashing):
                    self.down_until[crashing] = self.now + ep.repair_time
            if idx not in self._fired and (ep.nodes or ep.count > 0):
                self._fired.add(idx)
                kill = np.zeros(self.n, dtype=bool)
                for v in ep.nodes:
                    if 0 <= v < self.n and up[v]:
                        kill[v] = True
                if ep.count > 0:
                    # count kills draw from the eligible pool (so
                    # targets="clusterheads" + count=k beheads k live
                    # heads); scripted ids bypass the targeting filter.
                    pool = np.flatnonzero(eligible)
                    take = min(ep.count, pool.size)
                    if take > 0:
                        kill[self._rng.permutation(pool)[:take]] = True
                if np.any(kill):
                    self.down_until[kill] = self.now + ep.repair_time
        self._active_cuts = tuple(
            i for i, ep in enumerate(self.episodes)
            if isinstance(ep, PartitionEpisode) and ep.active(self.now)
        )

    def _head_mask(self, hierarchy) -> np.ndarray:
        """Boolean mask of current level-1 clusterheads (all-True when
        no hierarchy is available yet, e.g. the first metered step of a
        run without a baseline)."""
        mask = np.zeros(self.n, dtype=bool)
        if hierarchy is None or hierarchy.num_levels < 1:
            mask[:] = True
            return mask
        heads = hierarchy.levels[1].node_ids
        heads = heads[(heads >= 0) & (heads < self.n)]
        mask[heads] = True
        return mask

    # -- per-step views ------------------------------------------------------

    def down_mask(self) -> np.ndarray:
        """Boolean mask of nodes currently crashed."""
        return self.down_until >= self.now

    def filter_edges(self, edges: np.ndarray,
                     positions: np.ndarray) -> np.ndarray:
        """Remove links touching down nodes or crossing an active cut."""
        if edges.size:
            down = self.down_mask()
            if np.any(down):
                edges = edges[~(down[edges[:, 0]] | down[edges[:, 1]])]
        for i in self._active_cuts:
            if edges.size == 0:
                break
            ep = self.episodes[i]
            side = positions @ ep.normal() > ep.offset
            edges = edges[side[edges[:, 0]] == side[edges[:, 1]]]
        return edges

    def loss_model(self, base: LossModel | None) -> LossModel | None:
        """The effective loss model for the current step: the base rate
        plus every active burst's added rate (capped)."""
        extra = sum(
            ep.rate for ep in self.episodes
            if isinstance(ep, LossBurstEpisode) and ep.active(self.now)
        )
        if extra <= 0:
            return base
        return LossModel(rate=min(
            (base.rate if base is not None else 0.0) + extra, MAX_HOP_LOSS))


# -- CLI episode grammar -----------------------------------------------------

_EPISODE_KEYS = {
    "crash": {"start", "duration", "rate", "nodes", "count", "repair",
              "targets"},
    "partition": {"start", "duration", "angle", "offset"},
    "burst": {"start", "duration", "rate"},
}


def parse_episode(spec: str) -> Episode:
    """Parse one ``kind:key=value,...`` episode spec (the ``--chaos``
    CLI grammar; see docs/ROBUSTNESS.md).

    Examples::

        crash:start=10,duration=5,rate=0.02,repair=15
        crash:start=20,duration=1,count=3,targets=clusterheads
        crash:start=20,duration=1,nodes=4+17+32
        partition:start=30,duration=20,angle=1.57,offset=0
        burst:start=5,duration=10,rate=0.3
    """
    kind, _, body = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in _EPISODE_KEYS:
        raise ValueError(
            f"unknown episode kind {kind!r} in {spec!r} — expected "
            "crash:, partition:, or burst:"
        )
    kwargs: dict = {}
    for item in filter(None, (s.strip() for s in body.split(","))):
        key, sep, value = item.partition("=")
        key = key.strip().lower()
        if not sep or key not in _EPISODE_KEYS[kind]:
            allowed = ", ".join(sorted(_EPISODE_KEYS[kind]))
            raise ValueError(
                f"bad {kind} episode field {item!r} in {spec!r} — "
                f"expected key=value with key in: {allowed}"
            )
        try:
            if key == "nodes":
                kwargs["nodes"] = tuple(
                    int(v) for v in value.split("+") if v
                )
            elif key == "count":
                kwargs["count"] = int(value)
            elif key == "targets":
                kwargs["targets"] = value
            elif key == "repair":
                kwargs["repair_time"] = float(value)
            else:
                kwargs[key] = float(value)
        except ValueError as exc:
            raise ValueError(
                f"bad value for {key!r} in episode spec {spec!r}: {exc}"
            ) from None
    cls = {
        "crash": CrashEpisode,
        "partition": PartitionEpisode,
        "burst": LossBurstEpisode,
    }[kind]
    return cls(**kwargs)
