"""The time-stepped MANET simulator.

One step of the pipeline (Section 1.2's model, end to end):

1. mobility advances node positions (random waypoint by default),
2. the unit-disk graph is rebuilt (a Verlet candidate cache over the
   k-d tree, :mod:`repro.radio.edge_cache`),
3. the ALCA hierarchy is re-elected recursively (by the run's one
   hierarchy stepper, :mod:`repro.hierarchy.stepper`),
4. the CHLM handoff engine patches or recomputes the server assignment
   (:func:`~repro.core.servers.patch_pays` picks), diffs it and meters
   packets,
5. the step's outputs are frozen into a
   :class:`~repro.sim.snapshot.StepSnapshot` and dispatched to the
   registered collectors (:mod:`repro.sim.collectors`), which record
   link events (f_0, g_k), ALCA states (p_j), level shapes (alpha_k,
   |E_k|), sampled hop counts (h, h_k), traces, and queries.

Warmup steps run mobility only, letting the RWP spatial distribution mix
before metering starts.  The stepping plane (phases 1-4) and the
measurement plane (collectors) are fully decoupled: custom metrics are
added by registering collectors, never by editing this loop — see
docs/ARCHITECTURE.md.

Long runs can be checkpointed (:meth:`Simulator.checkpoint`) and resumed
(:meth:`Simulator.restore`); a resumed run produces a result identical
to an uninterrupted one with the same seed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.handoff import HandoffEngine
from repro.core.servers import patch_pays
from repro.graphs import CompactGraph
from repro.hierarchy.delta import compute_delta
from repro.hierarchy.stepper import hierarchy_stepper
from repro.mobility import make_model
from repro.radio.edge_cache import VerletEdgeCache
from repro.radio.linkevents import link_diff
from repro.sim.checkpoint import SimCheckpoint
from repro.sim.hops import BfsHops, EuclideanHops
from repro.sim.metrics import SimResult
from repro.sim.rng import spawn_rngs
from repro.sim.scenario import Scenario
from repro.sim.snapshot import StepSnapshot

__all__ = ["Simulator", "run_scenario"]

TRACE_CAPACITY = 50_000
"""Events a ``trace=True`` run keeps; older ones are evicted (and
counted in ``EventTrace.dropped``)."""

RNG_STREAMS = ("placement", "mobility", "sampling", "failures", "faults",
               "queries", "chaos")
"""The engine's named RNG streams, in spawn order.  "faults", "queries"
and "chaos" were appended in that order: ``SeedSequence.spawn`` is
prefix-stable, so pre-existing scenarios replay bit-identically, and a
caller-side collector may spawn its own stream after these."""

# SimResult fields a collector's finalize() dict may populate; anything
# else a collector returns is routed to SimResult.extras.
_RESULT_FIELDS = frozenset({
    "ledger", "f0", "level_series", "state_stats", "h_network", "h_levels",
    "mean_degree", "giant_fraction", "trace", "queries",
})


class Simulator:
    """Executes one :class:`~repro.sim.scenario.Scenario`.

    The engine owns the stepping plane only; every metric is produced by
    a collector (:mod:`repro.sim.collectors`).  ``collectors=`` appends
    custom collectors after the scenario's default set — each sees every
    metered step exactly once and contributes to the result via
    ``finalize()`` (unknown keys land in ``SimResult.extras``).

    One stepping path: Verlet-cached edges, and a CHLM assignment each
    step patches or recomputes as :func:`~repro.core.servers.patch_pays`
    picks — a choice of plan, never of result.

    Every setting of the run lives on the scenario (the hop-sampling
    cadence included); ``trace=True`` records an
    :class:`~repro.sim.trace.EventTrace` of the last
    :data:`TRACE_CAPACITY` events, and ``profile=True`` meters phase
    wall-clock times.
    """

    def __init__(self, scenario: Scenario, *, trace: bool = False,
                 profile: bool = False, collectors: list | None = None):
        self.sc = scenario
        self.trace = None
        if trace:
            from repro.sim.trace import EventTrace

            self.trace = EventTrace(capacity=TRACE_CAPACITY)
        # Phase timers (repro.obs): wall-clock only, never an RNG stream,
        # so a profiled run replays bit-identically.  Imported lazily to
        # keep the engine importable while repro.obs initializes.
        self.timings = None
        if profile:
            from repro.obs.timers import StepTimings

            self.timings = StepTimings()
        rngs = spawn_rngs(scenario.seed, RNG_STREAMS)
        # Fault schedule (repro.faults.chaos): crash/recover, targeted
        # kills, partitions, burst loss.  The legacy failure_rate field
        # rides the same engine as a whole-run episode on the historical
        # "failures" stream; with no fault injection at all the engine
        # is never built and the pipeline is bit-identical to the
        # chaos-free simulator.
        schedule = scenario.fault_schedule()
        self._chaos = None
        if schedule:
            from repro.faults import ChaosEngine

            self._chaos = ChaosEngine(
                scenario.n, schedule, rngs["chaos"],
                legacy_rng=rngs["failures"],
            )
        # Lossy control plane (EXP-A10): built when the scenario asks
        # for loss — or schedules burst-loss windows — so lossless runs
        # never touch the fault path.
        self._delivery = None
        self._base_loss = None
        if scenario.faults_enabled or schedule.needs_delivery:
            from repro.faults import DeliveryEngine

            self._base_loss = scenario.loss_model()
            self._delivery = DeliveryEngine(
                loss=self._base_loss,
                retry=scenario.retry_policy(),
                rng=rngs["faults"],
            )
        # The mobility model also owns initial placement; hand it the
        # placement stream first so placement is independent of stepping.
        self.model = make_model(
            scenario.mobility,
            scenario.n,
            scenario.region,
            scenario.speed,
            rngs["mobility"],
            **scenario.mobility_kwargs,
        )
        # The one hierarchy stepper of the run (repro.hierarchy.stepper)
        # and the Verlet edge cache feeding it; neither consumes an RNG
        # stream (the oracle in tests/sim/stepping_oracle.py steps with
        # plain k-d edges and full reassignments, bit-identically).
        self._stepper = hierarchy_stepper(
            scenario.n, scenario.r_tx,
            max_levels=scenario.max_levels,
            level_mode=scenario.level_mode,
            election_mode=scenario.election_mode,
        )
        self._edge_cache = VerletEdgeCache(scenario.r_tx)
        self._engine = HandoffEngine()
        self._collectors = self._default_collectors(rngs)
        if collectors:
            self._collectors.extend(collectors)
        self._prev_hierarchy = None
        self._started = False
        self._next_step = 0

    @property
    def next_step(self) -> int:
        """Index of the next metered step to run (0 for a fresh run).

        After :meth:`restore` this reports where the interrupted run
        left off; once :meth:`run` returns it equals ``scenario.steps``.
        """
        return self._next_step

    def _default_collectors(self, rngs: dict) -> list:
        """Build the scenario's default measurement plane.

        Dispatch order is stable but immaterial for determinism: the two
        RNG-consuming collectors (queries, hop sampling) each own a
        dedicated stream.
        """
        from repro.sim.collectors import (
            HopSampleCollector,
            LedgerCollector,
            LevelSeriesCollector,
            LinkEventCollector,
            QueryCollector,
            StateCollector,
            TraceCollector,
        )

        sc = self.sc
        out: list = [
            LedgerCollector(n_nodes=sc.n),
            LinkEventCollector(n=sc.n),
        ]
        if sc.queries_per_step > 0:
            out.append(QueryCollector(rngs["queries"], delivery=self._delivery))
        out.append(StateCollector())
        if self.trace is not None:
            out.append(TraceCollector(self.trace))
        out.append(LevelSeriesCollector())
        out.append(HopSampleCollector(rngs["sampling"], sc.hop_sample_every))
        if sc.resolved_invariant_mode != "off":
            from repro.sim.collectors import ChaosCollector

            query_ledgers = [c.ledger for c in out
                             if isinstance(c, QueryCollector)]
            out.append(ChaosCollector(
                self._chaos.schedule if self._chaos else None,
                mode=sc.resolved_invariant_mode,
                ledger=query_ledgers[0] if query_ledgers else None,
            ))
        return out

    # -- helpers ------------------------------------------------------------------

    def _edges(self, positions: np.ndarray):
        """Unit-disk edges from the Verlet cache plus chaos filtering
        (crashed nodes and partition-severed links removed).

        Returns ``(edges, diff)``: the cache's free one-step
        :class:`~repro.radio.linkevents.LinkDiff` rides along — dropped
        (``None``) when there is none or chaos filtering rewrites the
        edge set after the cache, and the step then merges its own.
        """
        edges, diff = self._edge_cache.edges_with_diff(positions)
        if self._chaos is not None:
            edges = self._chaos.filter_edges(edges, positions)
            diff = None
        return edges, diff

    def _delta(self, hierarchy, diff):
        """The step's :class:`~repro.hierarchy.delta.HierarchyDelta` when
        :func:`~repro.core.servers.patch_pays` says patching the CHLM
        assignment pays at this size and level-0 link churn; ``None``
        (reassign every server) otherwise."""
        prev = self._prev_hierarchy
        churn = diff.n_events / max(len(prev.levels[0].edges), 1)
        if not patch_pays(self.sc.n, churn):
            return None
        return compute_delta(prev, hierarchy)

    def _hop_fn(self, positions: np.ndarray, edges: np.ndarray):
        if self.sc.resolved_hop_mode == "bfs":
            return BfsHops(CompactGraph(np.arange(self.sc.n), edges))
        return EuclideanHops(positions, self.sc.r_tx)

    # -- pipeline phases ----------------------------------------------------------

    def _start(self, mark=None) -> None:
        """Warmup mobility, then freeze the unmetered baseline snapshot
        and dispatch it to every collector's ``on_start``."""
        sc = self.sc
        for _ in range(sc.warmup):
            self.model.step(sc.dt)
        positions = self.model.positions.copy()
        edges, _ = self._edges(positions)
        hierarchy = self._stepper(edges, positions)
        hop_fn = self._hop_fn(positions, edges)
        self._engine.observe(hierarchy, hop_fn)
        snap = StepSnapshot(
            t=0.0, step=-1, positions=positions, edges=edges,
            hierarchy=hierarchy, prev_hierarchy=None, report=None,
            hop_fn=hop_fn, scenario=sc, assignment=self._engine.assignment,
            down=None if self._chaos is None else self._chaos.down_mask(),
        )
        for c in self._collectors:
            c.on_start(snap)
        self._prev_hierarchy = hierarchy
        self._started = True
        if mark is not None:
            mark("setup")

    def _run_step(self, step: int, mark=None) -> None:
        """Advance one metered step through the phase pipeline, then
        dispatch its snapshot to the collectors."""
        sc = self.sc
        self.model.step(sc.dt)
        if self._chaos is not None:
            # Clock first, then sampling (the historical ordering);
            # clusterhead targeting reads the previous step's hierarchy
            # — the heads the network currently depends on.
            self._chaos.advance(sc.dt, self._prev_hierarchy)
            if self._delivery is not None:
                self._delivery.loss = self._chaos.loss_model(self._base_loss)
        positions = self.model.positions.copy()
        if mark is not None:
            mark("mobility")
        edges, diff = self._edges(positions)
        if diff is None:
            # The step's one level-0 diff: a key merge against the edges
            # the previous hierarchy was built on.
            diff = link_diff(self._prev_hierarchy.levels[0].edges, edges, sc.n)
        if mark is not None:
            mark("rebuild")
        hierarchy = self._stepper(edges, positions)
        if mark is not None:
            mark("hierarchy")
        # Metered on every step (near zero on full-reassignment steps)
        # so profiled runs always report the full canonical phase set.
        delta = self._delta(hierarchy, diff)
        if mark is not None:
            mark("delta")
        hop_fn = self._hop_fn(positions, edges)
        report = self._engine.observe(
            hierarchy, hop_fn,
            delivery=self._delivery, now=(step + 1) * sc.dt,
            delta=delta,
        )
        snap = StepSnapshot(
            t=(step + 1) * sc.dt, step=step, positions=positions,
            edges=edges, hierarchy=hierarchy,
            prev_hierarchy=self._prev_hierarchy, report=report,
            hop_fn=hop_fn, scenario=sc, assignment=self._engine.assignment,
            down=None if self._chaos is None else self._chaos.down_mask(),
            delta=delta, link_diff=diff,
        )
        if mark is not None:
            mark("handoff")
        if mark is None:
            for c in self._collectors:
                c.on_step(snap)
        else:
            for c in self._collectors:
                c.on_step(snap)
                mark(c.phase)
        self._prev_hierarchy = hierarchy

    def _assemble(self) -> SimResult:
        """Collect every collector's ``finalize()`` output into one
        :class:`~repro.sim.metrics.SimResult`."""
        sc = self.sc
        elapsed = sc.steps * sc.dt
        merged: dict = {}
        extras: dict = {}
        for c in self._collectors:
            out = c.finalize(elapsed)
            if isinstance(out, dict):
                for key, value in out.items():
                    if key in _RESULT_FIELDS:
                        merged[key] = value
                    else:
                        extras[key] = value
            elif out is not None:
                extras[getattr(c, "name", type(c).__name__)] = out
        return SimResult(
            scenario=sc,
            elapsed=elapsed,
            final_positions=self.model.positions.copy(),
            timings=self.timings,
            extras=extras,
            **merged,
        )

    # -- main loop -----------------------------------------------------------------

    def run(self, checkpoint_every: int | None = None,
            checkpoint_path=None) -> SimResult:
        """Execute warmup then the metered loop; return all collected metrics.

        When the simulator was built with ``profile=True``, each pipeline
        phase is metered into ``self.timings`` with :func:`time.perf_counter`
        between phase boundaries — pure wall-clock observation, so every
        metric series stays bit-identical to an unprofiled run.

        ``checkpoint_path`` enables periodic checkpointing: the full run
        state is written (atomically) to that path every
        ``checkpoint_every`` metered steps (default 25).  A crashed run
        resumes via :meth:`restore`; the resumed result is identical to
        an uninterrupted run.  On a simulator built by :meth:`restore`,
        ``run()`` continues from the checkpointed step.
        """
        sc = self.sc
        timings = self.timings
        mark = None
        if timings is not None:
            t_wall = t_last = time.perf_counter()

            def mark(phase: str) -> None:
                nonlocal t_last
                now = time.perf_counter()
                timings.add(phase, now - t_last)
                t_last = now

        every = None
        if checkpoint_path is not None:
            every = 25 if checkpoint_every is None else int(checkpoint_every)
            if every < 1:
                raise ValueError("checkpoint_every must be >= 1")
        elif checkpoint_every is not None:
            raise ValueError("checkpoint_every requires checkpoint_path")

        if not self._started:
            self._start(mark)
        for step in range(self._next_step, sc.steps):
            self._run_step(step, mark)
            self._next_step = step + 1
            if timings is not None:
                timings.tick_step()
            if every is not None and self._next_step < sc.steps \
                    and self._next_step % every == 0:
                self.checkpoint(checkpoint_path)
                if timings is not None:
                    # Checkpoint I/O is not a pipeline phase; restart the
                    # chain so it is not charged to the next "mobility".
                    t_last = time.perf_counter()
        if timings is not None:
            timings.wall_seconds += time.perf_counter() - t_wall
        return self._assemble()

    # -- checkpoint / resume -------------------------------------------------------

    def checkpoint(self, path=None) -> SimCheckpoint:
        """Freeze the full mid-run state into a
        :class:`~repro.sim.checkpoint.SimCheckpoint`.

        With ``path``, the checkpoint is also written atomically via
        :func:`repro.persist.save_checkpoint`.  Everything needed for a
        bit-identical continuation is captured: mobility model + RNG,
        handoff/stepper/delivery state, the chaos engine (crash
        deadlines, episode state, and both its RNG streams), and the
        collector objects (with their own RNG streams).
        """
        from repro.sim.sweep import CODE_VERSION

        ck = SimCheckpoint(
            code_version=CODE_VERSION,
            scenario=self.sc,
            next_step=self._next_step,
            started=self._started,
            model=self.model,
            engine=self._engine,
            stepper=self._stepper,
            delivery=self._delivery,
            chaos=self._chaos,
            prev_hierarchy=self._prev_hierarchy,
            collectors=self._collectors,
            edge_cache=self._edge_cache,
            timings=self.timings,
            trace=self.trace,
        )
        if path is not None:
            from repro.persist import save_checkpoint

            save_checkpoint(ck, path)
        return ck

    @classmethod
    def restore(cls, source) -> "Simulator":
        """Rebuild a mid-run simulator from a checkpoint (path or
        :class:`~repro.sim.checkpoint.SimCheckpoint` object).

        The returned simulator continues exactly where the checkpoint
        was taken: calling :meth:`run` yields a result identical to the
        uninterrupted run.  Checkpoints from a different
        :data:`~repro.sim.sweep.CODE_VERSION` are rejected.
        """
        if isinstance(source, SimCheckpoint):
            from repro.sim.sweep import CODE_VERSION

            ck = source
            if ck.code_version != CODE_VERSION:
                raise ValueError(
                    f"checkpoint was written by simulator version "
                    f"{ck.code_version!r}, this is {CODE_VERSION!r} — a "
                    "resumed run would not match an uninterrupted one"
                )
        else:
            from repro.persist import load_checkpoint

            ck = load_checkpoint(source)
        sim = cls.__new__(cls)
        sim.sc = ck.scenario
        sim.trace = ck.trace
        sim.timings = ck.timings
        sim._delivery = ck.delivery
        sim._chaos = ck.chaos
        # Derived from the scenario, not checkpointed state.
        sim._base_loss = (
            ck.scenario.loss_model() if ck.delivery is not None else None
        )
        sim.model = ck.model
        sim._stepper = ck.stepper
        sim._engine = ck.engine
        sim._collectors = list(ck.collectors)
        sim._prev_hierarchy = ck.prev_hierarchy
        sim._started = ck.started
        sim._next_step = ck.next_step
        sim._edge_cache = ck.edge_cache
        return sim


def run_scenario(scenario: Scenario, *, profile: bool = False) -> SimResult:
    """Convenience wrapper: build a simulator and run it.

    ``profile=True`` attaches per-phase wall-clock timings
    (:class:`repro.obs.StepTimings`) to ``result.timings`` — metrics
    stay bit-identical either way.
    """
    return Simulator(scenario, profile=profile).run()
