"""The time-stepped MANET simulator.

One step of the pipeline (Section 1.2's model, end to end):

1. mobility advances node positions (random waypoint by default),
2. the unit-disk graph is rebuilt (the cell-grid search,
   :func:`repro.radio.unit_disk.unit_disk_edges`) and diffed against
   the previous step's (:func:`repro.radio.linkevents.link_diff`),
3. the ALCA hierarchy is re-elected recursively (by the run's one
   hierarchy maintainer, :mod:`repro.hierarchy.maintain`),
4. the CHLM handoff engine diffs the two hierarchies, patches or
   recomputes the server assignment (it picks, from the step's level-0
   link churn) and meters packets,
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

import functools
import hashlib
import pickle
import time
from pathlib import Path

import numpy as np

from repro.core.handoff import HandoffEngine
from repro.graphs import CompactGraph
from repro.hierarchy.maintain import HierarchyMaintainer
from repro.mobility import make_model
from repro.radio.linkevents import link_diff
from repro.radio.unit_disk import unit_disk_edges
from repro.sim.hops import BfsHops, EuclideanHops
from repro.sim.metrics import SimResult
from repro.sim.rng import spawn_rngs
from repro.sim.scenario import Scenario
from repro.sim.snapshot import StepSnapshot
from repro.sim.sweep import CODE_VERSION, write_pickle

__all__ = ["Simulator", "run_scenario"]

RNG_STREAMS = ("placement", "mobility", "sampling", "failures", "faults",
               "queries", "chaos")
"""The engine's named RNG streams, in spawn order.  "faults", "queries"
and "chaos" were appended in that order: ``SeedSequence.spawn`` is
prefix-stable, so pre-existing scenarios replay bit-identically, and a
caller-side collector may spawn its own stream after these.  Nothing
draws from "failures" any more; it keeps its position because spawn
assigns child seeds by index, and removing it would reseed every stream
after it."""

# SimResult fields a collector's finalize() dict may populate; anything
# else a collector returns is routed to SimResult.extras.
_RESULT_FIELDS = frozenset({
    "ledger", "f0", "level_series", "state_stats", "h_network", "h_levels",
    "mean_degree", "giant_fraction", "queries",
})

CHECKPOINT_MAGIC = b"repro-checkpoint"
"""First word of every checkpoint file's header line."""


@functools.cache
def code_stamp() -> str:
    """``CODE_VERSION`` plus a sha256 over the ``repro`` package's
    ``.py`` sources (each file's package-relative path, then its
    bytes), worked out once per process.

    Every checkpoint header carries the stamp of the code that wrote
    it, and only code with the same stamp resumes it: "same code" is
    the one rule under which a resumed run provably equals an
    uninterrupted one, and no number has to be bumped by hand for it.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix()
                      for p in root.rglob("*.py")):
        digest.update(rel.encode() + b"\0" + (root / rel).read_bytes())
    return f"{CODE_VERSION}+{digest.hexdigest()}"


def _checkpoint_header() -> bytes:
    return CHECKPOINT_MAGIC + b" " + code_stamp().encode() + b"\n"


class Simulator:
    """Executes one :class:`~repro.sim.scenario.Scenario`.

    The engine owns the stepping plane only; every metric is produced by
    a collector (:mod:`repro.sim.collectors`).  ``collectors=`` appends
    custom collectors after the scenario's default set — each sees every
    metered step exactly once and contributes to the result via
    ``finalize()`` (unknown keys land in ``SimResult.extras``).

    One stepping path: a fresh unit-disk graph, and a CHLM assignment
    the handoff engine patches or recomputes each step from the step's
    level-0 link diff — a choice of plan, never of result.

    Every setting of the run lives on the scenario (the hop-sampling
    cadence included); ``profile=True`` meters phase wall-clock times,
    and ``collectors=[TraceCollector()]`` records the event trace.
    """

    def __init__(self, scenario: Scenario, *, profile: bool = False,
                 collectors: list | None = None):
        self.sc = scenario
        # Phase timers (repro.obs): wall-clock only, never an RNG stream,
        # so a profiled run replays bit-identically.  Imported lazily to
        # keep the engine importable while repro.obs initializes.
        self.timings = None
        if profile:
            from repro.obs.timers import StepTimings

            self.timings = StepTimings()
        rngs = spawn_rngs(scenario.seed, RNG_STREAMS)
        from repro.faults import ChaosEngine, DeliveryEngine

        # Fault episodes (repro.faults.chaos): crash/recover, targeted
        # kills, partitions, burst loss.  With none scheduled the engine
        # is never built and the pipeline is bit-identical to the
        # chaos-free simulator.
        self._chaos = None
        if scenario.chaos:
            self._chaos = ChaosEngine(scenario.n, scenario.chaos,
                                      rngs["chaos"])
        # Lossy control plane (EXP-A10): built when the scenario asks
        # for loss — or schedules burst-loss windows — so lossless runs
        # never touch the fault path.
        self._delivery = None
        self._base_loss = None
        if scenario.faults_enabled:
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
        # The one hierarchy maintainer of the run (repro.hierarchy.maintain);
        # it consumes no RNG stream (the oracle in
        # tests/sim/stepping_oracle.py steps with full reassignments,
        # bit-identically).
        self._maintainer = HierarchyMaintainer(
            scenario.n, scenario.r_tx,
            max_levels=scenario.max_levels,
            level_mode=scenario.level_mode,
            election_mode=scenario.election_mode,
        )
        self._r_tx = scenario.r_tx
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
        )

        sc = self.sc
        out: list = [
            LedgerCollector(n_nodes=sc.n),
            LinkEventCollector(n=sc.n),
        ]
        if sc.queries_per_step > 0:
            out.append(QueryCollector(rngs["queries"], delivery=self._delivery))
        out.append(StateCollector())
        out.append(LevelSeriesCollector())
        out.append(HopSampleCollector(rngs["sampling"], sc.hop_sample_every))
        if sc.resolved_invariant_mode != "off":
            from repro.sim.collectors import ChaosCollector

            query_ledgers = [c.ledger for c in out
                             if isinstance(c, QueryCollector)]
            out.append(ChaosCollector(
                sc.chaos,
                mode=sc.resolved_invariant_mode,
                ledger=query_ledgers[0] if query_ledgers else None,
            ))
        return out

    # -- helpers ------------------------------------------------------------------

    def _edges(self, positions: np.ndarray) -> np.ndarray:
        """Unit-disk edges plus chaos filtering (crashed nodes and
        partition-severed links removed)."""
        edges = unit_disk_edges(positions, self._r_tx)
        if self._chaos is not None:
            edges = self._chaos.filter_edges(edges, positions)
        return edges

    def _hop_fn(self, positions: np.ndarray, edges: np.ndarray):
        if self.sc.resolved_hop_mode == "bfs":
            return BfsHops(CompactGraph(
                np.arange(self.sc.n, dtype=np.int32), edges))
        return EuclideanHops(positions, self.sc.r_tx)

    # -- pipeline phases ----------------------------------------------------------

    def _start(self, mark=None) -> None:
        """Warmup mobility, then freeze the unmetered baseline snapshot
        and dispatch it to every collector's ``on_start``."""
        sc = self.sc
        for _ in range(sc.warmup):
            self.model.step(sc.dt)
        positions = self.model.positions.copy()
        edges = self._edges(positions)
        hierarchy = self._maintainer.update(edges, positions)
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
        edges = self._edges(positions)
        # The step's one level-0 diff, against the edges the previous
        # hierarchy was built on.
        diff = link_diff(self._prev_hierarchy.levels[0].edges, edges, sc.n)
        if mark is not None:
            mark("rebuild")
        hierarchy = self._maintainer.update(edges, positions)
        if mark is not None:
            mark("hierarchy")
        hop_fn = self._hop_fn(positions, edges)
        report = self._engine.observe(hierarchy, hop_fn, links=diff)
        if sc.faults_enabled:
            report, stayed = self._delivery.handoff(
                report, self._engine.assignment, (step + 1) * sc.dt)
            self._engine.hold(stayed)
        snap = StepSnapshot(
            t=(step + 1) * sc.dt, step=step, positions=positions,
            edges=edges, hierarchy=hierarchy,
            prev_hierarchy=self._prev_hierarchy, report=report,
            hop_fn=hop_fn, scenario=sc, assignment=self._engine.assignment,
            down=None if self._chaos is None else self._chaos.down_mask(),
            link_diff=diff,
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
            timings.note_peak_rss()
        return self._assemble()

    # -- checkpoint / resume -------------------------------------------------------

    def checkpoint(self, path) -> Path:
        """Write this simulator to ``path`` atomically; returns the path.

        The file is one header line — :data:`CHECKPOINT_MAGIC` and this
        code's :func:`code_stamp` — then one pickle of the simulator
        itself, so all of its state comes back, and references shared
        inside it (the delivery engine a query collector also holds)
        stay shared.  It is written through
        :func:`~repro.sim.sweep.write_pickle`, so an interrupted write
        leaves the previous checkpoint intact.
        """
        return write_pickle(path, self, header=_checkpoint_header())

    @classmethod
    def restore(cls, path) -> "Simulator":
        """The simulator a :meth:`checkpoint` file holds, ready to
        :meth:`run` on from the step it was written at; the resumed run
        yields the uninterrupted run's result.

        The header is compared before anything is unpickled: a file
        with another stamp, a checkpoint from before stamps, or junk
        raises ``ValueError`` naming both stamps and the file, and its
        payload never runs.
        """
        want = _checkpoint_header()
        with Path(path).open("rb") as fh:
            got = fh.readline(256)
            if got != want:
                prefix = CHECKPOINT_MAGIC + b" "
                theirs = (got[len(prefix):].strip().decode("ascii", "replace")
                          if got.startswith(prefix) else "(none)")
                raise ValueError(
                    f"checkpoint stamp {theirs} != {code_stamp()}: only the "
                    f"code that wrote a checkpoint resumes it (stale file: "
                    f"{path})"
                )
            return pickle.load(fh)


def run_scenario(scenario: Scenario, *, profile: bool = False) -> SimResult:
    """Convenience wrapper: build a simulator and run it.

    ``profile=True`` attaches per-phase wall-clock timings
    (:class:`repro.obs.StepTimings`) to ``result.timings`` — metrics
    stay bit-identical either way.
    """
    return Simulator(scenario, profile=profile).run()
