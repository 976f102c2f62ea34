"""EXP-A9 (extension) — end-to-end session success on the full stack.

The system-level number every component experiment feeds: a node opens
a session to a peer known only by ID.  One delivery is

1. **resolve** — a CHLM query for the destination's hierarchical
   address (probing servers level by level, §3.2) against the
   *previous* step's LM database, the one-update-round lag a real
   network pays;
2. **forward** — hop-by-hop strict hierarchical forwarding (§2.1) on
   the current topology using the *resolved* (possibly stale) address,
   not oracle knowledge.

The sessions ride the :class:`~repro.sim.engine.Simulator` as a
:class:`SessionCollector`, so the stack under them is the one every
other experiment meters.  The experiment sweeps node speed and reports
delivery rate, stale-address rate, and the per-session cost split
(query packets vs data hops).

This is the claim the paper's conclusion gestures at — a complete,
IP-like service whose total control load scales polylogarithmically —
demonstrated as a working application rather than a bound.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.analysis import levels_for
from repro.core import resolve_batch
from repro.experiments.common import ExperimentResult
from repro.graphs import CompactGraph
from repro.routing import ForwardingFabric
from repro.sim import Scenario, Simulator
from repro.sim.collectors import Collector
from repro.sim.engine import RNG_STREAMS
from repro.sim.rng import spawn_rngs

__all__ = ["Session", "SessionCollector", "run"]


class Session(NamedTuple):
    """Outcome of one session attempt."""

    source: int
    target: int
    resolved: bool
    delivered: bool
    stale_address: bool
    """The resolved address differs from the target's current one (the
    database lagged the topology)."""
    query_packets: int
    data_hops: int
    """Hops the data travelled; 0 unless the session delivered."""


class SessionCollector(Collector):
    """Opens ``per_step`` sessions between random node pairs each metered
    step and records how each one fared.

    Pairs come from a "sessions" stream spawned after the engine's own
    (:data:`~repro.sim.engine.RNG_STREAMS`), so adding the collector
    moves no engine draw; self-pairs are skipped.  A step's sessions
    resolve in one batch against the database the previous step left
    (its hierarchy and effective assignment, held by reference: the
    handoff engine copies any array it patches), then forward on a
    fabric built for the step's topology.
    """

    name = "sessions"

    def __init__(self, per_step: int = 8):
        if per_step < 1:
            raise ValueError(f"per_step must be >= 1, got {per_step!r}")
        self.per_step = per_step
        self.sessions: list[Session] = []
        """Every session opened, in order."""
        self._rng = None
        self._db = None

    def on_start(self, snap) -> None:
        """Spawn the session stream and take the baseline as the first
        queryable database."""
        self._rng = spawn_rngs(
            snap.scenario.seed, [*RNG_STREAMS, "sessions"])["sessions"]
        self._db = (snap.hierarchy, snap.assignment)

    def on_step(self, snap) -> None:
        """Resolve and forward this step's sessions, then make this step's
        state the database the next step queries."""
        sc, h = snap.scenario, snap.hierarchy
        fabric = ForwardingFabric(h, CompactGraph(np.arange(sc.n), snap.edges))
        pairs = self._rng.integers(0, sc.n, size=(self.per_step, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        db_h, db_a = self._db
        q = resolve_batch(db_h, db_a, pairs[:, 0], pairs[:, 1], snap.hop_fn)
        for i, (s, d) in enumerate(pairs.tolist()):
            packets = int(q.packets[i])
            if q.hit_level[i] < 0:
                self.sessions.append(
                    Session(s, d, False, False, False, packets, 0))
                continue
            address = db_h.address(d)
            res = fabric.forward(s, d, address=address)
            self.sessions.append(Session(
                s, d, True, res.delivered, address != h.address(d),
                packets, res.hops if res.delivered else 0,
            ))
        self._db = (h, snap.assignment)

    def finalize(self, elapsed: float) -> dict:
        """Session rates and mean costs, under ``extras["sessions"]``."""
        sessions = self.sessions
        total = max(len(sessions), 1)
        hops = [s.data_hops for s in sessions if s.delivered]
        return {"sessions": {
            "delivered": len(hops) / total,
            "resolved": sum(s.resolved for s in sessions) / total,
            "stale": sum(s.stale_address for s in sessions) / total,
            "query_pkts": (float(np.mean([s.query_packets for s in sessions]))
                           if sessions else 0.0),
            "data_hops": float(np.mean(hops)) if hops else 0.0,
        }}


def _sessions(n: int, speed: float, steps: int, seed: int) -> dict:
    sc = Scenario(n=n, speed=speed, steps=steps, warmup=10, seed=seed,
                  max_levels=levels_for(n), hop_mode="euclidean",
                  hop_sample_every=10_000)
    res = Simulator(sc, collectors=[SessionCollector()]).run()
    return res.extras["sessions"]


def run(quick: bool = True, seeds=(0, 1)) -> ExperimentResult:
    """Run this experiment; returns the printable table (see module docstring)."""
    n = 300 if quick else 800
    steps = 15 if quick else 40
    speeds = (0.5, 1.0, 2.0, 4.0)

    result = ExperimentResult(
        exp_id="EXP-A9",
        title="Extension: end-to-end session success on the full stack",
        columns=["speed (m/s)", "delivered", "resolved", "stale addr",
                 "query pkts", "data hops"],
    )
    for mu in speeds:
        runs = [_sessions(n, mu, steps, seed) for seed in seeds]
        mean = {k: float(np.mean([r[k] for r in runs])) for k in runs[0]}
        result.add_row(mu, round(mean["delivered"], 3), round(mean["resolved"], 3),
                       round(mean["stale"], 3), round(mean["query_pkts"], 1),
                       round(mean["data_hops"], 1))
    result.add_note(
        "Pipeline per session: CHLM query against a one-round-stale "
        "database, then hop-by-hop forwarding with the *resolved* address "
        "(no oracle).  Delivery should stay high at pedestrian speeds and "
        "degrade gracefully — the working-system form of the paper's "
        "conclusion."
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
