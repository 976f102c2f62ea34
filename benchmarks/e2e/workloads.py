"""The four benchmark workloads: their inputs and how one repetition runs.

Everything here drives the simulator through its public entry points
only (``Scenario``, ``Simulator``, ``run_sweep``, ``levels_for``).  Why
each workload exists is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import shutil
import time
from enum import Enum

import numpy as np

from repro.analysis import levels_for
from repro.sim import Scenario, Simulator, run_sweep

PLANE_FLAG = "incremental_hierarchy"
# One repetition averages this many independently seeded scenarios where
# the network is small: at n <= 1000 the handoff rate of a single seed
# varies by +-12 % (topology realisation, not step count), which would
# read as run-to-run spread when the driver changes --seed.
SUBSEEDS = 64


def subseed(seed: int, j: int) -> int:
    return seed * SUBSEEDS + j


class Inputs:
    """Scenario construction with API-drift tolerance: optional fields
    the ``Scenario`` dataclass no longer has are dropped and recorded,
    so the benchmark keeps running unedited after planned deletions."""

    def __init__(self):
        self.known = {f.name for f in dataclasses.fields(Scenario)}
        self.dropped: set[str] = set()

    def scenario(self, n: int, steps: int, seed: int, **optional) -> Scenario:
        self.dropped.update(optional.keys() - self.known)
        kept = {k: v for k, v in optional.items() if k in self.known}
        return Scenario(n=n, steps=steps, seed=seed, **kept)

    def event(self, n: int, steps: int, seed: int, **extra) -> Scenario:
        """The slow-mobility regime on the event-driven plane (on the
        only plane once the flag is gone)."""
        return self.scenario(
            n, steps, seed, speed=1.0, max_levels=levels_for(n),
            hop_mode="euclidean", hop_sample_every=10_000, warmup=2,
            **{PLANE_FLAG: True, **extra},
        )

    def other_plane(self, scenarios: list) -> list | None:
        """The same scenarios on the other control plane, or ``None``
        when only one plane is left."""
        if PLANE_FLAG not in self.known:
            return None
        return [
            dataclasses.replace(sc, **{PLANE_FLAG: not getattr(sc, PLANE_FLAG)})
            for sc in scenarios
        ]


# -- result digests -------------------------------------------------------------

_SKIPPED_FIELDS = {"scenario", "timings", "trace"}


def _feed(h, obj) -> None:
    """Hash the numeric content of a result structurally, so equal
    numbers give equal digests whatever the object identities are."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, int, float, str, bytes, type(None), np.generic)):
        h.update(f"{type(obj).__name__[0]}{obj!r};".encode())
    elif isinstance(obj, Enum):
        h.update(f"e{obj.name};".encode())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        h.update(b"[")
        for item in items:
            _feed(h, item)
        h.update(b"]")
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.name not in _SKIPPED_FIELDS:
                h.update(f.name.encode())
                _feed(h, getattr(obj, f.name))
    elif hasattr(obj, "__dict__"):
        _feed(h, {k: v for k, v in vars(obj).items() if k not in _SKIPPED_FIELDS})
    else:
        h.update(repr(obj).encode())


def digest(results: list) -> str:
    """sha256 over the numeric fields of every result (scenario and
    timings excluded, so both planes and profiled runs compare equal)."""
    h = hashlib.sha256()
    for res in results:
        _feed(h, res)
    return h.hexdigest()


# -- checks -----------------------------------------------------------------------


class Checks:
    """Counts checks attempted and failed; ``ok_share`` is their ratio."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def results_sane(self, results: list, what: str) -> None:
        """Finite positive handoff rate everywhere; the hierarchy is as
        deep as asked for where the scenario asked."""
        self.check(
            all(np.isfinite(r.handoff_rate) and r.handoff_rate > 0 for r in results),
            f"{what}: handoff_rate finite and > 0",
        )
        capped = [r for r in results if getattr(r.scenario, "max_levels", None)]
        if capped:
            self.check(
                all(max(r.level_series.levels()) == r.scenario.max_levels
                    for r in capped),
                f"{what}: top level equals levels_for(n)",
            )


# -- workloads --------------------------------------------------------------------


def node_steps(scenarios: list) -> int:
    return sum(sc.n * sc.steps for sc in scenarios)


class Workload:
    """What ``run.py`` needs of a workload; subclasses add ``run`` (the
    given scenarios, in this process) and ``rep`` (one timed repetition)."""

    workers = 1        # processes a repetition keeps busy
    min_reps = 3
    other = None       # `warm` on the other control plane, run once
    scale_ref = None   # 10x smaller twin of `timed`, for scale.exp.*

    def __init__(self, name: str, timed: list, count: list, warm: list):
        self.name = name
        self.timed = timed   # one timed repetition
        self.count = count   # the cProfile count input (Trace A)
        self.warm = warm     # run once per set-up pass

    def warm_up(self, checks: Checks) -> str:
        warm = self.run(self.warm)
        checks.results_sane(warm, "warm-up")
        return digest(warm)

    def cross_check(self, checks: Checks, warm_digest: str) -> None:
        if self.other is not None:
            checks.check(digest(self.run(self.other)) == warm_digest,
                         "both planes give the same digest")

    def check_rep(self, rep: dict, checks: Checks) -> None:
        checks.results_sane(rep["results"], "repetition")


class SimWorkload(Workload):
    """Runs a list of scenarios one after the other in this process."""

    def __init__(self, name: str, timed: list, count: list, warm: list,
                 other: list | None, scale_ref: list | None = None,
                 min_reps: int = 3):
        super().__init__(name, timed, count, warm)
        self.other = other
        self.scale_ref = scale_ref
        self.min_reps = min_reps

    def run(self, scenarios: list, profile: bool = False,
            collectors=lambda: None) -> list:
        return [
            Simulator(sc, profile=profile, collectors=collectors()).run()
            for sc in scenarios
        ]

    def rep(self, profile: bool = False, collectors=lambda: None) -> dict:
        t0 = time.perf_counter()
        results = self.run(self.timed, profile, collectors)
        return {"wall": time.perf_counter() - t0, "results": results}


class SweepWorkload(Workload):
    """``run_sweep`` over a grid with a fresh cache, then the same call
    again as a warm replay.  Its cross-checks (cache hits, byte-equal
    pickles) ride on every timed repetition."""

    def __init__(self, name: str, grid: list, count: list, workers: int,
                 work_dir: str):
        super().__init__(name, grid, count, warm=count)
        self.workers = workers
        self.work_dir = work_dir

    def _sweep(self, scenarios, workers, profile=False) -> dict:
        cache_dir = os.path.join(self.work_dir, "sweep-cache")
        shutil.rmtree(cache_dir, ignore_errors=True)
        events: list = []
        t0 = time.perf_counter()
        cold = run_sweep(scenarios, workers=workers, cache_dir=cache_dir,
                         progress=events.append, profile=profile)
        t1 = time.perf_counter()
        warm = run_sweep(scenarios, workers=workers, cache_dir=cache_dir,
                         progress=events.append, profile=profile)
        t2 = time.perf_counter()
        cache_bytes = sum(
            os.path.getsize(os.path.join(cache_dir, f)) for f in os.listdir(cache_dir)
        )
        shutil.rmtree(cache_dir, ignore_errors=True)
        # run_sweep does not wait for its pool's processes; reap them so
        # RUSAGE_CHILDREN is complete and the next repetition starts alone.
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.005)
        return {"wall": t2 - t0, "cold_s": t1 - t0, "warm_s": t2 - t1,
                "results": cold, "warm_results": warm, "events": events,
                "cache_mb": cache_bytes / 2**20}

    def run(self, scenarios: list) -> list:
        """Serial, in-process (``workers=0``): what the count input and
        the set-up passes use, so cProfile sees every call."""
        return self._sweep(scenarios, 0)["results"]

    def rep(self, profile: bool = False, collectors=None) -> dict:
        return self._sweep(self.timed, self.workers, profile)

    def check_rep(self, rep: dict, checks: Checks) -> None:
        super().check_rep(rep, checks)
        hits = sum(1 for p in rep["events"] if p.from_cache)
        checks.check(hits == len(self.timed),
                     f"warm replay is all cache hits ({hits}/{len(self.timed)})")
        dumps = [[pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL) for r in rs]
                 for rs in (rep["results"], rep["warm_results"])]
        checks.check(dumps[0] == dumps[1],
                     "warm results pickle byte-equal to the cold ones")


def sweep_layer_metrics(reps: list, workers: int) -> dict:
    """Where a sweep repetition's wall went, from the progress callback
    (median over the timed repetitions)."""
    rows = []
    for rep in reps:
        ran = [p for p in rep["events"] if not p.from_cache]
        simulate = sum(p.task_seconds for p in ran)
        row = {
            "sweep.simulate_s": simulate,
            "sweep.serialise_s": sum(getattr(p, "ser_seconds", 0.0) for p in ran),
            "sweep.overhead_s": rep["cold_s"] - simulate / max(workers, 1),
            "sweep.warm_replay_s": rep["warm_s"],
            "sweep.cache_mb": rep["cache_mb"],
        }
        for speed, tag in ((1.0, "1mps"), (5.0, "5mps")):
            cell = {True: 0.0, False: 0.0}
            for p in ran:
                if p.scenario.speed == speed:
                    cell[bool(getattr(p.scenario, PLANE_FLAG, True))] += p.task_seconds
            # With one plane left both halves of the grid are that plane
            # and the ratio reads 1.
            row[f"sweep.ratio.event_over_default.{tag}"] = (
                cell[True] / cell[False] if cell[False] > 0 else 1.0
            )
        rows.append(row)
    return {k: float(np.median([r[k] for r in rows])) for k in rows[0]}


def build(name: str, seed: int, quick: bool, inputs: Inputs, work_dir: str):
    """The workload's inputs, as a pure function of ``--seed``.

    ``quick`` shrinks every size for the smoke test (n <= 300)."""
    if name == "steady_default":
        n, k = (200, 2) if quick else (1000, 6)
        count = [inputs.scenario(n, 2, subseed(seed, j)) for j in range(k)]
        return SimWorkload(
            name,
            timed=[inputs.scenario(n, 3 if quick else 5, subseed(seed, j))
                   for j in range(k)],
            count=count, warm=count, other=inputs.other_plane(count),
        )
    if name == "event_slow":
        n = 300 if quick else 10_000
        count = [inputs.event(n, 2, seed)]
        return SimWorkload(
            name,
            timed=[inputs.event(n, 4 if quick else 8, seed)],
            count=count, warm=count, other=inputs.other_plane(count),
        )
    if name == "scale_1e5":
        n = 300 if quick else 100_000
        small = [inputs.event(n // 10, 1, seed)]
        return SimWorkload(
            name,
            timed=[inputs.event(n, 1, seed)],
            count=[inputs.event(n * 3 // 10, 1, seed)],
            warm=small, other=None, scale_ref=small,
            # One repetition outlasts the window; a single 17 s shot spread
            # up to 20 % between runs on this host, so take two.
            min_reps=2,
        )
    if name == "sweep_grid":
        ns = (60, 120) if quick else (300, 600)
        steps, seeds = (3, 2) if quick else (6, 3)

        def grid(steps, ns):
            return [
                inputs.scenario(n, steps, subseed(seed, j), speed=speed, **plane)
                for n in ns
                for plane in ({}, {PLANE_FLAG: True})
                for speed in (1.0, 5.0)
                for j in range(seeds)
            ]

        count = [sc for sc in grid(3, ns[:1]) if getattr(sc, PLANE_FLAG, True)]
        return SweepWorkload(name, grid(steps, ns), count, workers=2,
                             work_dir=work_dir)
    raise ValueError(f"unknown workload {name!r}")
