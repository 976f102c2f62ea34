"""Process-parallel sweep runner with scenario-hash result caching.

Every experiment runs the same outer loop: a grid of
:class:`~repro.sim.scenario.Scenario` specs (sizes x seeds), one
independent simulation per spec.  This module owns that loop at
production scale:

* **Grid expansion** (:func:`expand_grid`) builds the scenario list from
  a base scenario, a size axis, and a seed axis, spawning deterministic
  per-task seeds — the task list is a pure function of its inputs.
* **Parallel execution** (:func:`run_sweep`) fans tasks over a
  ``ProcessPoolExecutor``, streams completions back through a progress
  callback, and returns results in task order — bit-identical to a
  serial loop over the same scenarios (each run is independently
  seeded; no shared mutable state crosses the process boundary).
  It is the one task runner: :func:`sweep_points` averages metrics
  over the seeds of each scenario in its results, and its run-control
  arguments are checked at the call, before any task runs.
* **Crash tolerance**: a worker that raises, dies (``BrokenProcessPool``),
  or exceeds the per-task timeout is retried with exponential backoff up
  to a bounded attempt count; tasks that still fail are reported as
  structured :class:`TaskError` records.  :func:`run_sweep` raises a
  :class:`SweepError` at the *end* of the sweep, carrying the partial
  results alongside the errors (``exc.run``).
* **Result caching**: completed runs are memoized on disk, keyed by a
  stable SHA-256 of the scenario dataclass (the sampling cadence is one
  of its fields) and :data:`CODE_VERSION`.  Re-running an experiment or
  benchmark reuses finished simulations; bump ``CODE_VERSION`` whenever
  simulator semantics change so stale artifacts can never be replayed.

* **Result transport**: a parallel worker pickles its ``SimResult``
  itself and ships the bytes through the executor pipe, so the cost is
  metered (``SweepProgress.ser_seconds``: worker ``dumps`` + parent
  ``loads``).  There is one transport because nothing measured needs a
  second: a 10^5-node result is 1.5 MiB and costs milliseconds to ship
  against seconds to simulate (table in docs/PERFORMANCE.md).

Caching is opt-in (``cache_dir=...`` or ``REPRO_SWEEP_CACHE=1`` for the
default location) so tests and one-off runs stay side-effect free.
Workers default to serial in-process execution unless
``REPRO_SWEEP_WORKERS`` or an explicit ``workers=`` says otherwise —
spawn overhead only pays off on wide grids.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pickle
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.sim.metrics import SimResult, SweepPoint
from repro.sim.scenario import Scenario

__all__ = [
    "CODE_VERSION",
    "SweepProgress",
    "TaskError",
    "SweepRun",
    "SweepError",
    "scenario_key",
    "normalize_for_json",
    "default_cache_dir",
    "expand_grid",
    "run_sweep",
    "sweep_points",
    "print_progress",
]

CODE_VERSION = "8"
"""Simulator-semantics version baked into every cache key (and into the
code stamp of every checkpoint, :func:`repro.sim.engine.code_stamp`).
Bump this whenever a change alters what
:func:`repro.sim.engine.run_scenario` returns for a given scenario; old
cache entries then miss cleanly.

Version 8: the ledger keeps one count table; every number equals version
7's.  A cached version-7 result would still unpickle, with a ledger
that has none of the table's fields.
Version 7: ``state_stats`` counts ALCA transitions between consecutive
snapshots only; a level missing from one snapshot (the hierarchy's depth
dipped for a step) used to be diffed against its election from two
steps back when it returned.  Only runs with such a dip change.
Version 6: persistent-election runs report the right level series
(``drift_link_events`` was 0 and ``link_events`` could collide, because
level link keys were encoded in base n and minted cluster IDs exceed it);
every other scenario returns what version 5 did.
Version 5: the handoff engine iterates candidate keys in sorted order,
which re-orders lossy-channel RNG draws (lossless series unchanged)."""

RETRY_BACKOFF = 0.5
"""Seconds slept before a sweep's first retry round; doubles per round."""


# -- cache keys ---------------------------------------------------------------------


def normalize_for_json(obj):
    """Recursively coerce numpy scalars/arrays to native Python values.

    ``json.dumps(default=str)`` would stringify a ``np.int64(200)`` while
    serializing the equal ``200`` as a number — two different payloads,
    hence two different cache keys for *equal* scenarios (an ``ns`` axis
    built from ``np.arange`` silently missed every cached run).  All
    hashing and manifest serialization goes through this normalizer so
    value equality implies payload equality.
    """
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [normalize_for_json(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {k: normalize_for_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [normalize_for_json(v) for v in obj]
    return obj


def scenario_key(scenario: Scenario, *, profile: bool = False) -> str:
    """Stable SHA-256 cache key for one scenario's run.

    The key covers every scenario field (via a sorted JSON dump of the
    dataclass, numpy values normalized to native types so equal
    scenarios hash equally; the hop-sampling cadence is one of them) and
    :data:`CODE_VERSION` — everything that determines the resulting
    :class:`~repro.sim.metrics.SimResult`.
    """
    spec = normalize_for_json(dataclasses.asdict(scenario))
    payload = {"scenario": spec, "code_version": CODE_VERSION}
    if profile:
        # Profiled results carry StepTimings; give them their own cache
        # entries (the unprofiled payload has no "profile" entry).
        payload["profile"] = True
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweeps"


def _cache_load(path: Path) -> SimResult | None:
    """Load one cached result; *any* failure is a miss, never an error.

    Truncated writes, garbage bytes, and pickles from incompatible code
    versions all raise different exceptions (``EOFError``,
    ``UnpicklingError``, ``UnicodeDecodeError``, ``IndexError``, ...), so
    the net is deliberately wide: a corrupt cache entry must only cost a
    re-run.
    """
    try:
        with path.open("rb") as fh:
            res = pickle.load(fh)
    except Exception:
        return None
    return res if isinstance(res, SimResult) else None


def write_pickle(path: str | Path, obj, header: bytes = b"") -> Path:
    """Pickle ``obj`` to ``path`` atomically, after ``header``; returns
    the path.

    The bytes go to ``<path>.tmp-<pid>`` first and are renamed over
    ``path`` only once complete, so a reader — a concurrent sweep, a
    resume — sees the old file or the new one, never a partial one.  A
    failed or interrupted write (disk full, Ctrl-C) removes its tmp
    file and leaves any earlier ``path`` intact.  The sweep cache and
    :meth:`repro.sim.engine.Simulator.checkpoint` (whose ``header`` is
    its code stamp) both write through it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with tmp.open("wb") as fh:
            fh.write(header)
            pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


# -- grid expansion -----------------------------------------------------------------


def expand_grid(
    base: Scenario,
    ns: Sequence[int] | None = None,
    seeds: Sequence[int] = (0, 1),
    scenario_for: Callable[[Scenario, int], Scenario] | None = None,
) -> list[Scenario]:
    """Expand (sizes x seeds) into a deterministic scenario list.

    For each ``n``: set it on the base, apply the optional
    ``scenario_for`` hook (e.g. log-scaled ``max_levels``), then spawn
    one scenario per seed.
    ``ns=None`` keeps the base size and varies only the seed axis; an
    empty seed axis is refused, since it would expand to no task.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    out: list[Scenario] = []
    for n in [base.n] if ns is None else ns:
        sc_n = replace(base, n=int(n))
        if scenario_for is not None:
            sc_n = scenario_for(sc_n, int(n))
        for seed in seeds:
            out.append(replace(sc_n, seed=int(seed)))
    return out


# -- execution ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepProgress:
    """One completion event, streamed to the progress callback."""

    done: int
    total: int
    cached: int
    scenario: Scenario
    elapsed: float
    """Sweep-total wall seconds since the sweep started (NOT this task's
    duration — that is :attr:`task_seconds`).  The name is historical;
    its meaning is kept for existing callbacks."""
    from_cache: bool
    task_seconds: float = 0.0
    """Wall seconds this task itself took: simulation time for a run,
    load time for a cache hit."""
    worker: int | None = None
    """PID of the worker process that ran the task (``None`` for cache
    hits and in-process serial runs)."""
    attempts: int = 1
    """Attempts this task consumed before succeeding (>1 after retries)."""
    ser_seconds: float = 0.0
    """Wall seconds spent serializing this task's result across the
    process boundary (worker-side pack + parent-side unpack).  Zero for
    cache hits and in-process serial runs, where nothing crosses a
    pipe."""


def print_progress(p: SweepProgress) -> None:
    """Default progress reporter: one stderr line per completed task,
    showing both the task's own duration and the sweep-total clock."""
    tag = "cache" if p.from_cache else "run"
    retry = f" x{p.attempts}" if p.attempts > 1 else ""
    print(
        f"  [{p.done}/{p.total}] n={p.scenario.n} seed={p.scenario.seed} "
        f"({tag}{retry}, {p.task_seconds:.2f}s task, {p.elapsed:.1f}s sweep)",
        file=sys.stderr,
    )


@dataclass(frozen=True)
class TaskError:
    """Structured record of one task that failed after all retries."""

    index: int
    """Position in the input task list."""
    kind: str
    """``"exception"`` (worker raised), ``"crash"`` (worker process
    died), or ``"timeout"`` (exceeded ``task_timeout``)."""
    message: str
    attempts: int
    scenario: Scenario
    """The failed scenario."""


@dataclass
class SweepRun:
    """Full outcome of a fault-tolerant sweep."""

    results: list
    """One entry per input task; ``None`` where the task failed."""
    errors: list[TaskError]
    """Error records for every failed task, in index order."""

    @property
    def ok(self) -> bool:
        return not self.errors


class SweepError(RuntimeError):
    """One or more sweep tasks failed after retries.

    Raised at the *end* of the sweep — every healthy task has completed
    and its result (``self.run.results``) and cache entry survive.
    """

    def __init__(self, run: SweepRun):
        self.run = run
        summary = "; ".join(
            f"task {e.index} ({e.kind} after {e.attempts} attempt(s)): {e.message}"
            for e in run.errors[:3]
        )
        if len(run.errors) > 3:
            summary += f"; ... {len(run.errors) - 3} more"
        super().__init__(f"{len(run.errors)} sweep task(s) failed: {summary}")


@dataclass(frozen=True)
class _TaskOutcome:
    """A worker's result plus its telemetry (never cached or returned:
    :func:`run_sweep` unwraps it before storing).

    From a pool worker, ``result`` is ``None`` and ``packed`` carries
    its pickle bytes for the parent to restore; ``ser_seconds`` holds
    the worker-side ``dumps`` time (the parent adds its ``loads`` time
    before reporting).
    """

    result: SimResult | None
    seconds: float
    worker: int
    ser_seconds: float = 0.0
    packed: bytes | None = None


def _run_task(args: tuple) -> _TaskOutcome:
    """Worker: one simulation (module-level so it pickles).

    The payload is ``(scenario, profile, ckpt_path, ckpt_every,
    prepickle)``.  With a checkpoint path, the worker first tries to
    resume from it — so a task whose previous attempt crashed or timed
    out restarts from its last checkpoint instead of from scratch.  Any
    load failure (missing file, corrupt bytes, another code stamp, wrong
    scenario) falls back to a fresh run; the checkpoint file is removed
    once the run completes.

    ``prepickle`` is set for pool workers: the result is pickled here
    rather than implicitly by the executor, so the cost is metered.  An
    in-process (serial) task returns the object itself.
    """
    from repro.sim.engine import Simulator

    scenario, profile, ckpt_path, ckpt_every, prepickle = args
    t0 = time.perf_counter()
    sim = None
    if ckpt_path is not None:
        try:
            sim = Simulator.restore(ckpt_path)
        except Exception:
            sim = None
        if sim is not None and sim.sc != scenario:
            sim = None
    if sim is None:
        sim = Simulator(scenario, profile=profile)
    if ckpt_path is not None:
        res = sim.run(checkpoint_every=ckpt_every,
                      checkpoint_path=ckpt_path)
        try:
            os.remove(ckpt_path)
        except OSError:
            pass
    else:
        res = sim.run()
    seconds = time.perf_counter() - t0
    if not prepickle:
        return _TaskOutcome(result=res, seconds=seconds, worker=os.getpid())
    t_ser = time.perf_counter()
    packed = pickle.dumps(res, protocol=pickle.HIGHEST_PROTOCOL)
    return _TaskOutcome(
        result=None, seconds=seconds, worker=os.getpid(),
        ser_seconds=time.perf_counter() - t_ser, packed=packed,
    )


def _resolve_workers(workers: int | None, n_tasks: int) -> int:
    if workers is None:
        workers = int(os.environ.get("REPRO_SWEEP_WORKERS", "0"))
    if workers <= 1:
        return 0
    return min(workers, n_tasks)


def _serial_round(fn, tasks: dict, on_result) -> dict[int, tuple[str, str]]:
    """Run one attempt of every task in-process."""
    failed: dict[int, tuple[str, str]] = {}
    for i, payload in tasks.items():
        try:
            res = fn(payload)
        except Exception as exc:
            failed[i] = ("exception", f"{type(exc).__name__}: {exc}")
        else:
            on_result(i, res)
    return failed


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Forcibly terminate every live worker process of ``pool``.

    Used on abnormal exits (round timeout, ``KeyboardInterrupt``): a
    plain ``shutdown(wait=False)`` never signals workers mid-task, so a
    hung or long-running task would orphan its process.
    """
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        proc.terminate()


def _parallel_round(
    fn, tasks: dict, n_workers: int, task_timeout: float | None, on_result
) -> dict[int, tuple[str, str]]:
    """Run one attempt of every task in a fresh process pool.

    A fresh pool per round means a crash (``BrokenProcessPool``) or a
    hung worker poisons at most this round; the next retry round starts
    clean.  ``task_timeout`` is enforced as a round budget of
    ``task_timeout * ceil(tasks / workers)`` seconds — each queue wave
    gets the per-task allowance.
    """
    failed: dict[int, tuple[str, str]] = {}
    n_workers = min(n_workers, len(tasks))
    pool = ProcessPoolExecutor(max_workers=n_workers)
    futures = {pool.submit(fn, p): i for i, p in tasks.items()}
    pending = set(futures)
    deadline = None
    if task_timeout is not None:
        waves = math.ceil(len(tasks) / n_workers)
        deadline = time.monotonic() + task_timeout * waves
    try:
        while pending:
            timeout = None
            if deadline is not None:
                timeout = max(deadline - time.monotonic(), 0.0)
            done, pending = wait(pending, timeout=timeout,
                                 return_when=FIRST_COMPLETED)
            broken = False
            for fut in done:
                i = futures[fut]
                try:
                    res = fut.result()
                except BrokenProcessPool:
                    failed[i] = ("crash", "worker process died mid-task")
                    broken = True
                except Exception as exc:
                    failed[i] = ("exception", f"{type(exc).__name__}: {exc}")
                else:
                    on_result(i, res)
            if broken:
                # The pool is dead; every in-flight task goes down with it.
                for fut in pending:
                    failed[futures[fut]] = (
                        "crash", "worker pool broke before this task finished"
                    )
                pending = set()
            elif deadline is not None and pending and \
                    time.monotonic() >= deadline:
                for fut in pending:
                    fut.cancel()
                    failed[futures[fut]] = (
                        "timeout",
                        f"exceeded task_timeout={task_timeout}s round budget",
                    )
                pending = set()
                # Hung workers would block shutdown forever: kill them.
                _terminate_workers(pool)
    except BaseException:
        # KeyboardInterrupt (or any other escape) must not strand live
        # worker processes: shutdown(wait=False) alone leaves them
        # running their current task to completion — or forever, if
        # it hangs.  Kill the pool before propagating.
        _terminate_workers(pool)
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return failed


def _execute(
    fn,
    payloads: dict[int, object],
    *,
    workers: int,
    task_timeout: float | None,
    task_retries: int,
    on_result,
) -> dict[int, tuple[str, str, int]]:
    """Attempt every payload, retrying failures with exponential backoff
    (:data:`RETRY_BACKOFF` seconds before the first retry round).

    Calls ``on_result(index, result, attempts)`` as each task completes;
    returns ``{index: (kind, message, attempts)}`` for tasks that failed
    every attempt (bounded by ``1 + task_retries`` tries per task).
    """
    remaining = dict(payloads)
    attempts = {i: 0 for i in payloads}
    errors: dict[int, tuple[str, str, int]] = {}
    delay = RETRY_BACKOFF

    def _completed(i, res):
        on_result(i, res, attempts[i])

    while remaining:
        for i in remaining:
            attempts[i] += 1
        if workers == 0:
            failed = _serial_round(fn, remaining, _completed)
        else:
            failed = _parallel_round(
                fn, remaining, workers, task_timeout, _completed
            )
        retry: dict[int, object] = {}
        for i, (kind, message) in failed.items():
            if attempts[i] <= task_retries:
                retry[i] = remaining[i]
            else:
                errors[i] = (kind, message, attempts[i])
        remaining = retry
        if remaining and delay > 0:
            time.sleep(delay)
            delay *= 2
    return errors


def run_sweep(
    scenarios: Sequence[Scenario],
    *,
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
    task_timeout: float | None = None,
    task_retries: int = 1,
    profile: bool = False,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int | None = None,
) -> list[SimResult]:
    """Run every scenario fault-tolerantly; return results in input order.

    Every run setting — the hop-sampling cadence included — comes from
    its scenario, so a sweep's result equals
    :func:`~repro.sim.engine.run_scenario` on the same scenario and is
    cached under that scenario's :func:`scenario_key`.

    Parameters
    ----------
    scenarios:
        The task list, typically from :func:`expand_grid`.
    workers:
        Process count.  ``None`` reads ``REPRO_SWEEP_WORKERS`` (default
        serial); ``0``/``1`` run in-process.  Results are bit-identical
        either way.
    cache_dir:
        Directory for the on-disk result cache.  ``None`` disables
        caching unless ``REPRO_SWEEP_CACHE=1``, which uses
        :func:`default_cache_dir`.
    progress:
        Callback invoked once per completed task (cache hits included),
        in completion order.
    task_timeout:
        Per-task wall-clock allowance in seconds, positive (parallel
        mode only; enforced per round of the queue).  ``None`` disables.
    task_retries:
        Extra attempts after a task's first failure (crash, exception,
        or timeout), with exponential backoff between rounds starting
        at :data:`RETRY_BACKOFF` seconds.
    profile:
        Run every simulation with phase timers on, attaching
        :class:`repro.obs.StepTimings` to each result.  Metrics are
        bit-identical; profiled runs use distinct cache entries (their
        results carry timings, unprofiled ones don't).
    checkpoint_dir:
        Directory for per-task mid-run checkpoints.  When set, each
        task checkpoints its simulator state every ``checkpoint_every``
        steps (keyed by the task's scenario hash), and a retried task —
        after a crash or timeout — resumes from its last checkpoint
        instead of restarting from scratch.  Results are bit-identical
        either way; checkpoint files are removed as tasks complete.
    checkpoint_every:
        Checkpoint cadence in metered steps, at least 1 (default 25);
        requires ``checkpoint_dir``.

    Raises
    ------
    ValueError
        At the call, before any task runs, for a negative
        ``task_retries``, a non-positive ``task_timeout``, or a
        ``checkpoint_every`` below 1 or without ``checkpoint_dir``.
    SweepError
        At the *end* of the sweep, once every healthy task has finished
        (and been cached), when any task failed every attempt.  Its
        ``run`` is the partial :class:`SweepRun`: results in task order
        with ``None`` holes at failed indices, plus one
        :class:`TaskError` per failure.
    """
    if task_retries < 0:
        raise ValueError("task_retries must be non-negative")
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError("task_timeout must be positive (None disables it)")
    if checkpoint_every is not None:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
    scenarios = list(scenarios)
    if not scenarios:
        return []
    if cache_dir is None and os.environ.get("REPRO_SWEEP_CACHE"):
        cache_dir = default_cache_dir()
    cache = Path(cache_dir).expanduser() if cache_dir is not None else None
    ckpt_root = (
        Path(checkpoint_dir).expanduser() if checkpoint_dir is not None else None
    )
    if ckpt_root is not None:
        ckpt_root.mkdir(parents=True, exist_ok=True)

    def _ckpt_path(sc: Scenario) -> str | None:
        if ckpt_root is None:
            return None
        return str(ckpt_root / f"{scenario_key(sc, profile=profile)}.ckpt")

    t0 = time.perf_counter()
    results: list[SimResult | None] = [None] * len(scenarios)
    pending: list[int] = []
    done = cached = 0
    def _key_path(sc: Scenario) -> Path:
        return cache / f"{scenario_key(sc, profile=profile)}.pkl"

    for i, sc in enumerate(scenarios):
        if cache is not None:
            t_load = time.perf_counter()
            hit = _cache_load(_key_path(sc))
            if hit is not None:
                results[i] = hit
                done += 1
                cached += 1
                if progress is not None:
                    progress(SweepProgress(
                        done, len(scenarios), cached, sc,
                        time.perf_counter() - t0, True,
                        task_seconds=time.perf_counter() - t_load,
                    ))
                continue
        pending.append(i)

    def _finish(i: int, out: _TaskOutcome, attempts: int) -> None:
        nonlocal done
        res, ser = out.result, out.ser_seconds
        if out.packed is not None:
            t_ser = time.perf_counter()
            res = pickle.loads(out.packed)
            ser += time.perf_counter() - t_ser
        results[i] = res
        if cache is not None:
            write_pickle(_key_path(scenarios[i]), res)
        done += 1
        if progress is not None:
            progress(SweepProgress(
                done, len(scenarios), cached, scenarios[i],
                time.perf_counter() - t0, False,
                task_seconds=out.seconds,
                worker=out.worker if out.worker != os.getpid() else None,
                attempts=attempts,
                ser_seconds=ser,
            ))

    n_workers = _resolve_workers(workers, len(pending))
    failures = _execute(
        _run_task,
        {
            i: (scenarios[i], profile, _ckpt_path(scenarios[i]),
                checkpoint_every, n_workers > 0)
            for i in pending
        },
        workers=n_workers,
        task_timeout=task_timeout,
        task_retries=task_retries,
        on_result=_finish,
    )
    if failures:
        raise SweepError(SweepRun(results=results, errors=[
            TaskError(index=i, kind=kind, message=message, attempts=attempts,
                      scenario=scenarios[i])
            for i, (kind, message, attempts) in sorted(failures.items())
        ]))
    return results  # type: ignore[return-value]


class _Measured(Protocol):
    """Anything that carries the scenario it measured."""

    scenario: Scenario


def sweep_points(
    results: Sequence[_Measured | None],
    metrics: dict[str, Callable[[_Measured], object]],
) -> list[SweepPoint]:
    """Average named metrics over the seeds of each scenario in a sweep.

    A result is anything that carries its ``scenario``: a
    :class:`~repro.sim.metrics.SimResult`, a
    :class:`~repro.sim.snapshot.StaticSnapshot`, or a per-seed record
    that pairs a table's own measurements with the scenario they ran.
    Results whose scenarios differ only in ``seed`` form one point, in
    first-appearance order; ``None`` holes — the failed tasks of a
    :class:`SweepError`'s partial run — are skipped.  Each point carries
    every metric's mean and standard deviation over its group.  A metric
    may return None for "not measured in this run" (e.g.
    ``query_success_rate`` when a cell samples no queries): that sample
    is missing, not zero, and a point that measured nothing reports NaN.
    A metric may also return a dict keyed by level (``mean_h_k``,
    ``ledger.f_k``, ...) or by name (several statistics computed at
    once); each key is then averaged over the runs that report it.
    """
    if not metrics:
        raise ValueError("need at least one metric")
    groups: dict[str, list[_Measured]] = {}
    for res in results:
        if res is not None:
            key = scenario_key(replace(res.scenario, seed=0))
            groups.setdefault(key, []).append(res)
    points = []
    for chunk in groups.values():
        samples = {name: [fn(res) for res in chunk]
                   for name, fn in metrics.items()}
        points.append(SweepPoint(
            scenario=chunk[0].scenario,
            values={name: _reduce(v, np.mean) for name, v in samples.items()},
            stds={name: _reduce(v, np.std) for name, v in samples.items()},
            seeds=len(chunk),
        ))
    return points


def _reduce(samples: list, agg):
    """``agg`` over ``samples`` without their None and NaN entries (NaN
    when nothing was measured); key by key, in ascending order, when the
    samples are dicts."""
    if any(isinstance(v, dict) for v in samples):
        levels = sorted({k for v in samples if v for k in v})
        return {k: _reduce([v.get(k) for v in samples if v], agg)
                for k in levels}
    kept = np.array([v for v in samples if v is not None], dtype=float)
    kept = kept[~np.isnan(kept)]
    if not kept.size:
        return float("nan")
    with np.errstate(invalid="ignore"):  # the std of an infinite sample
        return float(agg(kept))
