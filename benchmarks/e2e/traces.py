"""The two traces behind the per-layer metrics, both taken from the
benchmark's side of the public API (nothing is added inside ``src/``).

Trace A groups a cProfile run by source file into this repo's layers.
Layers are keyed by file path under the ``repro`` package, never by a
list of function names, so moving or renaming functions inside a module
cannot break the grouping; a deleted module simply reads 0.

Trace B reads the engine's own phase timers (``profile=True``) and the
process RSS through a collector registered with ``collectors=``.
"""

from __future__ import annotations

import cProfile
import gc
import math
import os

from repro.sim import Collector

from workloads import digest

# First match wins; paths are relative to the ``repro`` package.
LAYER_PATHS = (
    ("mobility/", "mobility"),
    ("radio/", "radio"),
    ("clustering/", "clustering"),
    ("hierarchy/", "hierarchy"),
    ("core/servers.py", "core.servers"),
    ("core/handoff.py", "core.handoff"),
    ("core/events.py", "core.events"),
    ("core/hashing.py", "core.hashing"),
    ("sim/hops.py", "sim.hops"),
    ("sim/collectors/", "sim.collectors"),
    ("sim/engine.py", "sim.engine"),
    ("sim/sweep.py", "sim.sweep"),
    ("sim/shm.py", "sim.shm"),
    ("persist.py", "persist"),
    ("graphs.py", "graphs"),
)
OTHER = "repro.other"  # any other file of the package
EXT = "ext"            # library code no package code asked for (benchmark frames)
LAYERS = tuple(name for _, name in LAYER_PATHS) + (OTHER, EXT)


def _layer_of(filename: str, package_dir: str) -> str | None:
    """Layer of a function defined in the package; ``None`` for code
    outside it (libraries, and C functions, which cProfile files under
    ``~``), which is charged to whoever called it."""
    if not filename.startswith(package_dir):
        return None
    rel = filename[len(package_dir):].lstrip(os.sep).replace(os.sep, "/")
    for prefix, name in LAYER_PATHS:
        if rel.startswith(prefix):
            return name
    return OTHER


def _shares(func, callers, package_dir, memo, active) -> dict:
    """How a function's cost divides among the layers: all of it to its
    own layer for package code; for outside code, in proportion to the
    calls it received from each layer, followed up through the profile's
    caller edges (as gprof does).  Code nobody in the package called -
    the benchmark's own frames - is ``ext``."""
    if func in memo:
        return memo[func]
    layer = _layer_of(func[0], package_dir)
    if layer is not None:
        out = {layer: 1.0}
    else:
        out, weight = {}, 0
        active.add(func)
        for caller, (edge_calls, _) in sorted(callers.get(func, {}).items()):
            if caller in active:  # recursion inside library code
                continue
            for name, share in _shares(caller, callers, package_dir, memo,
                                       active).items():
                out[name] = out.get(name, 0.0) + edge_calls * share
            weight += edge_calls
        active.discard(func)
        out = {k: v / weight for k, v in out.items()} if weight else {EXT: 1.0}
    memo[func] = out
    return out


def _label(code) -> tuple:
    """``(file, line, name)``; cProfile files C functions under ``~``."""
    if isinstance(code, str):
        return ("~", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_calls(fn, package_dir: str):
    """Run ``fn()`` under cProfile.

    Returns ``(result, total_calls, {layer: (calls, self_seconds)})``.
    Library and C functions are charged, call by call and with the self
    time of each caller edge, to the layer that called them, so the
    ``ext`` layer keeps only what no package code asked for and the
    layer counts sum to ``total_calls`` (up to float rounding).

    Reads the profiler's raw entries and *adds up* entries that share a
    label: ``pstats`` keeps one of them, picked by memory address, which
    made the total differ by a few calls from run to run (every
    dataclass ``__init__`` is ``<string>:2``).
    """
    prof = cProfile.Profile()
    result = prof.runcall(fn)
    own: dict[tuple, list] = {}      # label -> [calls, self seconds]
    callers: dict[tuple, dict] = {}  # callee -> {caller: [calls, self seconds]}
    for entry in prof.getstats():
        caller = _label(entry.code)
        cell = own.setdefault(caller, [0, 0.0])
        cell[0] += entry.callcount
        cell[1] += entry.inlinetime
        for sub in entry.calls or ():
            edge = callers.setdefault(_label(sub.code), {}).setdefault(
                caller, [0, 0.0])
            edge[0] += sub.callcount
            edge[1] += sub.inlinetime
    calls = dict.fromkeys(LAYERS, 0.0)
    seconds = dict.fromkeys(LAYERS, 0.0)
    total, memo = 0, {}
    # Sorted, because the profiler lists entries in memory-address order.
    for func, (nc, tt) in sorted(own.items()):
        total += nc
        layer = _layer_of(func[0], package_dir)
        if layer is not None:
            calls[layer] += nc
            seconds[layer] += tt
            continue
        for caller, (edge_calls, edge_seconds) in sorted(
                callers.get(func, {}).items()):
            for name, share in _shares(caller, callers, package_dir, memo,
                                       set()).items():
                calls[name] += edge_calls * share
                seconds[name] += edge_seconds * share
            nc -= edge_calls
            tt -= edge_seconds
        calls[EXT] += nc   # root frames: called from outside the profile
        seconds[EXT] += tt
    return result, total, {k: (calls[k], seconds[k]) for k in LAYERS}


# -- Trace B ----------------------------------------------------------------------

PHASES = ("mobility", "rebuild", "hierarchy", "delta", "handoff", "diff", "sampling")
SCALE_PHASES = ("setup", "rebuild", "hierarchy", "handoff", "sampling")


def phase_times(results: list) -> tuple[dict, list, float]:
    """Per-phase seconds from ``SimResult.timings`` of profiled runs.

    Returns ``({phase: seconds per step; "setup": seconds per run},
    phase names the engine no longer reports, share of the runs' wall
    the phases cover)``.
    """
    totals: dict[str, float] = {}
    steps, wall = 0, 0.0
    for res in results:
        for phase, seconds in res.timings.totals.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
        steps += res.timings.steps
        wall += res.timings.wall_seconds
    absent = [p for p in ("setup",) + PHASES if p not in totals]
    per = {p: totals.get(p, 0.0) / max(steps, 1) for p in PHASES}
    per["setup"] = totals.get("setup", 0.0) / len(results)
    return per, absent, sum(totals.values()) / wall if wall > 0 else 0.0


def current_rss_mb() -> float:
    """Resident set now (``ru_maxrss`` cannot fall, so it would read the
    timed window's peak for the whole traced repetition)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return 0.0


class RssProbe(Collector):
    """Registered last through ``collectors=``: RSS once the baseline is
    built (``on_start``) and after the last metered step."""

    name = "bench_rss_probe"

    def on_start(self, snap) -> None:
        self.start = self.last = current_rss_mb()

    def on_step(self, snap) -> None:
        self.last = current_rss_mb()


def trace_b(w, wall_s, first_digest, checks, per_layer: dict, info: dict) -> None:
    """One more repetition with the engine's phase timers on and an RSS
    probe registered last; fills the phase, scaling and memory metrics."""
    probes: list = []

    def new_probe() -> list:
        probes.append(RssProbe())
        return probes[-1:]

    gc.collect()
    rss_before = current_rss_mb()
    traced = w.rep(profile=True, collectors=new_probe)
    checks.check(digest(traced["results"]) == first_digest,
                 "profiled repetition digest equals repetition 0's")
    per, absent, coverage = phase_times(traced["results"])
    for p in PHASES:
        per_layer[f"phase.{p}.ms_per_step"] = per[p] * 1e3
    per_layer["phase.setup.ms"] = per["setup"] * 1e3
    if w.scale_ref is not None:
        ref, _, _ = phase_times(w.run(w.scale_ref, profile=True))
        for p in SCALE_PHASES:
            if ref[p] > 0 and per[p] > 0:
                per_layer[f"scale.exp.{p}"] = math.log10(per[p] / ref[p])
    per_layer["rss_growth_mb.setup"] = max(
        (p.start - rss_before for p in probes), default=0.0)
    per_layer["rss_growth_mb.steps"] = max(
        (p.last - p.start for p in probes), default=0.0)
    per_layer["trace.overhead_share"] = traced["wall"] / wall_s - 1.0
    info.update(absent_phases=absent, phase_coverage=coverage)
