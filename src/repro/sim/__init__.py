"""Simulation engine: scenario config, phased step pipeline, pluggable
collectors, checkpoint/resume, result views."""

from repro.sim.collectors import (
    Collector,
    HopSampleCollector,
    LedgerCollector,
    LevelSeriesCollector,
    LinkEventCollector,
    QueryCollector,
    StateCollector,
    TraceCollector,
)
from repro.sim.engine import Simulator, run_scenario
from repro.sim.hops import BfsHops, EuclideanHops
from repro.sim.metrics import LevelSeries, SimResult
from repro.sim.presets import PRESETS, make_scenario
from repro.sim.rng import spawn_rngs
from repro.sim.scenario import Scenario
from repro.sim.snapshot import StepSnapshot, static_snapshot
from repro.sim.sweep import (
    CODE_VERSION,
    SweepError,
    SweepProgress,
    SweepRun,
    TaskError,
    default_cache_dir,
    expand_grid,
    normalize_for_json,
    print_progress,
    run_sweep,
    scenario_key,
    sweep_points,
)

__all__ = [
    "Simulator",
    "run_scenario",
    "StepSnapshot",
    "static_snapshot",
    "Collector",
    "LedgerCollector",
    "LinkEventCollector",
    "LevelSeriesCollector",
    "StateCollector",
    "HopSampleCollector",
    "TraceCollector",
    "QueryCollector",
    "BfsHops",
    "EuclideanHops",
    "LevelSeries",
    "SimResult",
    "spawn_rngs",
    "PRESETS",
    "make_scenario",
    "Scenario",
    "CODE_VERSION",
    "SweepError",
    "SweepProgress",
    "SweepRun",
    "TaskError",
    "default_cache_dir",
    "expand_grid",
    "normalize_for_json",
    "print_progress",
    "run_sweep",
    "scenario_key",
    "sweep_points",
]
