"""Where a run's memory goes: for each pipeline phase, the traced heap
held at the phase's entry and the traced peak above it.

The simulator's profiled run marks every phase boundary through
``StepTimings.add``; :class:`PhasePeaks` reads ``tracemalloc`` at each
mark and resets its peak, so a phase's ``above`` is the most it
allocated on top of what it was handed, its ``top`` the traced peak it
reached, and its ``entry`` what it was handed on the way there.  A
phase marked more than once (a collector's own phase, which several
collectors may share, or a phase of several steps) reports its largest
``above`` over its segments, and the ``top`` and ``entry`` of the
segment that reached the highest peak.  The phase with the largest
``top`` holds the run's traced peak (:func:`peak_phase`).  Tracing
slows a run several-fold and never changes its results.

The modules a run imports on first use (``scipy.sparse.csgraph``, for
BFS rows on large graphs) are imported before tracing starts: a
module's one-time import is not the phase's working memory.
"""

import tracemalloc
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.obs.timers import StepTimings
from repro.sim import Simulator

MIB = 1 << 20


class PhaseMemory(NamedTuple):
    """One phase's traced heap in MiB: held at the entry of its highest
    segment, the largest peak above a segment's entry, and the highest
    peak reached."""

    entry: float
    above: float
    top: float


@dataclass
class PhasePeaks(StepTimings):
    """Phase timings that also keep, per phase, the traced peak above
    its entry, the peak reached and the heap held at that segment's
    entry, in bytes."""

    peaks: dict[str, int] = field(default_factory=dict)
    entries: dict[str, int] = field(default_factory=dict)
    tops: dict[str, int] = field(default_factory=dict)
    entry: int = 0

    def add(self, phase: str, seconds: float) -> None:
        super().add(phase, seconds)
        current, peak = tracemalloc.get_traced_memory()
        self.peaks[phase] = max(self.peaks.get(phase, 0), peak - self.entry)
        if peak > self.tops.get(phase, -1):
            self.tops[phase], self.entries[phase] = peak, self.entry
        tracemalloc.reset_peak()
        self.entry = current


def traced_phase_peaks(scenario, collectors=None):
    """Run ``scenario`` under ``tracemalloc``: ``(result, {phase:
    PhaseMemory})``, phases in the order they were first marked."""
    import scipy.sparse.csgraph  # noqa: F401  (see the module docstring)

    sim = Simulator(scenario, profile=True, collectors=collectors)
    sim.timings = peaks = PhasePeaks()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        peaks.entry = tracemalloc.get_traced_memory()[0]
        result = sim.run()
    finally:
        if started:
            tracemalloc.stop()
    return result, {
        phase: PhaseMemory(peaks.entries[phase] / MIB, above / MIB,
                           peaks.tops[phase] / MIB)
        for phase, above in peaks.peaks.items()
    }


def peak_phase(memory: dict) -> str:
    """The phase of :func:`traced_phase_peaks`' table that holds the
    run's traced peak (the first such phase on a tie)."""
    return max(memory, key=lambda phase: memory[phase].top)
