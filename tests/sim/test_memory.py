"""Memory guards: traced heap of one run's phases at n = 2e4.

The hop sample builds its own graph and floods each level's clusters;
at this size it used to take 10.2 MiB above its entry (an int64
neighbor list next to scipy's int32 copy, two int64 flood buffers alive
at once) and takes 5.0 MiB with one shared int32 list and one int32
flood at a time.  Set-up (placement, the first edges, hierarchy and the
full server assignment) took 16.2 MiB while each rendezvous stage held
~9 row-sized arrays over every level's rows at once and the Verlet
candidates were int64; it took 12.2 MiB with the stage run in bounded
passes and int32 candidates, 8.5 MiB with int32 node IDs through the
step, and takes 6.5 MiB since no Verlet candidate list is kept.

The handoff phase held 11.0 MiB at its entry and peaked at 17.3 MiB
while node IDs were int64 through the step (edges, elections,
ancestries, server tables); with IDs and rows int32 and only composite
keys int64 it held 6.7 and peaked at 11.4 MiB.  Without the Verlet list
(every step builds its unit-disk graph afresh) it holds 4.7 and peaks
at 9.4 MiB.

The rebuild phase (the step's unit-disk build and its level-0 link
diff) rises 6.7 MiB above its entry when the diff merges the two key
arrays by a stable argsort of their concatenation, and 4.8 MiB with one
``searchsorted`` of the new keys into the old ones.  Each bound sits
between the two figures it separates.
"""

import pytest

from repro.analysis import levels_for
from repro.sim import Scenario

from .phase_peaks import traced_phase_peaks

SAMPLING_BOUND_MIB = 7.5
SETUP_BOUND_MIB = 7.5
REBUILD_BOUND_MIB = 5.8
HANDOFF_ENTRY_BOUND_MIB = 5.7
HANDOFF_TOP_BOUND_MIB = 10.4


@pytest.fixture(scope="module")
def peaks_at_2e4():
    n = 20_000
    sc = Scenario(n=n, steps=1, seed=1, speed=1.0, max_levels=levels_for(n),
                  hop_mode="euclidean", hop_sample_every=10_000, warmup=2)
    return traced_phase_peaks(sc)


def test_hop_sampling_traced_peak_at_2e4(peaks_at_2e4):
    result, peaks = peaks_at_2e4
    assert result.h_network and result.h_levels  # the step sampled
    assert peaks["sampling"].above <= SAMPLING_BOUND_MIB, peaks


def test_setup_traced_peak_at_2e4(peaks_at_2e4):
    _, peaks = peaks_at_2e4
    assert peaks["setup"].above <= SETUP_BOUND_MIB, peaks


def test_rebuild_traced_peak_at_2e4(peaks_at_2e4):
    """The unit-disk build and the level-0 link diff on top of what the
    step holds."""
    _, peaks = peaks_at_2e4
    assert peaks["rebuild"].above <= REBUILD_BOUND_MIB, peaks


def test_handoff_held_at_entry_at_2e4(peaks_at_2e4):
    """What the step hands the handoff phase: two hierarchies, their
    level-0 edges, the server tables."""
    _, peaks = peaks_at_2e4
    assert peaks["handoff"].entry <= HANDOFF_ENTRY_BOUND_MIB, peaks


def test_handoff_traced_peak_at_2e4(peaks_at_2e4):
    """The handoff phase's traced peak: its entry plus the patch, the
    hierarchy diff and the charges on top."""
    _, peaks = peaks_at_2e4
    assert peaks["handoff"].top <= HANDOFF_TOP_BOUND_MIB, peaks
