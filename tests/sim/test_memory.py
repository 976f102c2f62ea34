"""Memory guards: traced heap peaks of one run's phases at n = 2e4.

The hop sample builds its own graph and floods each level's clusters;
at this size it used to take 10.2 MiB above its entry (an int64
neighbor list next to scipy's int32 copy, two int64 flood buffers alive
at once) and takes 5.0 MiB with one shared int32 list and one int32
flood at a time.  Set-up (placement, the first edges, hierarchy and the
full server assignment) took 16.2 MiB while each rendezvous stage held
~9 row-sized arrays over every level's rows at once and the Verlet
candidates were int64; it takes 12.2 MiB with the stage run in bounded
passes and int32 candidates.  Each bound sits between the two.
"""

import pytest

from repro.analysis import levels_for
from repro.sim import Scenario

from .phase_peaks import traced_phase_peaks

SAMPLING_BOUND_MIB = 7.5
SETUP_BOUND_MIB = 13.5


@pytest.fixture(scope="module")
def peaks_at_2e4():
    n = 20_000
    sc = Scenario(n=n, steps=1, seed=1, speed=1.0, max_levels=levels_for(n),
                  hop_mode="euclidean", hop_sample_every=10_000, warmup=2)
    return traced_phase_peaks(sc)


def test_hop_sampling_traced_peak_at_2e4(peaks_at_2e4):
    result, peaks = peaks_at_2e4
    assert result.h_network and result.h_levels  # the step sampled
    assert peaks["sampling"] <= SAMPLING_BOUND_MIB, peaks


def test_setup_traced_peak_at_2e4(peaks_at_2e4):
    _, peaks = peaks_at_2e4
    assert peaks["setup"] <= SETUP_BOUND_MIB, peaks
