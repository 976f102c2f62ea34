"""Memory guard: the hop sample's traced heap at n = 2e4.

The sample builds its own graph and floods each level's clusters; at
this size it used to take 10.2 MiB above its entry (an int64 neighbor
list next to scipy's int32 copy, two int64 flood buffers alive at
once) and takes 6.2 MiB with one shared int32 list and one int32 flood
at a time.  The bound sits between the two.
"""

from repro.analysis import levels_for
from repro.sim import Scenario

from .phase_peaks import traced_phase_peaks

SAMPLING_BOUND_MIB = 7.5


def test_hop_sampling_traced_peak_at_2e4():
    n = 20_000
    sc = Scenario(n=n, steps=1, seed=1, speed=1.0, max_levels=levels_for(n),
                  hop_mode="euclidean", hop_sample_every=10_000, warmup=2)
    result, peaks = traced_phase_peaks(sc)
    assert result.h_network and result.h_levels  # the step sampled
    assert peaks["sampling"] <= SAMPLING_BOUND_MIB, peaks
