"""Array handoff engine vs the per-key dict oracle — equal in every field.

Each case drives :class:`repro.core.HandoffEngine` (recomputing every
step with ``links=None``, and patching every step it can from the
step's level-0 link diff, the patch rule forced) and
``handoff_oracle.OracleHandoffEngine`` over
the same snapshot sequence and requires, after every step: the whole
:class:`~repro.core.handoff.HandoffReport` (count table and level-free
counts equal as arrays), the stale-key set, the
effective assignment, and the lossy channel's RNG state to be equal.
On the engine's side the channel is its own pass,
:meth:`~repro.faults.DeliveryEngine.handoff`, over the lossless report;
the oracle still sends from inside its meter.
"""

import numpy as np
import pytest

from repro.core import HandoffEngine
from repro.core.handoff import RECOVERED, STALE
from repro.faults import DeliveryEngine, LossModel, RetryPolicy
from repro.geometry import disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges
from repro.radio.linkevents import link_diff
from repro.sim.hops import BfsHops, EuclideanHops
from tests.sim.stepping_oracle import force_patch

from .descent_oracle import server_map
from .handoff_oracle import OracleHandoffEngine

N = 150
DENSITY = 0.02
R_TX = radius_for_degree(9.0, DENSITY)


@pytest.fixture(autouse=True)
def _patch_whenever_linked(monkeypatch):
    """At N = 150 the patch rule never patches: force it, so a step
    handed its link diff patches whenever its depth held."""
    force_patch(monkeypatch)


def links_of(patched, prev_edges, edges):
    """The step's link diff on the patched plane, None on the full one
    and on the first step."""
    if not patched or prev_edges is None:
        return None
    return link_diff(prev_edges, edges, N)


def drifting_points(seed, steps, drift=0.6):
    rng = np.random.default_rng(seed)
    pts = disc_for_density(N, DENSITY).sample(N, rng)
    out = [pts]
    for _ in range(steps - 1):
        out.append(out[-1] + rng.normal(scale=drift, size=pts.shape))
    return out


def snapshot(pts, max_levels=3):
    edges = unit_disk_edges(pts, R_TX)
    h = build_hierarchy(np.arange(N), edges, max_levels=max_levels,
                        level_mode="radio", positions=pts, r0=R_TX)
    return h, pts, edges


def euclidean(h, pts, edges):
    return EuclideanHops(pts, R_TX)


def bfs(h, pts, edges):
    return BfsHops(CompactGraph(np.arange(N), edges))


def plain_callable(h, pts, edges):
    """No ``batch`` method; returns -1 sometimes (callers clamp)."""
    return lambda u, v: (u * 7 + v * 13) % 5 - 1


def assert_same_report(got, want, step):
    assert np.array_equal(got.counts, want.counts), step
    assert np.array_equal(got.flat, want.flat), step
    assert got.diff == want.diff, step
    assert got.recovery_time_total == want.recovery_time_total, step


def channel(seed, rate, attempts):
    return DeliveryEngine(loss=LossModel(rate=rate),
                          retry=RetryPolicy(max_attempts=attempts),
                          rng=np.random.default_rng(seed))


def assert_tracks_oracle(snaps, patched, hops=euclidean, loss_rates=None,
                         attempts=1):
    """Step both meters through ``snaps``; ``loss_rates[i]`` is the
    channel's per-hop loss during step i (None = no channel at all).
    The engine's side runs the channel as its own pass over the
    lossless report and hands the abandoned entries back to the engine."""
    eng = HandoffEngine()
    ref = OracleHandoffEngine()
    lossy = loss_rates is not None
    d_eng = channel(5, 0.0, attempts) if lossy else None
    d_ref = channel(5, 0.0, attempts) if lossy else None
    prev_edges = None
    moved = stale_seen = recovered = 0
    for step, (h, pts, edges) in enumerate(snaps):
        now = 0.37 * step
        got = eng.observe(h, hops(h, pts, edges),
                          links=links_of(patched, prev_edges, edges))
        if lossy and step:
            d_eng.loss = d_ref.loss = LossModel(rate=loss_rates[step])
            got, stayed = d_eng.handoff(got, eng.assignment, now)
            eng.hold(stayed)
        want = ref.observe(h, hops(h, pts, edges), delivery=d_ref, now=now)
        assert_same_report(got, want, step)
        stale = d_eng.stale if lossy else {}
        assert frozenset(stale) == frozenset(ref.stale), step
        assert server_map(eng.assignment) == ref.servers, step
        if lossy:
            assert (d_eng.rng.bit_generator.state
                    == d_ref.rng.bit_generator.state), step
        moved += got.total_handoff_packets
        stale_seen += got.flat[STALE]
        recovered += got.flat[RECOVERED]
        prev_edges = edges
    return moved, stale_seen, recovered


# "full": links=None, every row recomputed and diffed; "event": the
# step's link diff, dirty rows patched wherever the depth held.
PLANES = pytest.mark.parametrize("patched", [False, True],
                                 ids=["full", "event"])


@PLANES
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plain(patched, seed):
    snaps = [snapshot(p) for p in drifting_points(seed, 6)]
    moved, stale, _ = assert_tracks_oracle(snaps, patched)
    assert moved > 0 and stale == 0


@PLANES
def test_bfs_hops(patched):
    snaps = [snapshot(p) for p in drifting_points(3, 4)]
    assert_tracks_oracle(snaps, patched, hops=bfs)


@PLANES
def test_plain_callable_hop_fn(patched):
    snaps = [snapshot(p) for p in drifting_points(4, 4)]
    moved, _, _ = assert_tracks_oracle(snaps, patched, hops=plain_callable)
    assert moved > 0


@PLANES
@pytest.mark.parametrize("seed", [0, 6])
def test_lossy_with_retries(patched, seed):
    snaps = [snapshot(p) for p in drifting_points(seed, 6)]
    moved, stale, recovered = assert_tracks_oracle(
        snaps, patched, loss_rates=[0.3] * 6, attempts=3)
    assert moved > 0 and stale > 0 and recovered > 0


@PLANES
def test_abandoned_entries_are_retried_until_they_land(patched):
    """No retries and a bad channel: stale keys pile up, most of them
    outside the next step's dirty rows, then drain once it clears."""
    snaps = [snapshot(p) for p in drifting_points(7, 7, drift=0.4)]
    _, stale, recovered = assert_tracks_oracle(
        snaps, patched, loss_rates=[0, 0.6, 0.6, 0.6, 0, 0, 0])
    assert stale > 0 and recovered > 0


@PLANES
def test_hash_swings_back_to_the_holder(patched):
    """A -> B with (nearly) every transfer abandoned, then B -> A: the
    intent returns to the servers still holding the entries, which
    recover without any transfer."""
    a, b = (snapshot(p) for p in drifting_points(8, 2, drift=1.5))
    _, stale, recovered = assert_tracks_oracle(
        [a, b, a, b, a], patched, loss_rates=[0, 0.95, 0, 0.95, 0])
    assert stale > 0 and recovered > 0


@PLANES
@pytest.mark.parametrize("loss_rates", [None, [0.5] * 6],
                         ids=["lossless", "lossy"])
def test_hierarchy_gets_deeper_and_shallower(patched, loss_rates):
    """Depth changes: fresh placements from the subject on a grown
    level, silent expiry (and stale-key expiry) on a dropped one."""
    depths = [3, 2, 3, 1, 3, 3]
    snaps = [snapshot(p, max_levels=d)
             for p, d in zip(drifting_points(9, 6, drift=0.3), depths)]
    assert len({h.num_levels for h, _, _ in snaps}) > 1
    moved, _, _ = assert_tracks_oracle(snaps, patched,
                                       loss_rates=loss_rates)
    assert moved > 0


@PLANES
def test_channel_switched_off_with_stale_keys_outstanding(patched):
    """A bad channel for steps 1-2, then back at zero rate (a burst
    window closing) while keys are stale: the pass still walks them, and
    they recover by swing-back or expire, with lossless charges."""
    snaps = [snapshot(p) for p in drifting_points(10, 3, drift=1.0)]
    _, stale, recovered = assert_tracks_oracle(
        snaps + snaps[1::-1], patched, loss_rates=[0, 0.9, 0.9, 0, 0])
    assert stale > 0 and recovered > 0
