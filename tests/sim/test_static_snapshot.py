"""Tests for ``static_snapshot``, the one builder of a network frozen at
given positions, and for averaging its snapshots in ``sweep_points``."""

import numpy as np

from repro.hierarchy import build_hierarchy
from repro.radio import unit_disk_edges
from repro.sim import Scenario, static_snapshot, sweep_points


def _placed(sc: Scenario):
    return sc.region.sample(sc.n, np.random.default_rng(sc.seed))


def test_matches_the_step_by_step_build():
    """Links at the scenario's r_tx, then the hierarchy with its depth
    cap and level links: the recipe the examples spell out."""
    sc = Scenario(n=120, max_levels=3, seed=4)
    pts = _placed(sc)
    snap = static_snapshot(sc, pts)
    edges = unit_disk_edges(pts, sc.r_tx)
    h = build_hierarchy(np.arange(sc.n), edges, max_levels=3,
                        level_mode="radio", positions=pts, r0=sc.r_tx)
    assert snap.scenario is sc and snap.positions is pts
    np.testing.assert_array_equal(snap.edges, edges)
    assert snap.hierarchy.num_levels == h.num_levels
    assert [snap.hierarchy.address(v) for v in range(sc.n)] == [
        h.address(v) for v in range(sc.n)]


def test_contraction_level_mode_is_read_off_the_scenario():
    sc = Scenario(n=120, level_mode="contraction", seed=4)
    pts = _placed(sc)
    h = build_hierarchy(np.arange(sc.n), unit_disk_edges(pts, sc.r_tx),
                        level_mode="contraction", positions=pts, r0=sc.r_tx)
    got = static_snapshot(sc, pts).hierarchy
    assert [got.address(v) for v in range(sc.n)] == [
        h.address(v) for v in range(sc.n)]


def test_sweep_points_averages_snapshots_by_name():
    """Snapshots carry their scenario, so ``sweep_points`` groups them by
    everything but the seed; a metric returning a name-keyed dict is
    averaged key by key."""
    snaps = [static_snapshot(sc, _placed(sc)) for sc in (
        Scenario(n=n, seed=seed) for n in (80, 160) for seed in (0, 1))]

    def degree(snap):
        counts = np.bincount(snap.edges.ravel(), minlength=snap.scenario.n)
        return {"mean": counts.mean(), "max": counts.max()}

    points = sweep_points(snaps, {"degree": degree})
    assert [(p.n, p.seeds) for p in points] == [(80, 2), (160, 2)]
    for p, pair in zip(points, (snaps[:2], snaps[2:])):
        per_seed = [degree(s) for s in pair]
        assert list(p["degree"]) == ["max", "mean"]
        assert p["degree"]["mean"] == float(np.mean([d["mean"] for d in per_seed]))
        assert p["degree"]["max"] == float(np.mean([d["max"] for d in per_seed]))
        assert p.stds["degree"]["max"] == float(np.std([d["max"] for d in per_seed]))
