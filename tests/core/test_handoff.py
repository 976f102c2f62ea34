"""Tests for the handoff engine and overhead ledger."""

import numpy as np
import pytest

from repro.core import HandoffEngine, OverheadLedger
from repro.core.handoff import (
    MIG_ENTRIES, REG_EVENTS, REG_PACKETS, REORG_ENTRIES,
)
from repro.geometry import disc_for_density
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges

from .descent_oracle import server_map


def unit_hops(u, v):
    """Hop stub: every transfer costs 1 packet (u != v)."""
    return 0 if u == v else 1


def make_hierarchy(pts, r):
    edges = unit_disk_edges(pts, r)
    return build_hierarchy(np.arange(len(pts)), edges)


@pytest.fixture
def mobile_run():
    """A 120-node RWP run yielding a few hierarchy snapshots."""
    from repro.mobility import RandomWaypoint

    density = 0.02
    n = 120
    region = disc_for_density(n, density)
    rng = np.random.default_rng(0)
    model = RandomWaypoint(n, region, 8.0, rng)
    r = radius_for_degree(9.0, density)
    snaps = [make_hierarchy(model.positions.copy(), r)]
    for _ in range(6):
        model.step(1.0)
        snaps.append(make_hierarchy(model.positions.copy(), r))
    return snaps


class TestHandoffEngine:
    def test_first_observation_free(self, mobile_run):
        eng = HandoffEngine()
        rep = eng.observe(mobile_run[0], unit_hops)
        assert rep.total_handoff_packets == 0
        assert eng.assignment is not None

    def test_identical_snapshot_free(self, mobile_run):
        eng = HandoffEngine()
        eng.observe(mobile_run[0], unit_hops)
        rep = eng.observe(mobile_run[0], unit_hops)
        assert rep.total_handoff_packets == 0
        assert rep.flat[REG_EVENTS] == 0

    def test_mobility_produces_handoff(self, mobile_run):
        eng = HandoffEngine()
        total = 0
        for h in mobile_run:
            rep = eng.observe(h, unit_hops)
            total += rep.total_handoff_packets
        assert total > 0

    def test_entry_conservation(self, mobile_run):
        """Every metered entry transfer corresponds to an actual change
        in the assignment mapping."""
        eng = HandoffEngine()
        prev = None
        for h in mobile_run:
            rep = eng.observe(h, unit_hops)
            cur = server_map(eng.assignment)
            if prev is not None:
                changed = sum(
                    1
                    for k in set(prev) | set(cur)
                    if prev.get(k) != cur.get(k) and cur.get(k) is not None
                )
                metered = rep.counts[[MIG_ENTRIES, REORG_ENTRIES]].sum()
                assert metered == changed
            prev = dict(cur)

    def test_migration_and_reorg_disjoint(self, mobile_run):
        """phi and gamma partition the handoff packets."""
        eng = HandoffEngine()
        for h in mobile_run:
            rep = eng.observe(h, unit_hops)
            assert rep.total_handoff_packets == rep.phi_packets + rep.gamma_packets


class TestPatchOrFull:
    """The engine decides per step whether to patch its assignment: only
    with the step's level-0 link diff in hand, only when the depth held,
    and only where ``patch_pays`` says so.  Either way the report and
    the assignment are those of an engine that never patches."""

    def test_engine_decides_patch_or_full(self, monkeypatch):
        from repro.core import handoff
        from repro.radio.linkevents import link_diff
        from tests.sim.stepping_oracle import force_patch

        n, density = 150, 0.02
        r = radius_for_degree(9.0, density)
        rng = np.random.default_rng(4)
        pts = disc_for_density(n, density).sample(n, rng)
        steps = []
        for max_levels in (3, 3, 3, 2, 2):
            edges = unit_disk_edges(pts, r)
            steps.append((build_hierarchy(np.arange(n), edges,
                                          max_levels=max_levels), edges))
            pts = pts + rng.normal(scale=1.0, size=pts.shape)
        assert [h.num_levels for h, _ in steps] == [3, 3, 3, 2, 2]
        patched = []
        real = handoff.patch_assignment
        monkeypatch.setattr(handoff, "patch_assignment",
                            lambda *a: patched.append(True) or real(*a))

        def run(give_links):
            ref, eng = HandoffEngine(), HandoffEngine()
            prev_edges = None
            out = []
            for h, edges in steps:
                links = (link_diff(prev_edges, edges, n)
                         if give_links and prev_edges is not None else None)
                want = ref.observe(h, unit_hops)
                patched.clear()
                got = eng.observe(h, unit_hops, links=links)
                out.append(bool(patched))
                assert got.counts.tolist() == want.counts.tolist()
                assert got.flat.tolist() == want.flat.tolist()
                assert server_map(eng.assignment) == server_map(ref.assignment)
                prev_edges = edges
            return out

        # n = 150 sits below PATCH_MIN_NODES: links or not, full plan.
        assert run(True) == [False] * 5
        force_patch(monkeypatch)
        assert run(False) == [False] * 5
        # The first step has no intent and the fourth changed depth.
        assert run(True) == [False, True, True, False, True]


class TestStationaryControl:
    def test_static_network_zero_overhead(self):
        """The mu = 0 control: no motion, no handoff, no registration."""
        density = 0.02
        n = 100
        region = disc_for_density(n, density)
        rng = np.random.default_rng(1)
        pts = region.sample(n, rng)
        h = make_hierarchy(pts, radius_for_degree(9.0, density))
        eng = HandoffEngine()
        eng.observe(h, unit_hops)
        for _ in range(3):
            rep = eng.observe(h, unit_hops)
            assert rep.total_handoff_packets == 0
            assert rep.counts[REG_PACKETS].sum() == 0


class TestOverheadLedger:
    def test_validation(self):
        with pytest.raises(ValueError):
            OverheadLedger(n_nodes=0)

    def test_rates(self, mobile_run):
        eng = HandoffEngine()
        ledger = OverheadLedger(n_nodes=120)
        for h in mobile_run:
            rep = eng.observe(h, unit_hops)
            ledger.record(rep, dt=1.0)
        assert ledger.elapsed == pytest.approx(7.0)
        assert ledger.handoff_rate == pytest.approx(ledger.phi + ledger.gamma)
        # Per-level rates sum to the total.
        assert sum(ledger.phi_k().values()) == pytest.approx(ledger.phi)
        assert sum(ledger.gamma_k().values()) == pytest.approx(ledger.gamma)

    def test_record_validation(self, mobile_run):
        ledger = OverheadLedger(n_nodes=10)
        eng = HandoffEngine()
        rep = eng.observe(mobile_run[0], unit_hops)
        with pytest.raises(ValueError):
            ledger.record(rep, dt=0.0)

    def test_per_level_keys_are_the_levels_with_entries(self):
        """A level with reorganisation entries but no migration entries
        is a key of gamma_k and not of phi_k."""
        from repro.sim import Scenario, run_scenario

        ledger = run_scenario(Scenario(n=120, steps=2, warmup=1, seed=0,
                                       speed=0.2)).ledger
        table = ledger.table()
        migrated = set(table[MIG_ENTRIES].nonzero()[0].tolist())
        reorganised = set(table[REORG_ENTRIES].nonzero()[0].tolist())
        assert reorganised - migrated  # the case under test
        assert set(ledger.phi_k()) == migrated
        assert set(ledger.gamma_k()) == reorganised

    def test_event_rates_exposed(self, mobile_run):
        eng = HandoffEngine()
        ledger = OverheadLedger(n_nodes=120)
        for h in mobile_run:
            ledger.record(eng.observe(h, unit_hops), dt=1.0)
        fk = ledger.f_k()
        assert all(v >= 0 for v in fk.values())
        rates = ledger.reorg_event_rates()
        assert all(v >= 0 for v in rates.values())
