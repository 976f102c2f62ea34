"""System-level invariants under mobility (property-style integration).

These assert the structural promises the analysis leans on, across
whole simulated runs rather than single snapshots.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HandoffEngine, full_assignment, lm_levels
from repro.geometry import disc_for_density
from repro.hierarchy import build_hierarchy
from repro.mobility import RandomWaypoint
from repro.radio import radius_for_degree, unit_disk_edges
from tests.core.events_oracle import migration_events

DENSITY = 0.02
R_TX = radius_for_degree(9.0, DENSITY)


def trajectory(n, seed, steps, speed=2.0):
    """Yield hierarchy snapshots along one RWP run."""
    region = disc_for_density(n, DENSITY)
    rng = np.random.default_rng(seed)
    model = RandomWaypoint(n, region, speed, rng)
    for _ in range(steps):
        model.step(1.0)
        pts = model.positions.copy()
        edges = unit_disk_edges(pts, R_TX)
        yield build_hierarchy(np.arange(n), edges, max_levels=3,
                              level_mode="radio", positions=pts, r0=R_TX)


class TestServerPlacementInvariant:
    def test_server_stays_in_subject_cluster_under_mobility(self):
        """At every step, every real-level server lives inside its
        subject's cluster — the property queries depend on."""
        for h in trajectory(100, seed=11, steps=6):
            a = full_assignment(h)
            for (subject, level), server in a.servers.items():
                if level > h.num_levels:
                    continue  # global level: whole network
                members = h.members0(level, h.cluster_of(subject, level))
                assert server in members.tolist(), (subject, level, server)

    def test_every_subject_covered_every_step(self):
        for h in trajectory(80, seed=12, steps=5):
            a = full_assignment(h)
            expected_levels = set(range(2, lm_levels(h) + 1))
            per_subject: dict[int, set[int]] = {}
            for (subject, level) in a.servers:
                per_subject.setdefault(subject, set()).add(level)
            for v in range(80):
                assert per_subject.get(v, set()) == expected_levels


class TestHandoffAccountingInvariants:
    def test_packets_nonnegative_and_bounded(self):
        """Per-step handoff packets can never exceed (entries changed) x
        (graph diameter bound)."""
        engine = HandoffEngine()
        n = 100
        diameter_bound = 4 * int(np.sqrt(n)) + 20

        def hop(u, v):
            return 0 if u == v else 1  # unit cost: packets == entries

        prev_entries = None
        for h in trajectory(n, seed=13, steps=6):
            rep = engine.observe(h, hop)
            total_entries = (
                sum(rep.migration_entries.values())
                + sum(rep.reorg_entries.values())
            )
            assert rep.total_handoff_packets == total_entries  # unit hops
            assert rep.total_handoff_packets >= 0

    def test_migration_events_monotone_levels(self):
        """A pure level-k migration implies ancestry change at level k
        (consistency between the event stream and the ancestry diff)."""
        engine = HandoffEngine()

        def hop(u, v):
            return 0 if u == v else 1

        prev_h = None
        for h in trajectory(90, seed=14, steps=6):
            rep = engine.observe(h, hop)
            if prev_h is not None:
                for ev in migration_events(rep.diff):
                    if ev.level <= min(prev_h.num_levels, h.num_levels):
                        i = int(np.searchsorted(h.levels[0].node_ids, ev.node))
                        assert prev_h.ancestry(ev.level)[i] != h.ancestry(ev.level)[i]
            prev_h = h


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_assignment_pure_function_property(seed):
    """full_assignment is a pure function of the hierarchy: recomputing
    on the same snapshot gives identical servers (no hidden state)."""
    rng = np.random.default_rng(seed)
    n = 60
    region = disc_for_density(n, DENSITY)
    pts = region.sample(n, rng)
    edges = unit_disk_edges(pts, R_TX)
    h = build_hierarchy(np.arange(n), edges, max_levels=2,
                        level_mode="radio", positions=pts, r0=R_TX)
    a = full_assignment(h)
    b = full_assignment(h)
    assert a.servers == b.servers
