"""Tests for handoff-trigger event detection (Sections 4, 5.2)."""

import cProfile
import pstats

import numpy as np
import pytest

from repro.clustering import elect
from repro.core import EventKind, diff_hierarchies
from repro.core.events import HierarchyDiff
from repro.geometry import disc_for_density
from repro.hierarchy import (
    ClusteredHierarchy,
    HierarchyMaintainer,
    LevelTopology,
    build_hierarchy,
)
from repro.radio import radius_for_degree, unit_disk_edges

from .events_oracle import (
    MigrationEvent,
    ReorgEvent,
    migration_events,
    oracle_diff,
    oracle_link_counts,
    oracle_migration_counts,
    oracle_reorg_counts,
    reorg_events,
)

DENSITY = 0.02
R_TX = radius_for_degree(9.0, DENSITY)


def H(ids, edges):
    return build_hierarchy(ids, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


class TestMigrationDetection:
    def test_no_change_no_events(self):
        h = H([1, 2, 3], [[1, 2], [2, 3]])
        d = diff_hierarchies(h, h)
        assert not migration_events(d)
        assert not reorg_events(d)

    def test_pure_migration_between_persisting_clusters(self):
        """Node 1 moves from cluster 5's area to cluster 9's: both heads
        persist, so this is a pure level-1 migration (phi event).

        Before: 1-5 linked, 4-9 linked -> clusters {1,5},{4,9}.
        After:  1-9 linked, 4-5... keep 5 and 9 heads alive: 2-5, 4-9.
        """
        h0 = H([1, 2, 4, 5, 9], [[1, 5], [2, 5], [4, 9], [5, 9]])
        h1 = H([1, 2, 4, 5, 9], [[1, 9], [2, 5], [4, 9], [5, 9]])
        d = diff_hierarchies(h0, h1)
        lvl1 = [m for m in migration_events(d) if m.level == 1 and m.node == 1]
        assert len(lvl1) == 1
        ev = lvl1[0]
        assert ev.old_cluster == 5 and ev.new_cluster == 9
        assert ev.pure

    def test_impure_migration_when_cluster_dies(self):
        """If the old head loses clusterhead status the move is not a
        pure migration (it is reorganization fallout)."""
        # Before: clusters {1,5} and {4,9}; after: 5 loses head status
        # (its only elector 1 leaves; 5 now elects 9).
        h0 = H([1, 4, 5, 9], [[1, 5], [4, 9], [5, 9]])
        h1 = H([1, 4, 5, 9], [[1, 9], [4, 9], [5, 9]])
        d = diff_hierarchies(h0, h1)
        moved = [m for m in migration_events(d) if m.node in (1, 5) and m.level == 1]
        assert moved
        assert not any(m.pure for m in moved)
        # And 5's rejection shows up as a reorg event.
        kinds = {r.kind for r in reorg_events(d) if r.subject == 5}
        assert EventKind.REJECT_MIGRATION in kinds or EventKind.REJECT_RECURSIVE in kinds

    def test_node_set_mismatch(self):
        h0 = H([1, 2], [[1, 2]])
        h1 = H([1, 3], [[1, 3]])
        with pytest.raises(ValueError):
            diff_hierarchies(h0, h1)


class TestElectionRejection:
    def test_election_by_migration(self):
        """A node gains an elector that existed before -> kind (iii)."""
        # Before: 1 elects 5 (cluster {1,5}), 3 elects 4 ({3,4}).
        # After: 3 moves next to 5 region... make 4 lose and... simpler:
        # give 5 a new elector 3 that was already a level-0 node.
        h0 = H([1, 3, 4, 5], [[1, 5], [3, 4], [4, 5]])
        h1 = H([1, 3, 4, 5], [[1, 5], [3, 5], [4, 5]])
        d = diff_hierarchies(h0, h1)
        # 4 was a head (elected by 3), now loses status.
        rej = [r for r in reorg_events(d) if r.subject == 4 and r.level == 1]
        assert any(r.kind in (EventKind.REJECT_MIGRATION, EventKind.REJECT_RECURSIVE)
                   for r in rej)

    def test_new_head_elected(self):
        # Before: chain 1-9: head 9 only. After: 1-5 edge: 5 becomes head
        # of {1,5}? 1's closed nbhd {1,9,5}: max 9 still. Instead isolate:
        # Before: 1,5 isolated pair {1-9},{5}; after: 5-1 and 1 elects 9.
        h0 = H([1, 5, 9], [[1, 9]])
        h1 = H([1, 5, 9], [[1, 9], [5, 9]])
        d = diff_hierarchies(h0, h1)
        # 5 joins 9's cluster: migration at level 1 (cluster change 5->9).
        assert any(m.node == 5 for m in migration_events(d))

    def test_link_events_at_level1(self):
        """Level-1 cluster link changes touching a level-2 node produce
        (i)/(ii) events."""
        # Two 2-node clusters linked -> level-1 edge appears/disappears.
        h0 = H([1, 5, 4, 9], [[1, 5], [4, 9], [5, 9]])
        h1 = H([1, 5, 4, 9], [[1, 5], [4, 9]])
        d = diff_hierarchies(h0, h1)
        downs = [r for r in reorg_events(d) if r.kind is EventKind.LINK_DOWN and r.level == 1]
        assert downs
        assert {downs[0].subject, downs[0].other} == {5, 9}

    def test_link_up_event(self):
        h0 = H([1, 5, 4, 9], [[1, 5], [4, 9]])
        h1 = H([1, 5, 4, 9], [[1, 5], [4, 9], [5, 9]])
        d = diff_hierarchies(h0, h1)
        ups = [r for r in reorg_events(d) if r.kind is EventKind.LINK_UP and r.level == 1]
        assert ups


class TestEventCounts:
    def test_count_helpers(self):
        h0 = H([1, 5, 4, 9], [[1, 5], [4, 9], [5, 9]])
        h1 = H([1, 5, 4, 9], [[1, 5], [4, 9]])
        d = diff_hierarchies(h0, h1)
        width = max(h0.num_levels, h1.num_levels) + 2
        counts = d.event_counts(width)
        assert counts.shape == (len(EventKind), width)
        assert counts[1:].sum() == len(reorg_events(d))
        assert counts[0].sum() == sum(m.pure for m in migration_events(d))


# -- struct-of-arrays detector vs the per-event oracle -------------------------


def assert_equals_oracle(h0, h1):
    """Object views equal the oracle's lists in order; the per-(kind,
    level) event counts equal the oracle's count dicts; the per-level
    link and drift counts equal a python-set recount."""
    d = diff_hierarchies(h0, h1)
    migrations, reorgs = oracle_diff(h0, h1)
    assert migration_events(d) == migrations
    assert reorg_events(d) == reorgs
    counts = d.event_counts(max(h0.num_levels, h1.num_levels) + 2)
    assert ({k: c for k, c in enumerate(counts[0].tolist()) if c}
            == oracle_migration_counts(migrations))
    kinds = tuple(EventKind)
    assert ({(kinds[i], k): c for (i, k), c in np.ndenumerate(counts) if i and c}
            == oracle_reorg_counts(reorgs))
    counts = oracle_link_counts(h0, h1)
    assert d.link_changes.size == (len(counts) + 1 if counts else 0)
    assert {k: (int(d.link_changes[k]), int(d.drift_changes[k]))
            for k in counts} == counts
    if counts:
        assert d.link_changes[0] == d.drift_changes[0] == 0
    return d


def chaos_edges(rng, pts, step, down):
    """Unit-disk edges under a crash burst (steps 3-5) and a half-plane
    partition (step 6), as the simulator's chaos engine filters them."""
    edges = unit_disk_edges(pts, R_TX)
    if step == 3:
        down[rng.choice(len(pts), size=len(pts) // 8, replace=False)] = True
    if step == 6:
        down[:] = False
        cut = pts[:, 0] < np.median(pts[:, 0])
        edges = edges[cut[edges[:, 0]] == cut[edges[:, 1]]]
    if down.any():
        edges = edges[~(down[edges[:, 0]] | down[edges[:, 1]])]
    return edges


def snapshot_sequence(seed, n, steps, drift, level_mode, max_levels, plane,
                      ids=None):
    """Hierarchies of a drifting, crashing, partitioning network, built
    by :func:`build_hierarchy` directly or by the hierarchy maintainer a
    simulator binds.  ``ids`` (direct build only) renames node i to
    ``ids[i]``."""
    rng = np.random.default_rng(seed)
    pts = disc_for_density(n, DENSITY).sample(n, rng)
    radio = dict(positions=None, r0=None)
    maintainer = HierarchyMaintainer(n, R_TX, max_levels=max_levels,
                                     level_mode=level_mode)
    down = np.zeros(n, dtype=bool)
    out = []
    for step in range(steps):
        edges = chaos_edges(rng, pts, step, down)
        if plane == "event":
            out.append(maintainer.update(edges, pts))
        else:
            if level_mode == "radio":
                radio = dict(positions=pts, r0=R_TX)
            names = np.arange(n) if ids is None else ids
            out.append(build_hierarchy(names, names[edges],
                                       max_levels=max_levels,
                                       level_mode=level_mode, **radio))
        pts = pts + rng.normal(scale=drift, size=pts.shape)
    return out


class TestArraysEqualOracle:
    @pytest.mark.parametrize("plane", ["full", "event"])
    @pytest.mark.parametrize("level_mode", ["contraction", "radio"])
    @pytest.mark.parametrize("seed,drift", [(0, 0.4), (5, 1.5)])
    def test_churn_crash_partition(self, plane, level_mode, seed, drift):
        snaps = snapshot_sequence(seed, n=140, steps=10, drift=drift,
                                  level_mode=level_mode, max_levels=3,
                                  plane=plane)
        kinds = set()
        for h0, h1 in zip(snaps, snaps[1:]):
            kinds.update(assert_equals_oracle(h0, h1).reorg_kind.tolist())
        assert len(kinds) >= 5  # links, promotions, demotions, (vii)

    @pytest.mark.parametrize("level_mode", ["contraction", "radio"])
    def test_hierarchy_gains_and_loses_levels(self, level_mode):
        """Uncapped recursion: the crash burst and the partition change
        the depth, so levels exist on one side of a diff only."""
        snaps = snapshot_sequence(3, n=160, steps=10, drift=0.8,
                                  level_mode=level_mode, max_levels=None,
                                  plane="full")
        depths = [h.num_levels for h in snaps]
        assert len(set(depths)) > 1
        grew = shrank = False
        for h0, h1 in zip(snaps, snaps[1:]):
            assert_equals_oracle(h0, h1)
            grew |= h1.num_levels > h0.num_levels
            shrank |= h1.num_levels < h0.num_levels
        assert grew and shrank

    def test_persistent_cluster_ids(self):
        """Minted cluster IDs (>= 10^7) as level node IDs."""
        n = 120
        rng = np.random.default_rng(2)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        maintainer = HierarchyMaintainer(n, R_TX, max_levels=3,
                                         election_mode="persistent")
        prev, events = None, 0
        for _ in range(8):
            h = maintainer.update(unit_disk_edges(pts, R_TX), positions=pts)
            if prev is not None:
                d = assert_equals_oracle(prev, h)
                events += d.reorg_kind.size + d.mig_node.size
            prev = h
            pts = pts + rng.normal(scale=0.9, size=pts.shape)
        assert int(prev.levels[1].node_ids.max()) >= 10**7
        assert events > 0

    @pytest.mark.parametrize("level_mode", ["contraction", "radio"])
    def test_base_ids_at_the_int32_top(self, level_mode):
        """Sparse base IDs ending at the largest int32, uncapped so the
        depth changes too.  The renaming is monotone, so every election is
        the dense run's; keys are built from compacted rows, never from
        the IDs, so no product of two IDs wraps.  (IDs past int32 are
        refused at construction: ``test_base_ids_past_int32_are_refused``.)"""
        ids = 2**31 - 1 - 7 * np.arange(160, dtype=np.int64)[::-1]
        snaps = snapshot_sequence(3, n=160, steps=10, drift=0.8,
                                  level_mode=level_mode, max_levels=None,
                                  plane="full", ids=ids)
        assert len({h.num_levels for h in snaps}) > 1
        assert int(snaps[0].levels[1].node_ids.min()) > 2**31 - 7 * 160
        assert int(snaps[0].levels[1].node_ids.max()) == 2**31 - 1
        for h0, h1 in zip(snaps, snaps[1:]):
            assert_equals_oracle(h0, h1)

    def test_base_ids_past_int32_are_refused(self):
        ids = 2**33 + 7 * np.arange(160, dtype=np.int64)
        with pytest.raises(ValueError, match=r"node ID \d+ is outside int32"):
            snapshot_sequence(3, n=160, steps=1, drift=0.8,
                              level_mode="radio", max_levels=None,
                              plane="full", ids=ids)

    def test_empty_diff(self):
        d = HierarchyDiff()
        assert migration_events(d) == [] and reorg_events(d) == []
        assert not d.event_counts(3).any()
        assert d == HierarchyDiff()

    def test_equality_compares_columns(self):
        snaps = snapshot_sequence(1, n=100, steps=3, drift=1.0,
                                  level_mode="radio", max_levels=3,
                                  plane="full")
        a = diff_hierarchies(snaps[0], snaps[1])
        assert a == diff_hierarchies(snaps[0], snaps[1])
        assert a != diff_hierarchies(snaps[1], snaps[2])
        assert a != HierarchyDiff()
        assert a != "not a diff"


def hand_built(*levels):
    """Hierarchy from explicit per-level ``(ids, edges)`` pairs; each
    level's IDs must be the clusterheads elected one level down."""
    out = []
    for k, (ids, edges) in enumerate(levels):
        ids = np.asarray(ids, dtype=np.int64)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if out:
            assert out[-1].election.clusterheads.tolist() == ids.tolist()
        election = elect(ids, edges) if k < len(levels) - 1 else None
        out.append(LevelTopology(k, ids, edges, election))
    return ClusteredHierarchy(out)


class TestElectorClassification:
    """(iii) vs (v) and (iv) vs (vi): the smallest *newly arrived*
    elector decides, among several electors of one head."""

    BASE = [1, 2, 3, 10, 20, 30, 35, 40]

    def before(self):
        # Level 1: 10 elects 20; 30 and 35 elect 40.  Level 2 = {20, 40}.
        return hand_built(
            (self.BASE, [[1, 10], [2, 20], [3, 30]]),
            ([10, 20, 30, 35, 40], [[10, 20], [30, 40], [35, 40]]),
            ([20, 40], []),
        )

    def after(self):
        # Node 3 left 30's cluster and now heads its own level-1 cluster;
        # at level 1 both 3 (new) and 10 (old) elect 30, 35 is alone.
        return hand_built(
            (self.BASE, [[1, 10], [2, 20]]),
            ([3, 10, 20, 30, 35, 40], [[3, 30], [10, 30]]),
            ([20, 30, 35, 40], []),
        )

    def after_old_electors_only(self):
        # 10 and 20 (both level-1 nodes before) elect 30; 20 is demoted.
        return hand_built(
            (self.BASE, [[1, 10], [2, 20], [3, 30]]),
            ([10, 20, 30, 35, 40], [[10, 30], [20, 30], [35, 40]]),
            ([30, 40], []),
        )

    @staticmethod
    def level2(d, kinds):
        return [r for r in reorg_events(d) if r.level == 2 and r.kind in kinds]

    def test_promotion_by_a_newly_arrived_elector_is_recursive(self):
        d = assert_equals_oracle(self.before(), self.after())
        promoted = self.level2(d, (EventKind.ELECT_MIGRATION,
                                   EventKind.ELECT_RECURSIVE))
        assert promoted == [
            # electors {3, 10}; 3 entered level 1 this step -> (v), other 3
            ReorgEvent(EventKind.ELECT_RECURSIVE, 2, 30, 3),
            # 35 elected only itself -> (iii) with no counterpart
            ReorgEvent(EventKind.ELECT_MIGRATION, 2, 35, None),
        ]
        # Level 1 is never recursive; 3 has no elector but itself.
        assert ReorgEvent(EventKind.ELECT_MIGRATION, 1, 3, None) in reorg_events(d)

    def test_promotion_by_old_electors_is_plain(self):
        d = assert_equals_oracle(self.before(), self.after_old_electors_only())
        assert self.level2(d, (EventKind.ELECT_MIGRATION,
                               EventKind.ELECT_RECURSIVE)) == [
            ReorgEvent(EventKind.ELECT_MIGRATION, 2, 30, 10)]
        assert self.level2(d, (EventKind.REJECT_MIGRATION,
                               EventKind.REJECT_RECURSIVE)) == [
            ReorgEvent(EventKind.REJECT_MIGRATION, 2, 20, 10)]

    def test_demotion_when_an_elector_left_is_recursive(self):
        d = assert_equals_oracle(self.after(), self.before())
        assert self.level2(d, (EventKind.REJECT_MIGRATION,
                               EventKind.REJECT_RECURSIVE)) == [
            ReorgEvent(EventKind.REJECT_RECURSIVE, 2, 30, 3),
            ReorgEvent(EventKind.REJECT_MIGRATION, 2, 35, None),
        ]

    def test_views_are_plain_python_objects(self):
        d = diff_hierarchies(self.before(), self.after())
        ev = migration_events(d)[0]
        assert isinstance(ev, MigrationEvent)
        assert type(ev.node) is int and type(ev.pure) is bool
        assert all(type(r.subject) is int for r in reorg_events(d))

    def shallow(self):
        # The level-1 links of before() are gone, so level 2 never forms.
        return hand_built(
            (self.BASE, [[1, 10], [2, 20], [3, 30]]),
            ([10, 20, 30, 35, 40], []),
        )

    def test_a_level_on_one_side_only(self):
        """Level 2 exists in one snapshot only: its nodes are demoted
        (or promoted) and level 1 loses (or gains) all its links."""
        for h0, h1 in ((self.before(), self.shallow()),
                       (self.shallow(), self.before())):
            d = assert_equals_oracle(h0, h1)
            assert d.link_changes.tolist() == [0, 3, 0]
            assert d.drift_changes.tolist() == [0, 3, 0]
            assert sorted({r.level for r in reorg_events(d)}) == [1, 2]


def profiled_calls(fn, *args) -> int:
    """Python and C calls ``fn(*args)`` makes, as cProfile counts them."""
    profiler = cProfile.Profile()
    profiler.enable()
    fn(*args)
    profiler.disable()
    return pstats.Stats(profiler).total_calls


class TestStackedPass:
    def test_call_count_does_not_grow_with_depth(self):
        """Every level is diffed in one pass: a 5-level pair costs the
        calls a 2-level pair at the same n does, up to a small constant
        (the per-level loops it replaced made ~50 calls per level)."""
        calls, depth = {}, {}
        for max_levels in (2, None):
            h0, h1 = snapshot_sequence(0, n=400, steps=2, drift=2.0,
                                       level_mode="contraction",
                                       max_levels=max_levels, plane="full")
            depth[max_levels] = min(h0.num_levels, h1.num_levels)
            calls[max_levels] = profiled_calls(diff_hierarchies, h0, h1)
        assert depth[2] == 2 and depth[None] >= 5
        assert abs(calls[None] - calls[2]) <= 5
