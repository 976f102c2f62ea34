"""Event-driven plane: hierarchies, hierarchy deltas, partition layout.

Both control planes elect every hierarchy through the run's one
:class:`HierarchyMaintainer`; the event plane feeds it fresh unit-disk
edges, diffs them against the previous hierarchy's level-0 edges
(:func:`link_diff`) and adds :func:`compute_delta`.  The bit-identity
tests drive that hierarchy source against a from-scratch
:func:`build_hierarchy` under drift, crash and partition bursts, and
check each step's diff against a set diff of the reference edges.  The
delta tests pin :class:`HierarchyDelta`'s exactness claims (dirty
cells = exactly the clusters whose member lists changed, arrivals =
exactly the members they gained) on :func:`build_hierarchy` snapshots;
the :class:`LazyClusters` tests pin the CSR partition the dense
rendezvous kernel reads.
"""

import numpy as np
import pytest

from repro.clustering import elect
from repro.geometry import disc_for_density
from repro.hierarchy import (
    HierarchyMaintainer,
    LazyClusters,
    build_hierarchy,
    compute_delta,
)
from repro.radio import radius_for_degree, unit_disk_edges
from repro.radio.linkevents import link_diff

DENSITY = 0.02
R_TX = radius_for_degree(9.0, DENSITY)


def assert_hierarchies_identical(a, b):
    assert a.num_levels == b.num_levels
    for la, lb in zip(a.levels, b.levels):
        assert la.k == lb.k
        assert np.array_equal(la.node_ids, lb.node_ids)
        assert np.array_equal(la.edges, lb.edges)
        ea, eb = la.election, lb.election
        assert (ea is None) == (eb is None)
        if ea is not None:
            assert np.array_equal(ea.node_ids, eb.node_ids)
            assert np.array_equal(ea.elected_head, eb.elected_head)
            assert np.array_equal(ea.member_of, eb.member_of)
            assert np.array_equal(ea.elector_count, eb.elector_count)
            assert np.array_equal(ea.clusterheads, eb.clusterheads)


def event_plane(n, level_mode):
    """The event plane's hierarchy source: fresh unit-disk edges, an
    optional chaos filter, the step's level-0 diff against the previous
    hierarchy's edges (``None`` on the first call), then the run's
    maintainer.  ``advance`` returns ``(hierarchy, diff)``."""
    step = HierarchyMaintainer(n, R_TX, max_levels=3,
                               level_mode=level_mode).update
    prev = None

    def advance(pts, keep=lambda edges: edges):
        nonlocal prev
        edges = keep(unit_disk_edges(pts, R_TX))
        diff = None if prev is None else link_diff(
            prev.levels[0].edges, edges, n)
        prev = step(edges, pts)
        return prev, diff
    return advance


class SetDiffCheck:
    """Compares each step's diff with a python-set diff of the reference
    hierarchies' consecutive level-0 edges."""

    def __init__(self):
        self.prev = None

    def __call__(self, diff, ref):
        cur = {tuple(e) for e in ref.levels[0].edges.tolist()}
        if self.prev is None:
            assert diff is None
        else:
            assert diff.ups.tolist() == sorted(map(list, cur - self.prev))
            assert diff.downs.tolist() == sorted(map(list, self.prev - cur))
        self.prev = cur


class TestBuildModeBitIdentity:
    """Step after step, the event plane's hierarchy is bit-identical to
    the full plane's: fresh unit-disk edges through
    :func:`build_hierarchy`."""

    @pytest.mark.parametrize("seed,drift", [(0, 0.3), (3, 0.8), (9, 2.0)])
    def test_radio_mode_matches_full_rebuild(self, seed, drift):
        n = 130
        rng = np.random.default_rng(seed)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        advance, check = event_plane(n, "radio"), SetDiffCheck()
        for _ in range(12):
            h, diff = advance(pts)
            ref = build_hierarchy(np.arange(n), unit_disk_edges(pts, R_TX),
                                  max_levels=3, level_mode="radio",
                                  positions=pts, r0=R_TX)
            assert_hierarchies_identical(h, ref)
            check(diff, ref)
            pts = pts + rng.normal(scale=drift, size=pts.shape)

    def test_contraction_mode_matches_full_rebuild(self):
        n = 100
        rng = np.random.default_rng(4)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        advance, check = event_plane(n, "contraction"), SetDiffCheck()
        for _ in range(8):
            h, diff = advance(pts)
            ref = build_hierarchy(np.arange(n), unit_disk_edges(pts, R_TX),
                                  max_levels=3, level_mode="contraction")
            assert_hierarchies_identical(h, ref)
            check(diff, ref)
            pts = pts + rng.normal(scale=0.6, size=pts.shape)

    def test_crash_and_partition_bursts(self):
        """Chaos-shaped topology changes: edges filtered by crashed
        nodes and a severed half-plane after the edge source, as the
        simulator's chaos engine filters them."""
        n = 110
        rng = np.random.default_rng(7)
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        advance, check = event_plane(n, "radio"), SetDiffCheck()
        down = np.zeros(n, dtype=bool)
        for step in range(10):
            cut = None
            if step == 3:  # crash burst
                down[rng.choice(n, size=12, replace=False)] = True
            if step == 6:  # repair + partition along x=median
                down[:] = False
                cut = pts[:, 0] < np.median(pts[:, 0])

            def keep(edges):
                if cut is not None:
                    edges = edges[cut[edges[:, 0]] == cut[edges[:, 1]]]
                return edges[~(down[edges[:, 0]] | down[edges[:, 1]])]

            h, diff = advance(pts, keep)
            ref = build_hierarchy(np.arange(n),
                                  keep(unit_disk_edges(pts, R_TX)),
                                  max_levels=3, level_mode="radio",
                                  positions=pts, r0=R_TX)
            assert_hierarchies_identical(h, ref)
            check(diff, ref)
            pts = pts + rng.normal(scale=0.4, size=pts.shape)


class TestHierarchyDelta:
    def _two_snapshots(self, seed=1, drift=0.5, n=120):
        rng = np.random.default_rng(seed)
        pts0 = disc_for_density(n, DENSITY).sample(n, rng)
        pts1 = pts0 + rng.normal(scale=drift, size=pts0.shape)
        mk = lambda p: build_hierarchy(
            np.arange(n), unit_disk_edges(p, R_TX), max_levels=3,
            level_mode="radio", positions=p, r0=R_TX)
        return mk(pts0), mk(pts1)

    def test_full_flag_cases(self):
        h0, h1 = self._two_snapshots()
        assert compute_delta(None, h1).full
        assert compute_delta(h0, None).full
        assert not compute_delta(h0, h1).full

    def test_level_changed_masks_are_exact(self):
        h0, h1 = self._two_snapshots(seed=2)
        d = compute_delta(h0, h1)
        assert not d.level_changed[0].any()
        for k in range(1, h1.num_levels + 1):
            assert np.array_equal(d.level_changed[k],
                                  h0.ancestry(k) != h1.ancestry(k))
        assert any(mask.any() for mask in d.level_changed[1:])

    def test_dirty_cells_are_exactly_changed_member_lists(self):
        """A level-d cell is dirty iff its member list (as a set of
        level-(d-1) IDs) differs between the snapshots — no more, no
        less.  This is the exactness the chain patcher relies on."""
        h0, h1 = self._two_snapshots(seed=5, drift=1.0)
        d = compute_delta(h0, h1)
        for lvl in range(1, h1.num_levels + 1):
            c0 = h0.levels[lvl - 1].election.clusters()
            c1 = h1.levels[lvl - 1].election.clusters()
            expect = sorted(
                cid for cid in set(c0) | set(c1)
                if not np.array_equal(c0.get(cid, np.empty(0)),
                                      c1.get(cid, np.empty(0)))
            )
            assert d.dirty_cells[lvl].tolist() == expect

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_arrivals_are_exactly_the_members_gained(self, seed):
        """``arrivals[d]`` lists, per dirty cell and ascending, the
        level-(d-1) IDs its member list gained — moved in or new to the
        level (the level node sets differ at some level here)."""
        h0, h1 = self._two_snapshots(seed=seed, drift=1.5)
        d = compute_delta(h0, h1)
        assert d.arrivals[0][0].tolist() == [0] and d.arrivals[0][1].size == 0
        new_ids = 0
        for lvl in range(1, h1.num_levels + 1):
            c0 = h0.levels[lvl - 1].election.clusters()
            c1 = h1.levels[lvl - 1].election.clusters()
            starts, members = d.arrivals[lvl]
            assert starts.size == d.dirty_cells[lvl].size + 1
            for i, cid in enumerate(d.dirty_cells[lvl].tolist()):
                gained = np.setdiff1d(c1.get(cid, []), c0.get(cid, []))
                assert members[starts[i]:starts[i + 1]].tolist() == gained.tolist()
            new_ids += np.setdiff1d(h1.levels[lvl - 1].node_ids,
                                    h0.levels[lvl - 1].node_ids).size
        assert new_ids

    def test_identical_snapshots_have_empty_delta(self):
        h0, _ = self._two_snapshots(seed=3)
        d = compute_delta(h0, h0)
        assert not d.full and not d.top_changed
        assert not any(mask.any() for mask in d.level_changed)
        for cells in d.dirty_cells:
            assert cells.size == 0


class TestLazyClusters:
    def test_matches_eager_clusters(self):
        rng = np.random.default_rng(6)
        n = 90
        pts = disc_for_density(n, DENSITY).sample(n, rng)
        el = elect(np.arange(n), unit_disk_edges(pts, R_TX))
        lazy = LazyClusters(el)
        for cid, members in el.clusters().items():
            assert np.array_equal(lazy[int(cid)], members)
        with pytest.raises(KeyError):
            lazy[-1]

    @pytest.mark.parametrize("member_of", [
        [7, 7, 7, 7],                        # one cluster
        [10**7 + 3, 10**7 + 1, 10**7 + 3],   # minted ids, unsorted
        [5],                                 # one node
        [1, 2, 3, 4],                        # all singletons
    ])
    def test_csr_boundaries(self, member_of):
        """``heads``/``starts`` come from the run boundaries of the
        sorted affiliation column — what ``np.unique(...,
        return_index=True)`` would report — and the shared index maps a
        head to its row on either lookup path."""
        from repro.clustering import Election

        member_of = np.asarray(member_of, dtype=np.int64)
        ids = np.arange(member_of.size, dtype=np.int64) + 1
        el = Election(node_ids=ids, elected_head=member_of,
                      member_of=member_of,
                      elector_count=np.zeros_like(ids),
                      clusterheads=np.unique(member_of))
        lazy = LazyClusters(el)
        heads, starts, members = lazy.csr()
        ref_heads, ref_starts = np.unique(np.sort(member_of), return_index=True)
        assert np.array_equal(heads, ref_heads)
        assert np.array_equal(starts, np.append(ref_starts, ids.size))
        assert starts.dtype == np.int64
        assert lazy.index().rows(heads).tolist() == list(range(heads.size))
        for cid in heads.tolist():
            assert np.array_equal(lazy[cid], ids[member_of == cid])

    @pytest.mark.parametrize("clusters", [200, 3000, 70_000])
    def test_counting_sort_at_every_key_width(self, clusters):
        """Head rows sort as 8-, 16- or 32-bit keys; the grouping is a
        stable sort of the affiliation column whichever width."""
        from repro.clustering import Election

        rng = np.random.default_rng(clusters)
        ids = np.sort(rng.choice(10 * clusters, size=2 * clusters, replace=False))
        heads = np.sort(rng.choice(ids, size=clusters, replace=False))
        member_of = heads[rng.integers(0, clusters, size=ids.size)]
        member_of[np.searchsorted(ids, heads)] = heads
        el = Election(node_ids=ids, elected_head=member_of, member_of=member_of,
                      elector_count=np.zeros_like(ids), clusterheads=heads)
        got_heads, starts, members = LazyClusters(el).csr()
        order = np.argsort(member_of, kind="stable")
        assert np.array_equal(got_heads, heads)
        assert np.array_equal(members, ids[order])
        assert np.array_equal(np.diff(starts), np.bincount(
            np.searchsorted(heads, member_of), minlength=clusters))

    @pytest.mark.parametrize("heads", [[7], [3, 7, 9]])
    def test_heads_must_be_the_affiliation_values(self, heads):
        """The CSR groups by the rows of ``clusterheads``: a member whose
        cluster is not a head, or a head with no member, is refused."""
        from repro.clustering import Election

        member_of = np.array([7, 3, 7], dtype=np.int64)
        ids = np.arange(3, dtype=np.int64)
        el = Election(node_ids=ids, elected_head=member_of, member_of=member_of,
                      elector_count=np.zeros_like(ids),
                      clusterheads=np.array(heads, dtype=np.int64))
        with pytest.raises(ValueError, match="affiliation"):
            LazyClusters(el).csr()


class TestModesAndValidation:
    def test_constructor_validation(self):
        """The maintainer refuses an unknown election mode, an unknown
        level link model and persistent IDs without the radio model when
        it is built."""
        with pytest.raises(ValueError, match="election_mode"):
            HierarchyMaintainer(10, R_TX, election_mode="bogus")
        with pytest.raises(ValueError, match="level_mode"):
            HierarchyMaintainer(10, R_TX, level_mode="bogus")
        with pytest.raises(ValueError, match="radio level_mode"):
            HierarchyMaintainer(10, R_TX, level_mode="contraction",
                                election_mode="persistent")

    def test_radio_advance_requires_positions(self):
        m = HierarchyMaintainer(10, 1.0)
        with pytest.raises(ValueError, match="positions"):
            m.update(np.array([[0, 1]], dtype=np.int64), None)
