"""Tests for CHLM server selection (Section 3.2 descent)."""

import numpy as np
import pytest

from repro.core import ServerAssignment, full_assignment, lm_levels
from repro.core.servers import _DescentCells
from repro.geometry import disc_for_density
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges

from .descent_oracle import (
    naive_circular_choice,
    recorded_chains,
    rendezvous_choice,
    select_server,
    server_map,
)


def make_hierarchy(n, seed=0, density=0.02, degree=9.0):
    region = disc_for_density(n, density)
    rng = np.random.default_rng(seed)
    pts = region.sample(n, rng)
    edges = unit_disk_edges(pts, radius_for_degree(degree, density))
    return build_hierarchy(np.arange(n), edges)


@pytest.fixture(scope="module")
def h300():
    h = make_hierarchy(300, seed=1)
    assert h.num_levels >= 2
    return h


def assert_naive_matches_oracle(h, assignment):
    """Every (subject, level) entry of a naive assignment is the scalar
    Eq. (5) descent's, and every level 2..``lm_levels(h)`` has a column."""
    levels = range(2, lm_levels(h) + 1)
    assert sorted(assignment.tables) == list(levels)
    for subject in h.levels[0].node_ids.tolist():
        for level in levels:
            assert assignment.server_of(subject, level) == select_server(
                h, subject, level, "naive"), (subject, level)


class TestSelectServer:
    def test_server_inside_subjects_cluster(self, h300):
        """The level-k server must be a physical node of the subject's
        level-k cluster — that is the whole point of the placement."""
        for subject in range(0, 300, 29):
            for level in range(2, h300.num_levels + 1):
                srv = select_server(h300, subject, level)
                assert srv is not None
                members = h300.members0(level, h300.cluster_of(subject, level))
                assert srv in members.tolist()

    def test_global_level_server(self, h300):
        """The virtual global level (L+1) serves every subject from the
        whole network (the paper's single top cluster, capped-L form)."""
        top = lm_levels(h300)
        assert top == h300.num_levels + 1
        srv = select_server(h300, 0, top)
        assert srv is not None
        assert 0 <= srv < 300
        assert select_server(h300, 0, top + 1) is None

    def test_level_validation(self, h300):
        with pytest.raises(ValueError):
            select_server(h300, 0, 1)
        assert select_server(h300, 0, h300.num_levels + 2) is None

    def test_deterministic(self, h300):
        assert select_server(h300, 42, 2) == select_server(h300, 42, 2)

    def test_unknown_hash(self, h300):
        with pytest.raises(ValueError, match="unknown hash 'md5'; known: naive, rendezvous"):
            full_assignment(h300, hash_fn="md5")

    def test_naive_hash_works(self, h300):
        srv = select_server(h300, 10, 2, hash_fn="naive")
        members = h300.members0(2, h300.cluster_of(10, 2))
        assert srv in members.tolist()


class TestFullAssignment:
    def test_matches_scalar_descent(self, h300):
        servers = server_map(full_assignment(h300))
        for subject in range(0, 300, 41):
            for level in range(2, lm_levels(h300) + 1):
                assert servers[(subject, level)] == select_server(
                    h300, subject, level
                )

    def test_complete_coverage(self, h300):
        a = full_assignment(h300)
        # Levels 2..L plus the virtual global level: L entries each.
        expected = 300 * h300.num_levels
        assert len(server_map(a)) == expected

    def test_shallow_hierarchy_has_global_level_only(self):
        h = build_hierarchy([1, 2], [[1, 2]])
        assert h.num_levels == 1
        a = full_assignment(h)
        # Only the virtual global level (level 2) exists.
        assert set(lvl for _, lvl in server_map(a)) == {2}
        assert len(server_map(a)) == 2

    def test_load_is_logarithmic_scale(self, h300):
        """Each node serves Theta(log|V|) entries on average (Section
        3.2's closing observation): total entries = n*(L-1), so the mean
        over nodes is L-1; the max should stay within a small factor."""
        a = full_assignment(h300)
        load = a.load()
        total = sum(load.values())
        assert total == 300 * h300.num_levels
        mean = total / 300
        assert max(load.values()) < mean * 30

    def test_servers_of(self, h300):
        a = full_assignment(h300)
        per_level = a.servers_of(7)
        assert set(per_level) == set(range(2, lm_levels(h300) + 1))

    def test_entries_served_by(self, h300):
        a = full_assignment(h300)
        servers = server_map(a)
        some_server = next(iter(servers.values()))
        entries = a.entries_served_by(some_server)
        assert set(entries) == {k for k, s in servers.items() if s == some_server}
        assert entries

    def test_naive_assignment_runs(self, h300):
        a = full_assignment(h300, hash_fn="naive")
        assert type(a) is ServerAssignment
        assert_naive_matches_oracle(h300, a)


class TestLoadBalanceComparison:
    def test_rendezvous_beats_naive(self):
        """EXP-T7 kernel: rendezvous max-load should be well below the
        naive Eq. (5) hash's max-load on the same hierarchy."""
        h = make_hierarchy(500, seed=3)
        ren = full_assignment(h, "rendezvous").load()
        nai = full_assignment(h, "naive").load()
        assert max(ren.values()) < max(nai.values())


def assert_cells_are_recorded(h, assignment):
    """Every cell the rendezvous descents over ``h`` consulted, as
    ``_DescentCells`` reads it back from ``assignment``'s servers,
    equals the one the recording descent kept — every (level, depth),
    depth 0 being the server."""
    chains = recorded_chains(h)
    assert sorted(chains) == sorted(assignment.tables)
    cells = _DescentCells(h, assignment.tables)
    for level, chain in chains.items():
        assert sorted(chain) == list(range(min(level, h.num_levels) + 1))
        for depth, recorded in chain.items():
            assert np.array_equal(cells(level, depth), recorded), (level, depth)
            rows = np.arange(0, recorded.size, 3)
            assert np.array_equal(cells(level, depth, rows), recorded[rows])


class TestChainedAssignment:
    """Incremental CHLM: descent chains + dirty-cluster patching.

    The chain a rendezvous descent consumed is read back from its server
    (``_DescentCells``) rather than stored, and ``patch_assignment``
    must keep equality with a fresh ``full_assignment`` over churn while
    only re-descending dirty rows."""

    def _snapshots(self, seed, steps=6, n=120, drift=0.6):
        from repro.geometry import disc_for_density

        rng = np.random.default_rng(seed)
        density = 0.02
        r_tx = radius_for_degree(9.0, density)
        pts = disc_for_density(n, density).sample(n, rng)
        out = []
        for _ in range(steps):
            edges = unit_disk_edges(pts, r_tx)
            out.append(build_hierarchy(np.arange(n), edges, max_levels=3,
                                       level_mode="radio", positions=pts,
                                       r0=r_tx))
            pts = pts + rng.normal(scale=drift, size=pts.shape)
        return out

    def test_chains_match_full_assignment(self):
        for h in self._snapshots(seed=0, steps=2):
            chained = full_assignment(h, "rendezvous")
            chains = recorded_chains(h)
            for level, chain in chains.items():
                if level <= h.num_levels:
                    assert np.array_equal(chain[level], h.ancestry(level))
                # Each recorded cell is a level-`depth` cluster id.
                for depth, cells in chain.items():
                    assert np.isin(cells, h.levels[depth].node_ids).all()
            assert_cells_are_recorded(h, chained)
            servers = server_map(chained)
            for subject in (0, 17, 119):
                for level in chained.tables:
                    assert servers[(subject, level)] == select_server(
                        h, subject, level)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_patching_matches_full_assignment_over_churn(self, seed):
        from repro.core import patch_assignment
        from repro.hierarchy import compute_delta

        snaps = self._snapshots(seed=seed)
        prev_h = snaps[0]
        chained = full_assignment(prev_h)
        for h in snaps[1:]:
            delta = compute_delta(prev_h, h)
            assert not delta.full
            prev_tables = chained.tables
            chained, dirty_rows = patch_assignment(chained, h, delta)
            ref = full_assignment(h, "rendezvous")
            assert server_map(chained) == server_map(ref)
            assert_cells_are_recorded(h, chained)
            # Dirty rows are sound: every row whose server actually
            # changed is flagged.
            for level, table in ref.tables.items():
                changed = np.flatnonzero(prev_tables[level] != table)
                assert np.isin(changed, dirty_rows.get(level, [])).all()
            prev_h = h

    def test_patch_rejects_full_delta(self):
        from repro.core import patch_assignment
        from repro.hierarchy import compute_delta

        h = self._snapshots(seed=2, steps=1)[0]
        chained = full_assignment(h)
        with pytest.raises(ValueError):
            patch_assignment(chained, h, compute_delta(None, h))


class TestDescentCells:
    """``_DescentCells`` reads every cell of every rendezvous descent
    back from the servers; the recording descent (``recorded_chains``)
    is its oracle, over every (level, depth)."""

    @pytest.mark.parametrize("seed,max_levels", [(0, None), (3, 2), (5, 4)])
    def test_memoryless_hierarchies(self, seed, max_levels):
        """Drifting unit-disk networks; ``max_levels=2`` caps the top
        level, so the global stage picks among many nodes."""
        n, density = 200, 0.02
        r_tx = radius_for_degree(9.0, density)
        rng = np.random.default_rng(seed)
        pts = disc_for_density(n, density).sample(n, rng)
        for _ in range(4):
            h = build_hierarchy(np.arange(n), unit_disk_edges(pts, r_tx),
                                max_levels=max_levels, level_mode="radio",
                                positions=pts, r0=r_tx)
            assert_cells_are_recorded(h, full_assignment(h))
            pts = pts + rng.normal(scale=1.5, size=pts.shape)
        if max_levels == 2:
            assert h.levels[-1].node_ids.size > 5

    def test_persistent_hierarchies(self):
        """Minted cluster IDs >= 10^7: the ancestries the cells are read
        from hold IDs no base node has."""
        from repro.hierarchy import HierarchyMaintainer

        n, density = 150, 0.02
        r_tx = radius_for_degree(9.0, density)
        rng = np.random.default_rng(8)
        pts = disc_for_density(n, density).sample(n, rng)
        maintainer = HierarchyMaintainer(n, r_tx, max_levels=3,
                                         election_mode="persistent")
        for _ in range(6):
            h = maintainer.update(unit_disk_edges(pts, r_tx), positions=pts)
            assert int(h.levels[1].node_ids.min()) >= 10**7
            assert_cells_are_recorded(h, full_assignment(h))
            pts = pts + rng.normal(scale=0.7, size=pts.shape)

    def test_singleton_clusters_and_the_global_level(self):
        """Singleton cells at depths 1 and 2, a one-node top level (the
        global stage has one candidate), and a one-level hierarchy whose
        only LM level is the virtual global one."""
        cid = 10**7
        for top in ([2 * cid] * 3 + [2 * cid + 7], [2 * cid] * 4):
            h = cid_hierarchy(
                [cid + 1, cid + 2, cid + 2, cid + 3, cid + 3, cid + 3, cid + 4],
                top)
            assert_cells_are_recorded(h, full_assignment(h))
        h = build_hierarchy([1, 2, 5], [[1, 2]])
        assert h.num_levels == 1 and lm_levels(h) == 2
        assert_cells_are_recorded(h, full_assignment(h))


def assert_patch_equals_rebuild(prev, h, delta):
    """Patch ``prev`` onto ``h`` and require the result to be
    ``full_assignment(h)`` — every table, and so every cell its descents
    consulted, read back (``_DescentCells``) equal to the recording
    descent's — with the dirty rows exactly the rows whose server
    differs, the columns of the other levels shared with ``prev``, and
    nothing of ``prev`` written in place."""
    from repro.core import patch_assignment

    before_tables = {lvl: t.copy() for lvl, t in prev.tables.items()}
    patched, dirty_rows = patch_assignment(prev, h, delta)
    ref = full_assignment(h)
    assert sorted(patched.tables) == sorted(ref.tables)
    for level, table in ref.tables.items():
        assert np.array_equal(patched.tables[level], table)
        changed = np.flatnonzero(before_tables[level] != table)
        assert np.array_equal(
            dirty_rows.get(level, np.empty(0, dtype=np.int64)), changed)
        if level not in dirty_rows and level in prev.tables:
            assert patched.tables[level] is prev.tables[level]
    assert_cells_are_recorded(h, patched)
    assert all(rows.size for rows in dirty_rows.values())
    for level, table in before_tables.items():
        assert np.array_equal(prev.tables[level], table)
    return patched, dirty_rows


def cid_hierarchy(member_of_1, member_of_2):
    """Base nodes ``0..len(member_of_1) - 1`` under hand-made
    (persistent-style) cluster IDs: ``member_of_1`` affiliates the base
    nodes, ``member_of_2`` the level-1 clusters; level 2 is the top."""
    from repro.clustering import Election
    from repro.hierarchy import ClusteredHierarchy, LevelTopology

    def election(ids, member_of):
        ids = np.asarray(ids, dtype=np.int64)
        member_of = np.asarray(member_of, dtype=np.int64)
        return Election(node_ids=ids, elected_head=member_of,
                        member_of=member_of,
                        elector_count=np.zeros(ids.size, dtype=np.int64),
                        clusterheads=np.unique(member_of))

    no_edges = np.empty((0, 2), dtype=np.int64)
    e0 = election(np.arange(len(member_of_1)), member_of_1)
    e1 = election(e0.clusterheads, member_of_2)
    return ClusteredHierarchy([
        LevelTopology(0, e0.node_ids, no_edges, e0),
        LevelTopology(1, e1.node_ids, no_edges, e1),
        LevelTopology(2, e1.clusterheads, no_edges, None),
    ])


class TestStagewisePatch:
    """``patch_assignment`` patches stage by stage with rendezvous
    hashing's minimal disruption: a row re-hashes in full only when its
    consulted cluster moved or its holder left the cluster; a holder
    whose cluster gained members meets just the arrivals; a row whose
    winner comes out unchanged goes no deeper.  Every case is checked
    against ``full_assignment``."""

    @staticmethod
    def _count_stage_rows(monkeypatch, h):
        """Rows sent to the stage kernel, keyed by (level, depth)."""
        from repro.core import servers

        depth_of = {servers._stage_salt(level, depth): (level, depth)
                    for level in range(2, lm_levels(h) + 1)
                    for depth in range(1, level + 1)}
        rows: dict[tuple[int, int], int] = {}
        real = servers._vectorized_rendezvous_stage

        def counting(subjects, current, partition, salt):
            # One fused call per depth: a salt per row (the global stage
            # passes a scalar).
            salts, counts = np.unique(
                np.broadcast_to(salt, np.shape(current)), return_counts=True)
            for s, c in zip(salts.tolist(), counts.tolist()):
                rows[depth_of[s]] = rows.get(depth_of[s], 0) + c
            return real(subjects, current, partition, salt)

        monkeypatch.setattr(servers, "_vectorized_rendezvous_stage", counting)
        return rows

    def test_fuzz_over_consecutive_deltas(self):
        from repro.hierarchy import compute_delta

        n, density = 150, 0.02
        r_tx = radius_for_degree(9.0, density)
        rng = np.random.default_rng(3)
        pts = disc_for_density(n, density).sample(n, rng)
        prev_h = chained = None
        patched = top_changed = 0
        for _ in range(70):
            h = build_hierarchy(np.arange(n), unit_disk_edges(pts, r_tx),
                                max_levels=3, level_mode="radio",
                                positions=pts, r0=r_tx)
            delta = compute_delta(prev_h, h)
            if delta.full:
                chained = full_assignment(h)
            else:
                chained, _ = assert_patch_equals_rebuild(chained, h, delta)
                patched += 1
                top_changed += delta.top_changed
            prev_h = h
            pts = pts + rng.normal(scale=0.6, size=pts.shape)
        assert patched >= 50 and 3 <= top_changed < patched

    def test_churn_fuzz_on_four_levels(self):
        """The depth-outer patch over mixed churn at n = 300 on four
        levels — steps from a jitter that flips no link to one that moves
        the top level — returns the tables, chains and dirty rows of a
        rebuild; a sample of entries is also checked against the scalar
        descent, so patch and rebuild cannot be wrong together."""
        from repro.hierarchy import compute_delta

        n, density = 300, 0.02
        r_tx = radius_for_degree(9.0, density)
        rng = np.random.default_rng(12)
        pts = disc_for_density(n, density).sample(n, rng)
        prev_h = chained = None
        patched = top_changed = no_dirty_cell = rows_moved = 0
        for step in range(64):
            h = build_hierarchy(np.arange(n), unit_disk_edges(pts, r_tx),
                                max_levels=4, level_mode="radio",
                                positions=pts, r0=r_tx)
            delta = compute_delta(prev_h, h)
            if delta.full:
                chained = full_assignment(h)
            else:
                chained, dirty_rows = assert_patch_equals_rebuild(
                    chained, h, delta)
                patched += 1
                top_changed += delta.top_changed
                no_dirty_cell += not any(c.size for c in delta.dirty_cells)
                rows_moved += sum(r.size for r in dirty_rows.values())
                for subject in rng.choice(n, size=4, replace=False).tolist():
                    for level in range(2, lm_levels(h) + 1):
                        assert chained.server_of(subject, level) == \
                            select_server(h, subject, level)
            prev_h = h
            scale = (0.0, 1e-9, 0.2, 0.8, 2.5)[step % 5]
            pts = pts + rng.normal(scale=scale, size=pts.shape)
        assert patched >= 50 and rows_moved > 0
        assert top_changed >= 1 and no_dirty_cell >= 1

    def test_persistent_cluster_ids_take_the_sorted_index(self):
        """Minted cluster IDs >= 10^7 are too sparse for a lookup table."""
        from repro.hierarchy import LazyClusters, compute_delta
        from repro.hierarchy import HierarchyMaintainer

        n, density = 120, 0.02
        r_tx = radius_for_degree(9.0, density)
        rng = np.random.default_rng(6)
        pts = disc_for_density(n, density).sample(n, rng)
        maintainer = HierarchyMaintainer(n, r_tx, max_levels=3,
                                         election_mode="persistent")
        prev_h = chained = None
        patched = 0
        for _ in range(16):
            h = maintainer.update(unit_disk_edges(pts, r_tx), positions=pts)
            delta = compute_delta(prev_h, h)
            if delta.full:
                chained = full_assignment(h)
            else:
                chained, _ = assert_patch_equals_rebuild(chained, h, delta)
                patched += 1
            prev_h = h
            pts = pts + rng.normal(scale=0.7, size=pts.shape)
        assert patched >= 10
        index = LazyClusters(prev_h.levels[0].election).index()
        assert int(index.ids.min()) >= 10**7 and index._table is None

    def test_renamed_cluster_with_the_same_members(self, monkeypatch):
        """A head change that keeps the member set: every row re-hashes
        at the renamed depth, every winner comes out unchanged, and no
        row reaches the stage below."""
        from repro.core import patch_assignment
        from repro.hierarchy import compute_delta

        cid = 10**7
        affiliation = [cid + 1] * 3 + [cid + 2] * 3
        h0 = cid_hierarchy(affiliation, [2 * cid, 2 * cid])
        h1 = cid_hierarchy(affiliation, [2 * cid + 5, 2 * cid + 5])
        delta = compute_delta(h0, h1)
        assert delta.top_changed and delta.level_changed[2].all()
        prev = full_assignment(h0)
        rows = self._count_stage_rows(monkeypatch, h1)
        patch_assignment(prev, h1, delta)
        monkeypatch.undo()
        # (3, 3) is the global stage over the renamed top-level node.
        assert rows == {(2, 2): 6, (3, 3): 6, (3, 2): 6}
        patched, dirty_rows = assert_patch_equals_rebuild(prev, h1, delta)
        assert dirty_rows == {}
        assert patched.tables[2] is prev.tables[2]
        assert _DescentCells(h1, patched.tables)(2, 2).tolist() == [2 * cid + 5] * 6

    def test_dirty_only_at_depth_one_hashes_no_upper_stage(self, monkeypatch):
        """Node 2 re-affiliating from cluster c1 = cid + 1 = {0, 1, 2} to
        c2 = cid + 2 = {3, 4, 5} dirties depth 1 only: no stage above it
        sees a row.  At depth 1 the recorded assignment reads

            level 2: cells (c2, c2, c1, c1, c1, c1), servers (4, 4, 0, 2, 0, 1)
            level 3: cells (c1, c2, c2, c2, c1, c2), servers (2, 4, 4, 3, 2, 3)

        for subjects 0..5.  Node 2 held (2, 3), (3, 0) and (3, 4) in c1
        and left it: those three rows re-hash over c1 = {0, 1} — kernel
        rows {(2, 1): 1, (3, 1): 2}.  The other c1 rows keep holders 0 and
        1, which stayed, and c1 gained nobody: no hash.  The six c2 rows
        keep holders 3 and 4 against the one arrival, node 2: one
        challenge call of six rows, no kernel row."""
        from repro.core import patch_assignment
        from repro.hierarchy import compute_delta

        cid = 10**7
        h0 = cid_hierarchy([cid + 1] * 3 + [cid + 2] * 3, [2 * cid, 2 * cid])
        h1 = cid_hierarchy([cid + 1] * 2 + [cid + 2] * 4, [2 * cid, 2 * cid])
        delta = compute_delta(h0, h1)
        assert [c.size for c in delta.dirty_cells] == [0, 2, 0]
        assert delta.arrivals[1][0].tolist() == [0, 0, 1]
        assert delta.arrivals[1][1].tolist() == [2]
        assert not delta.top_changed and not delta.level_changed[2].any()
        prev = full_assignment(h0)
        cells = _DescentCells(h0, prev.tables)
        assert (cells(2, 1) - cid).tolist() == [2, 2, 1, 1, 1, 1]
        assert prev.tables[2].tolist() == [4, 4, 0, 2, 0, 1]
        assert (cells(3, 1) - cid).tolist() == [1, 2, 2, 2, 1, 2]
        assert prev.tables[3].tolist() == [2, 4, 4, 3, 2, 3]
        rows = self._count_stage_rows(monkeypatch, h1)
        challenged = self._count_challenge_rows(monkeypatch)
        patch_assignment(prev, h1, delta)
        monkeypatch.undo()
        assert rows == {(2, 1): 1, (3, 1): 2}
        assert challenged == [(6, 1)]
        assert_patch_equals_rebuild(prev, h1, delta)

    @staticmethod
    def _count_challenge_rows(monkeypatch):
        """One ``(rows, most arrivals a row met)`` entry per call of the
        arrivals-only challenge."""
        from repro.core import servers

        calls: list[tuple[int, int]] = []
        real = servers._challenge_stage

        def counting(keys, holder, cell, arrivals):
            starts, _ = arrivals
            calls.append((holder.size, int((starts[cell + 1] - starts[cell]).max())))
            return real(keys, holder, cell, arrivals)

        monkeypatch.setattr(servers, "_challenge_stage", counting)
        return calls

    @staticmethod
    def _two_cells(cid, moves=None):
        """Base nodes 0..4 in c1 = cid + 1 and 5..7 in c2 = cid + 2 under
        one top cluster, with ``moves`` ({node: new cell}) applied."""
        affiliation = [cid + 1] * 5 + [cid + 2] * 3
        for node, cell in (moves or {}).items():
            affiliation[node] = cell
        return cid_hierarchy(affiliation, [2 * cid] * 2)

    @staticmethod
    def _consulting(h0, prev, cell, depth=1):
        """Per level, the rows whose descent over ``h0`` consulted
        ``cell`` at ``depth`` (``prev`` is ``full_assignment(h0)``)."""
        cells = _DescentCells(h0, prev.tables)
        return {lvl: np.flatnonzero(cells(lvl, depth) == cell)
                for lvl in prev.tables}

    # Small cluster IDs take IdIndex's lookup table, minted ones its search.
    ids_both_ways = pytest.mark.parametrize("cid", [100, 10**7])

    @ids_both_ways
    def test_holder_leaving_its_cell_is_rehashed(self, monkeypatch, cid):
        """A holder that leaves its depth-1 cell re-hashes exactly the rows
        it held there; the rows of the cell it joins only meet it as an
        arrival, and the other holders of its old cell are not hashed."""
        from repro.core import patch_assignment
        from repro.hierarchy import compute_delta

        h0 = self._two_cells(cid)
        prev = full_assignment(h0)
        in_c1 = self._consulting(h0, prev, cid + 1)
        holder = int(prev.tables[2][in_c1[2][0]])
        h1 = self._two_cells(cid, {holder: cid + 2})
        delta = compute_delta(h0, h1)
        held = {lvl: rows[prev.tables[lvl][rows] == holder]
                for lvl, rows in in_c1.items()}
        joined = sum(r.size for r in self._consulting(h0, prev, cid + 2).values())
        rows = self._count_stage_rows(monkeypatch, h1)
        challenged = self._count_challenge_rows(monkeypatch)
        patch_assignment(prev, h1, delta)
        monkeypatch.undo()
        assert rows == {(lvl, 1): r.size for lvl, r in held.items() if r.size}
        assert challenged == [(joined, 1)]
        patched, dirty_rows = assert_patch_equals_rebuild(prev, h1, delta)
        for lvl, r in held.items():
            assert np.isin(r, dirty_rows.get(lvl, [])).all()
            assert not (patched.tables[lvl][r] == holder).any()

    @ids_both_ways
    def test_cell_that_only_shrank_hashes_nothing(self, monkeypatch, cid):
        """A member that served no row leaves c1: every row consulting c1
        keeps its holder without a hash — no kernel row at any stage — and
        c2's rows meet it as their one arrival."""
        from repro.core import patch_assignment
        from repro.hierarchy import compute_delta

        h0 = self._two_cells(cid)
        prev = full_assignment(h0)
        served = {int(s) for lvl, rows in self._consulting(h0, prev, cid + 1).items()
                  for s in prev.tables[lvl][rows]}
        idle = [v for v in range(5) if v not in served]
        assert idle
        h1 = self._two_cells(cid, {idle[0]: cid + 2})
        delta = compute_delta(h0, h1)
        joined = sum(r.size for r in self._consulting(h0, prev, cid + 2).values())
        rows = self._count_stage_rows(monkeypatch, h1)
        challenged = self._count_challenge_rows(monkeypatch)
        patch_assignment(prev, h1, delta)
        monkeypatch.undo()
        assert rows == {}
        assert challenged == [(joined, 1)]
        patched, _ = assert_patch_equals_rebuild(prev, h1, delta)
        for lvl, r in self._consulting(h0, prev, cid + 1).items():
            assert np.array_equal(patched.tables[lvl][r], prev.tables[lvl][r])

    @ids_both_ways
    def test_one_arrival_against_each_holder(self, cid):
        """Each member of c2 joins c1 in turn.  A row consulting c1 moves
        to the arrival exactly where the scalar oracle prefers it to the
        row's holder; across the three moves the arrival both beats a
        holder and loses to one."""
        from repro.core.servers import _stage_salt
        from repro.hierarchy import compute_delta

        h0 = self._two_cells(cid)
        prev = full_assignment(h0)
        outcomes = set()
        for arrival in (5, 6, 7):
            h1 = self._two_cells(cid, {arrival: cid + 1})
            patched, _ = assert_patch_equals_rebuild(
                prev, h1, compute_delta(h0, h1))
            for lvl, rows in self._consulting(h0, prev, cid + 1).items():
                for r in rows.tolist():
                    holder = int(prev.tables[lvl][r])
                    won = rendezvous_choice(
                        r, _stage_salt(lvl, 1), [holder, arrival]) == arrival
                    assert patched.tables[lvl][r] == (arrival if won else holder)
                    outcomes.add(won)
        assert outcomes == {True, False}

    @ids_both_ways
    def test_several_arrivals(self, monkeypatch, cid):
        """Nodes 5 and 6 join c1 together: each c1 row meets both in two
        challenge rounds, and the result is the rebuild's."""
        from repro.hierarchy import compute_delta

        h0 = self._two_cells(cid)
        prev = full_assignment(h0)
        h1 = self._two_cells(cid, {5: cid + 1, 6: cid + 1})
        delta = compute_delta(h0, h1)
        assert delta.dirty_cells[1].tolist() == [cid + 1, cid + 2]
        assert delta.arrivals[1][0].tolist() == [0, 2, 2]
        assert delta.arrivals[1][1].tolist() == [5, 6]
        stayed = sum(r.size for r in self._consulting(h0, prev, cid + 1).values())
        challenged = self._count_challenge_rows(monkeypatch)
        assert_patch_equals_rebuild(prev, h1, delta)
        assert challenged == [(stayed, 2)]

    @pytest.mark.parametrize("arrival,wins", [(7, True), (0, False)])
    def test_tie_between_holder_and_arrival_goes_to_the_larger_id(
            self, monkeypatch, arrival, wins):
        """With every weight forced equal each stage picks its largest
        candidate: every descent enters c2 = {3, 4, 5} and is served by 5.
        An arrival tying with holder 5 takes over if its ID is larger (7)
        and not if smaller (0) — as in the rebuild."""
        from repro.hierarchy import compute_delta

        monkeypatch.setattr(
            "repro.core.hashing.mix64",
            lambda x, out=None: np.zeros_like(np.asarray(x, dtype=np.uint64)))
        cid = 10**7
        affiliation = [cid + 1] * 3 + [cid + 2] * 3 + [cid + 1] * 2
        h0 = cid_hierarchy(affiliation, [2 * cid] * 2)
        prev = full_assignment(h0)
        assert all((t == 5).all() for t in prev.tables.values())
        affiliation[arrival] = cid + 2
        h1 = cid_hierarchy(affiliation, [2 * cid] * 2)
        challenged = self._count_challenge_rows(monkeypatch)
        patched, _ = assert_patch_equals_rebuild(
            prev, h1, compute_delta(h0, h1))
        assert challenged == [(16, 1)]
        server = arrival if wins else 5
        assert all((t == server).all() for t in patched.tables.values())

    @ids_both_ways
    def test_arrival_new_to_the_level(self, monkeypatch, cid):
        """Nodes 6 and 7 split off c2 into a new cluster c3 = cid + 3, so
        the top cell gains an ID level 1 never had.  Each depth-2 row
        keeps its holder (c1 or c2, both stayed) against that arrival;
        where c3 wins the row re-hashes over c3 at depth 1, and rows still
        in c2 re-hash there only if 6 or 7 served them."""
        from repro.core import patch_assignment
        from repro.hierarchy import compute_delta

        h0 = self._two_cells(cid)
        h1 = cid_hierarchy([cid + 1] * 5 + [cid + 2] + [cid + 3] * 2,
                           [2 * cid] * 3)
        delta = compute_delta(h0, h1)
        assert delta.dirty_cells[2].tolist() == [2 * cid]
        assert delta.arrivals[2][1].tolist() == [cid + 3]
        prev = full_assignment(h0)
        rows = self._count_stage_rows(monkeypatch, h1)
        challenged = self._count_challenge_rows(monkeypatch)
        patch_assignment(prev, h1, delta)
        monkeypatch.undo()
        assert challenged[0] == (16, 1)  # depth 2: 8 subjects x levels 2, 3
        patched, _ = assert_patch_equals_rebuild(prev, h1, delta)
        expect = {}
        cells = _DescentCells(h1, patched.tables)
        for lvl in prev.tables:
            now = cells(lvl, 1)
            lost = (now == cid + 2) & np.isin(prev.tables[lvl], [6, 7])
            count = int(np.count_nonzero((now == cid + 3) | lost))
            if count:
                expect[(lvl, 1)] = count
        assert expect and rows == expect

    @ids_both_ways
    def test_holder_leaving_the_level(self, monkeypatch, cid):
        """The reverse: c3 dissolves into c2, so its ID leaves level 1.
        The depth-2 rows it held find no such node in the new election
        and re-hash in full; the others keep their holders, since the top
        cell only shrank."""
        from repro.core import patch_assignment
        from repro.hierarchy import compute_delta

        h0 = cid_hierarchy([cid + 1] * 5 + [cid + 2] + [cid + 3] * 2,
                           [2 * cid] * 3)
        h1 = self._two_cells(cid)
        delta = compute_delta(h0, h1)
        assert delta.dirty_cells[2].tolist() == [2 * cid]
        assert delta.arrivals[2][1].size == 0
        prev = full_assignment(h0)
        held = {lvl: r.size for lvl, r in self._consulting(h0, prev, cid + 3).items()}
        assert any(held.values())
        rows = self._count_stage_rows(monkeypatch, h1)
        patch_assignment(prev, h1, delta)
        monkeypatch.undo()
        assert {key: k for key, k in rows.items() if key[1] == 2} == {
            (lvl, 2): k for lvl, k in held.items() if k}
        assert_patch_equals_rebuild(prev, h1, delta)

    def test_unknown_cluster_still_raises(self):
        """A recorded cell the partition lacks is caught on the rows that
        get hashed: a forged delta claims ``h`` follows a hierarchy whose
        cell c9 = cid + 9 (nodes 0..2) only went dirty, where ``h`` has
        no such cluster, so the holders in c9 "left" it and re-hash
        there."""
        import dataclasses

        from repro.core import patch_assignment
        from repro.hierarchy import compute_delta

        cid = 10**7
        h = cid_hierarchy([cid + 1] * 3 + [cid + 2] * 3, [2 * cid, 2 * cid])
        forged = cid_hierarchy([cid + 9] * 3 + [cid + 2] * 3, [2 * cid, 2 * cid])
        prev = full_assignment(forged)
        delta = dataclasses.replace(compute_delta(h, h), h0=forged)
        delta.dirty_cells[1] = np.array([cid + 9])
        delta.arrivals[1] = (np.array([0, 0]), np.empty(0, dtype=np.int64))
        assert (_DescentCells(forged, prev.tables)(2, 1) == cid + 9).any()
        with pytest.raises(KeyError, match="cluster the partition lacks"):
            patch_assignment(prev, h, delta)


class TestRendezvousKernel:
    """The segmented stage vs the scalar oracle ``rendezvous_choice``,
    one subject at a time — including the tie-break rule."""

    @staticmethod
    def _csr(partition):
        heads = np.array(sorted(partition), dtype=np.int32)
        sizes = [len(partition[c]) for c in heads.tolist()]
        members = np.concatenate(
            [np.asarray(partition[c], dtype=np.int32) for c in heads.tolist()])
        return heads, np.concatenate([[0], np.cumsum(sizes)]), members

    @staticmethod
    def _assert_matches_oracle(subjects, current, partition, salt):
        from repro.core.servers import _vectorized_rendezvous_stage

        out = _vectorized_rendezvous_stage(
            subjects, current, TestRendezvousKernel._csr(partition), salt)
        assert out.dtype == np.int32 and out.shape == subjects.shape
        for s, c, got in zip(subjects.tolist(), current.tolist(), out.tolist()):
            assert got == rendezvous_choice(s, salt, partition[c]), (s, c)

    @staticmethod
    def _random_case(rng, subjects=200):
        """Gappy cluster ids, ascending member lists, many singletons."""
        heads = rng.choice(10_000, size=int(rng.integers(1, 30)), replace=False)
        partition = {
            int(c): np.sort(rng.choice(
                100_000, size=int(rng.choice([1, 1, 2, 5, 40])), replace=False))
            for c in heads
        }
        subj = rng.integers(0, 1 << 40, size=subjects).astype(np.int64)
        current = rng.choice(heads, size=subjects).astype(np.int64)
        return subj, current, partition

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        subj, current, partition = self._random_case(rng)
        self._assert_matches_oracle(subj, current, partition, salt=seed * 977 + 3)

    def test_chunk_boundaries(self, monkeypatch):
        """Blocks are an implementation detail: a block size that splits
        the batch unevenly changes nothing."""
        from repro.core import servers

        subj, current, partition = self._random_case(np.random.default_rng(11))
        whole = servers._vectorized_rendezvous_stage(
            subj, current, self._csr(partition), 5)
        monkeypatch.setattr(servers, "_BLOCK_PAIRS", 7)
        self._assert_matches_oracle(subj, current, partition, salt=5)
        assert np.array_equal(whole, servers._vectorized_rendezvous_stage(
            subj, current, self._csr(partition), 5))

    @staticmethod
    def _every_size_case(k_max=24, per_size=5):
        """One cluster of every size 1..k_max, ``per_size`` rows each, in
        shuffled row order."""
        rng = np.random.default_rng(17)
        pool = rng.permutation(50_000)
        partition, at = {}, 0
        for size in range(1, k_max + 1):
            partition[1000 + 7 * size] = np.sort(pool[at:at + size])
            at += size
        current = rng.permutation(np.repeat(sorted(partition), per_size))
        subj = rng.integers(0, 1 << 40, size=current.size).astype(np.int64)
        return subj, current.astype(np.int64), partition

    @pytest.mark.parametrize("block", [1, 5, 24, 64, 1 << 14])
    def test_every_cluster_size_across_block_boundaries(self, monkeypatch, block):
        """Sizes 1..k_max in one batch: blocks narrower than a row (one
        row each), blocks whose rows straddle two or more sizes (padded
        rows), and one block for everything."""
        from repro.core import servers

        monkeypatch.setattr(servers, "_BLOCK_PAIRS", block)
        subj, current, partition = self._every_size_case()
        self._assert_matches_oracle(subj, current, partition, salt=31)

    @pytest.mark.parametrize("block", [9, 1 << 14])
    def test_per_row_salts_equal_the_per_level_calls(self, monkeypatch, block):
        """One fused call — a salt per row, or a (levels, 1) salt column
        over shared subjects — returns what one call per level does."""
        from repro.core import servers

        monkeypatch.setattr(servers, "_BLOCK_PAIRS", block)
        stage = servers._vectorized_rendezvous_stage
        subj, current, partition = self._every_size_case(k_max=12)
        csr = self._csr(partition)
        rng = np.random.default_rng(23)
        salts = [servers._stage_salt(level, 2) for level in (2, 3, 5)]
        columns = [rng.permutation(current) for _ in salts]
        per_level = [stage(subj, col, csr, salt)
                     for col, salt in zip(columns, salts)]
        for col, salt, got in zip(columns, salts, per_level):
            self._assert_matches_oracle(subj, col, partition, salt)

        stacked = stage(subj, np.stack(columns), csr,
                        np.array(salts, dtype=np.uint64)[:, None])
        assert stacked.shape == (len(salts), subj.size)
        assert np.array_equal(stacked, np.stack(per_level))

        ragged = [slice(0, 7), slice(3, None), slice(10, 11)]
        flat = stage(
            np.concatenate([subj[r] for r in ragged]),
            np.concatenate([col[r] for col, r in zip(columns, ragged)]),
            csr,
            np.repeat(np.array(salts, dtype=np.uint64),
                      [subj[r].size for r in ragged]),
        )
        assert np.array_equal(flat, np.concatenate(
            [won[r] for won, r in zip(per_level, ragged)]))

    @pytest.mark.parametrize("rows", [1, 7, 50])
    def test_row_passes_change_nothing(self, monkeypatch, rows):
        """A call's rows go through in passes of whole columns of its
        last axis; passes of one column, or narrower than the (levels,
        n) stack is tall, return what one pass does, for a scalar salt,
        per-row salts and a (levels, 1) salt column."""
        from repro.core import servers

        stage = servers._vectorized_rendezvous_stage
        subj, current, partition = self._every_size_case(k_max=12)
        csr = self._csr(partition)
        rng = np.random.default_rng(29)
        salts = np.array([servers._stage_salt(level, 3) for level in (2, 4, 6)],
                         dtype=np.uint64)
        stack = np.stack([rng.permutation(current) for _ in salts])
        per_row = rng.choice(salts, size=subj.size)
        calls = [(subj, current, 5), (subj, current, per_row),
                 (subj, stack, salts[:, None])]
        whole = [stage(*call[:2], csr, call[2]) for call in calls]
        monkeypatch.setattr(servers, "_STAGE_ROWS", rows)
        for (s, c, salt), want in zip(calls, whole):
            got = stage(s, c, csr, salt)
            assert got.shape == c.shape and np.array_equal(got, want)
        self._assert_matches_oracle(subj, current, partition, salt=5)

    def test_empty_batch(self):
        empty = np.empty(0, dtype=np.int64)
        self._assert_matches_oracle(empty, empty, {3: [1, 2]}, salt=1)

    def test_one_row_global_partition(self):
        from repro.core.servers import _vectorized_rendezvous_stage

        top = np.array([4, 9, 17, 23, 51], dtype=np.int64)
        subj = np.arange(300, dtype=np.int64)
        out = _vectorized_rendezvous_stage(
            subj, np.zeros(300, dtype=np.int64), self._csr({0: top}), 99)
        assert out.tolist() == [rendezvous_choice(s, 99, top) for s in range(300)]
        assert set(out.tolist()) == set(top.tolist())  # every candidate wins

    def test_unknown_cluster_rejected(self):
        from repro.core.servers import _vectorized_rendezvous_stage

        with pytest.raises(KeyError):
            _vectorized_rendezvous_stage(
                np.array([1]), np.array([8]), self._csr({3: [1, 2]}), 0)

    def test_forced_ties_go_to_the_largest_id(self, monkeypatch):
        """With every weight equal the oracle picks the largest candidate
        ID; the kernel must pick the same member of each segment."""
        self._check_forced_ties(monkeypatch)

    @pytest.mark.parametrize("block", [6, 50])
    def test_forced_ties_in_padded_blocks(self, monkeypatch, block):
        """The same where a short row's spare columns repeat its smallest
        member: the copy ties with the original and must not win."""
        monkeypatch.setattr("repro.core.servers._BLOCK_PAIRS", block)
        self._check_forced_ties(monkeypatch)

    def _check_forced_ties(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.hashing.mix64",
            lambda x, out=None: np.zeros_like(np.asarray(x, dtype=np.uint64)))
        from repro.core.servers import _vectorized_rendezvous_stage

        subj, current, partition = self._random_case(np.random.default_rng(2))
        self._assert_matches_oracle(subj, current, partition, salt=7)
        out = _vectorized_rendezvous_stage(
            subj, current, self._csr(partition), 7)
        assert out.tolist() == [int(partition[c].max()) for c in current.tolist()]

    def test_forced_ties_vectorized_descent_equals_scalar(self, monkeypatch, h300):
        """End to end: under an all-ties hash the vectorized descent and
        ``select_server`` still agree (they did not while the stage took
        the first maximum and the oracle the largest ID)."""
        monkeypatch.setattr(
            "repro.core.hashing.mix64",
            lambda x, out=None: np.zeros_like(np.asarray(x, dtype=np.uint64)))
        servers = server_map(full_assignment(h300))
        for subject in range(0, 300, 23):
            for level in range(2, lm_levels(h300) + 1):
                assert servers[(subject, level)] == select_server(
                    h300, subject, level)

    @staticmethod
    def _coarse_mix(monkeypatch, levels):
        """Reduce ``mix64`` to ``levels`` distinct weights: many rows hold
        their maximal weight in two or more columns, and (mod 2) half of
        all weights are a real 0."""
        from repro.core import hashing

        real = hashing.mix64
        monkeypatch.setattr(
            hashing, "mix64",
            lambda x, out=None: real(np.asarray(x, dtype=np.uint64))
            % np.uint64(levels))

    @staticmethod
    def _tied_rows(subjects, current, partition, salt):
        """Rows whose maximal weight (under the current ``mix64``) is held
        by two or more candidates."""
        from repro.core import hashing

        tied = 0
        with np.errstate(over="ignore"):
            salted = hashing.mix64(np.uint64(salt))
            for s, c in zip(subjects.tolist(), current.tolist()):
                cand = np.asarray(partition[c], dtype=np.uint64)
                key = np.uint64(s) * hashing._GOLDEN ^ salted
                weights = hashing.mix64(cand * hashing._SALT_CAND ^ key)
                tied += np.count_nonzero(weights == weights.max()) > 1
        return tied

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("block", [5, 24, 64, 1 << 14])
    def test_two_maximal_columns_in_mixed_width_blocks(
            self, monkeypatch, levels, block):
        """Widths 1..24 across block boundaries with few distinct weights:
        tied rows in padded mixed-width blocks, and (mod 2) a real weight
        0 next to the padding, still go to the largest tied ID."""
        from repro.core import servers

        monkeypatch.setattr(servers, "_BLOCK_PAIRS", block)
        self._coarse_mix(monkeypatch, levels)
        subj, current, partition = self._every_size_case()
        assert self._tied_rows(subj, current, partition, 31) > 20
        self._assert_matches_oracle(subj, current, partition, salt=31)

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("block", [5, 37, 1 << 14])
    def test_two_maximal_columns_in_uniform_blocks(
            self, monkeypatch, levels, block):
        """Every cluster five wide, so no block is padded: rows with two or
        more maximal columns against the oracle."""
        from repro.core import servers

        monkeypatch.setattr(servers, "_BLOCK_PAIRS", block)
        self._coarse_mix(monkeypatch, levels)
        rng = np.random.default_rng(29)
        pool = rng.permutation(10_000)
        partition = {3 * c + 1: np.sort(pool[5 * c:5 * c + 5]) for c in range(40)}
        current = rng.choice(sorted(partition), size=400).astype(np.int64)
        subj = rng.integers(0, 1 << 40, size=current.size).astype(np.int64)
        assert self._tied_rows(subj, current, partition, 8) > 40
        self._assert_matches_oracle(subj, current, partition, salt=8)

    @pytest.mark.parametrize("block", [6, 50])
    def test_real_zero_weight_next_to_padding(self, monkeypatch, block):
        """All weights 0 in padded blocks: the padding repeats each short
        row's smallest member, which ties with every real candidate and
        must never win."""
        from repro.core import servers

        monkeypatch.setattr(servers, "_BLOCK_PAIRS", block)
        monkeypatch.setattr(
            "repro.core.hashing.mix64",
            lambda x, out=None: np.zeros_like(np.asarray(x, dtype=np.uint64)))
        subj, current, partition = self._every_size_case(k_max=9, per_size=3)
        out = servers._vectorized_rendezvous_stage(
            subj, current, self._csr(partition), 3)
        assert out.tolist() == [int(partition[c].max()) for c in current.tolist()]
        self._assert_matches_oracle(subj, current, partition, salt=3)


class TestCircularStage:
    """The vectorized Eq. (5) stage — the naive hash's only descent — vs
    the scalar ``naive_circular_choice`` and ``select_server`` oracles.
    IDs are compared modulo 2^20, so persistent cluster IDs (>= 10^7)
    collide there; ties go to the smallest ID and a member congruent to
    the subject (the subject itself, say) comes last."""

    @staticmethod
    def _assert_matches_oracle(subjects, current, partition):
        from repro.core.servers import _vectorized_circular_stage

        out = _vectorized_circular_stage(
            subjects, current, TestRendezvousKernel._csr(partition))
        assert out.dtype == np.int32 and out.shape == current.shape
        flat = np.broadcast_to(subjects, current.shape).reshape(-1)
        for s, c, got in zip(flat.tolist(), current.reshape(-1).tolist(),
                             out.reshape(-1).tolist()):
            assert got == naive_circular_choice(s, 0, partition[c]), (s, c)

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_matches_oracle(self, seed):
        """IDs over many multiples of 2^20, half of them on a few residues:
        residue ties between members, members congruent to their row's
        subject, and singleton clusters, some holding only the subject."""
        rng = np.random.default_rng(seed)
        wrap = np.int64(1 << 20)

        def ids(size):
            residue = np.where(rng.random(size) < 0.5, rng.integers(0, 40, size=size),
                               rng.integers(0, wrap, size=size))
            return residue + wrap * rng.integers(0, 12, size=size)

        partition, heads = {}, rng.choice(10**8, size=25, replace=False)
        for c in heads.tolist():
            partition[c] = np.unique(ids(int(rng.choice([1, 1, 2, 3, 8, 30]))))
        current = rng.choice(heads, size=400).astype(np.int64)
        subj = ids(400).astype(np.int64)
        # Rows whose cluster holds only their subject.
        alone = [c for c, m in partition.items() if m.size == 1][:3]
        for i, c in enumerate(alone):
            current[i], subj[i] = c, partition[c][0]
        self._assert_matches_oracle(subj, current, partition)

    def test_stacked_levels_and_empty_batch(self):
        """A ``(levels, n)`` call returns what one call per row does, and
        the salt (the rendezvous stage's) is ignored."""
        from repro.core.servers import _vectorized_circular_stage

        rng = np.random.default_rng(3)
        partition = {7: np.array([3, 9, 1 << 20, (1 << 21) + 9]),
                     11: np.array([5]), 12: np.array([0, 2, 4])}
        heads = np.array(sorted(partition))
        current = rng.choice(heads, size=(3, 50)).astype(np.int64)
        subj = rng.integers(0, 1 << 22, size=50).astype(np.int64)
        self._assert_matches_oracle(subj, current, partition)
        csr = TestRendezvousKernel._csr(partition)
        salts = np.array([1, 2, 3], dtype=np.uint64)[:, None]
        assert np.array_equal(_vectorized_circular_stage(subj, current, csr, salts),
                              _vectorized_circular_stage(subj, current, csr))
        empty = np.empty(0, dtype=np.int64)
        assert _vectorized_circular_stage(empty, empty, csr).size == 0
        with pytest.raises(KeyError):
            _vectorized_circular_stage(np.array([1]), np.array([8]), csr)

    @pytest.mark.parametrize("seed,max_levels", [(0, None), (2, None), (4, 2)])
    def test_memoryless_full_assignment(self, seed, max_levels):
        """Base IDs and head-named cluster IDs below 2^20; ``max_levels=2``
        caps the top level, so the global stage picks among many nodes."""
        density = 0.02
        r_tx = radius_for_degree(9.0, density)
        pts = disc_for_density(150, density).sample(150, np.random.default_rng(seed))
        h = build_hierarchy(np.arange(150), unit_disk_edges(pts, r_tx),
                            max_levels=max_levels, level_mode="radio",
                            positions=pts, r0=r_tx)
        if max_levels:
            assert h.levels[-1].node_ids.size > 5
        assert_naive_matches_oracle(h, full_assignment(h, "naive"))

    def test_persistent_full_assignment(self):
        """Minted cluster IDs >= 10^7 exceed the 2^20 modulus."""
        from repro.hierarchy import HierarchyMaintainer

        density = 0.02
        r_tx = radius_for_degree(9.0, density)
        rng = np.random.default_rng(5)
        pts = disc_for_density(120, density).sample(120, rng)
        maintainer = HierarchyMaintainer(120, r_tx, max_levels=3,
                                         election_mode="persistent")
        for _ in range(4):
            h = maintainer.update(unit_disk_edges(pts, r_tx), positions=pts)
            assert int(h.levels[1].node_ids.min()) >= 10**7
            assert_naive_matches_oracle(h, full_assignment(h, "naive"))
            pts = pts + rng.normal(scale=0.7, size=pts.shape)

    def test_hand_made_clusters(self):
        """Singleton clusters, a cluster holding only its subject, level-1
        IDs congruent mod 2^20 to each other and to base nodes."""
        wrap = 1 << 20
        c1, c2, c3 = 10 * wrap + 3, 11 * wrap + 3, 12 * wrap + 5
        h = cid_hierarchy([c1, c2, c2, c3, c3, c3, c1, c2],
                          [30 * wrap, 30 * wrap, 31 * wrap + 3])
        assert_naive_matches_oracle(h, full_assignment(h, "naive"))
        alone = cid_hierarchy([wrap + 7, 2 * wrap, 2 * wrap],
                              [5 * wrap, 6 * wrap])
        assert_naive_matches_oracle(alone, full_assignment(alone, "naive"))
