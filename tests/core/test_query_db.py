"""Tests for CHLM queries (the scalar oracle climb) and the materialized
LM database."""

import numpy as np
import pytest

from repro.core import LMDatabase, full_assignment
from repro.geometry import disc_for_density
from repro.graphs import CompactGraph
from repro.hierarchy import build_hierarchy
from repro.radio import radius_for_degree, unit_disk_edges
from repro.routing import FlatRouter

from .descent_oracle import resolve


@pytest.fixture(scope="module")
def net():
    density = 0.02
    n = 250
    region = disc_for_density(n, density)
    rng = np.random.default_rng(2)
    pts = region.sample(n, rng)
    edges = unit_disk_edges(pts, radius_for_degree(9.0, density))
    h = build_hierarchy(np.arange(n), edges)
    assert h.num_levels >= 2
    g = CompactGraph(np.arange(n), edges)
    return h, g, full_assignment(h)


class TestLMDatabase:
    def test_total_entries(self, net):
        h, g, a = net
        db = LMDatabase(h, a)
        assert db.total_entries == len(a.servers)

    def test_tables_match_assignment(self, net):
        h, g, a = net
        db = LMDatabase(h, a)
        for (subject, level), server in list(a.servers.items())[:50]:
            rec = db.table_of(server).get((subject, level))
            assert rec is not None
            assert rec.address == h.address(subject)

    def test_lookup_returns_highest_level(self, net):
        h, g, a = net
        db = LMDatabase(h, a)
        # Find a server holding >= 2 levels of the same subject, if any.
        for server, table in db._tables.items():
            subjects = {}
            for (subj, level) in table:
                subjects.setdefault(subj, []).append(level)
            for subj, levels in subjects.items():
                rec = db.lookup(server, subj)
                assert rec.level == max(levels)
                return

    def test_entries_per_node_mean(self, net):
        h, g, a = net
        db = LMDatabase(h, a)
        per_node = db.entries_per_node()
        assert per_node.sum() == db.total_entries
        # Levels 2..L plus the virtual global level: L entries/subject.
        assert per_node.mean() == pytest.approx(h.num_levels, abs=1e-9)


class TestResolve:
    def test_self_query(self, net):
        h, g, a = net
        fr = FlatRouter(g)
        res = resolve(h, a, 5, 5, fr.hop_count)
        assert res.hit_level == 0
        assert res.packets == 0
        assert res.address == h.address(5)

    def test_random_pairs_resolve(self, net):
        h, g, a = net
        fr = FlatRouter(g)
        rng = np.random.default_rng(3)
        resolved = 0
        for _ in range(40):
            s, d = (int(x) for x in rng.integers(0, 250, size=2))
            if fr.hop_count(s, d) < 0:
                continue  # different components: legitimately unresolvable
            res = resolve(h, a, s, d, fr.hop_count)
            assert res.hit_level >= 0, (s, d)
            assert res.address == h.address(d)
            resolved += 1
        assert resolved > 20

    def test_hit_level_is_lowest_common(self, net):
        h, g, a = net
        fr = FlatRouter(g)
        rng = np.random.default_rng(4)
        for _ in range(20):
            s, d = (int(x) for x in rng.integers(0, 250, size=2))
            if s == d or fr.hop_count(s, d) < 0:
                continue
            res = resolve(h, a, s, d, fr.hop_count)
            if res.hit_level <= 1:
                assert h.cluster_of(s, max(res.hit_level, 1)) == h.cluster_of(
                    d, max(res.hit_level, 1)
                )
            else:
                m = res.hit_level
                assert h.cluster_of(s, m) == h.cluster_of(d, m)
                assert h.cluster_of(s, m - 1) != h.cluster_of(d, m - 1)

    def test_query_cost_scales_with_distance(self, net):
        """Probe cost should be bounded and related to the s-d distance
        scale (the paper: absorbed in the session)."""
        h, g, a = net
        fr = FlatRouter(g)
        rng = np.random.default_rng(5)
        ratios = []
        for _ in range(40):
            s, d = (int(x) for x in rng.integers(0, 250, size=2))
            hops = fr.hop_count(s, d)
            if s == d or hops <= 0:
                continue
            res = resolve(h, a, s, d, fr.hop_count)
            if res.hit_level >= 2:
                ratios.append(res.packets / hops)
        assert ratios
        assert np.median(ratios) < 12.0
