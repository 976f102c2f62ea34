"""Functional tests for the fast (static-snapshot) experiments.

The scaling sweeps are pinned in ``test_scaling_goldens.py``; here we
run the cheap experiments end to end and assert their *claims*, not
just that they produce rows.
"""

import pytest

from repro.experiments import (
    e_f1_hierarchy,
    e_f2_gls_grid,
    e_t7_load_balance,
    e_t9_table_size,
)


class TestF1:
    @pytest.fixture(scope="class")
    def result(self):
        return e_f1_hierarchy.run(n=100, seed=7)

    def test_levels_shrink(self, result):
        sizes = [row[1] for row in result.rows]
        assert sizes[0] == 100
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_c_k_consistent(self, result):
        for row in result.rows:
            level, n_k, _, _, c_k, _ = row
            assert c_k == pytest.approx(100 / n_k, rel=0.02)

    def test_addresses_noted(self, result):
        assert any("address(" in n for n in result.notes)

    def test_node68_case_found(self, result):
        assert any("node 68" in n for n in result.notes)


class TestF2:
    @pytest.fixture(scope="class")
    def result(self):
        return e_f2_gls_grid.run(n=256, seed=5)

    def test_one_row_per_level(self, result):
        levels = [row[0] for row in result.rows]
        assert levels == sorted(levels)
        assert levels[0] == 1

    def test_three_siblings_each(self, result):
        for row in result.rows:
            sibs = eval(row[2])
            assert len(sibs) == 3


class TestT7:
    @pytest.fixture(scope="class")
    def result(self):
        return e_t7_load_balance.run(quick=True, seeds=(0,))

    def test_naive_worse_at_every_size(self, result):
        by_n = {}
        for n, hash_name, _mean, mx, *_ in result.rows:
            by_n.setdefault(n, {})[hash_name] = mx
        for n, loads in by_n.items():
            assert loads["naive"] > loads["rendezvous"], n

    def test_skew_notes(self, result):
        assert any("naive max-load" in n for n in result.notes)


class TestT9:
    @pytest.fixture(scope="class")
    def result(self):
        return e_t9_table_size.run(quick=True, seeds=(0,))

    def test_hier_below_flat(self, result):
        for row in result.rows:
            n, flat, hier_mean, *_ = row
            assert hier_mean < flat

    def test_reduction_grows_with_n(self, result):
        fractions = [row[4] for row in result.rows]  # hier/flat
        assert fractions[-1] < fractions[0]
