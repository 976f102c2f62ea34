"""Tests for the flat routing baseline."""

import numpy as np
import pytest

from repro.graphs import CompactGraph
from repro.routing import FlatRouter, flat_table_size


@pytest.fixture
def chain_router():
    g = CompactGraph(range(5), [[0, 1], [1, 2], [2, 3], [3, 4]])
    return FlatRouter(g)


class TestFlatRouter:
    def test_hop_count(self, chain_router):
        assert chain_router.hop_count(0, 4) == 4
        assert chain_router.hop_count(0, 0) == 0
        assert chain_router.hop_count(2, 3) == 1

    def test_path(self, chain_router):
        assert chain_router.path(0, 3) == [0, 1, 2, 3]

    def test_unreachable(self):
        r = FlatRouter(CompactGraph(range(4), [[0, 1], [2, 3]]))
        assert r.hop_count(0, 3) == -1
        assert r.path(0, 3) is None

    def test_cache_consistency(self, chain_router):
        d1 = chain_router.distances_from(0)
        d2 = chain_router.distances_from(0)
        assert d1 is d2  # cached
        chain_router.clear_cache()
        d3 = chain_router.distances_from(0)
        assert d3 is not d1
        assert np.array_equal(d1, d3)

    def test_unknown_id_raises_even_when_source_is_destination(self, chain_router):
        with pytest.raises(KeyError):
            chain_router.hop_count(9, 9)
        with pytest.raises(KeyError):
            chain_router.hop_count(0, 9)

    def test_table_size(self, chain_router):
        assert chain_router.table_size(2) == 4
        with pytest.raises(KeyError):
            chain_router.table_size(99)


class TestFlatTableSize:
    def test_values(self):
        assert flat_table_size(1) == 0
        assert flat_table_size(100) == 99

    def test_invalid(self):
        with pytest.raises(ValueError):
            flat_table_size(0)
