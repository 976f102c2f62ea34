"""Tests for the flat routing baseline's table size."""

import pytest

from repro.routing import flat_table_size


class TestFlatTableSize:
    def test_values(self):
        assert flat_table_size(1) == 0
        assert flat_table_size(100) == 99

    def test_invalid(self):
        with pytest.raises(ValueError):
            flat_table_size(0)
