"""Unit tests for repro.geometry.points."""

import numpy as np
import pytest

from repro.geometry import as_points


class TestAsPoints:
    def test_promotes_single_point(self):
        pts = as_points([1.0, 2.0])
        assert pts.shape == (1, 2)
        assert pts.dtype == np.float64

    def test_accepts_n_by_2(self):
        pts = as_points([[0, 0], [1, 1], [2, 2]])
        assert pts.shape == (3, 2)

    def test_rejects_bad_vector(self):
        with pytest.raises(ValueError):
            as_points([1.0, 2.0, 3.0])

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            as_points([[1.0, 2.0, 3.0]])

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            as_points(np.zeros((2, 2, 2)))
