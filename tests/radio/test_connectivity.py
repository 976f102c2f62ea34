"""Tests for connectivity sizing helpers."""

import numpy as np
import pytest

from repro.geometry import disc_for_density
from repro.radio import radius_for_degree, unit_disk_edges


class TestRadiusForDegree:
    def test_inverse_of_expected_degree(self):
        r = radius_for_degree(8.0, density=0.01)
        assert 0.01 * np.pi * r**2 == pytest.approx(8.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            radius_for_degree(0, 1.0)
        with pytest.raises(ValueError):
            radius_for_degree(5, 0)

    def test_empirical_degree_matches(self):
        """Sampled mean degree should be close to the target."""
        density = 0.02
        n = 2000
        region = disc_for_density(n, density)
        rng = np.random.default_rng(0)
        pts = region.sample(n, rng)
        r = radius_for_degree(10.0, density)
        mean_degree = 2 * len(unit_disk_edges(pts, r)) / n
        # Border effects pull the mean slightly below the Poisson value.
        assert 8.0 < mean_degree < 10.5
