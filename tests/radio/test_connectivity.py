"""Tests for connectivity sizing helpers."""

import numpy as np
import pytest

from repro.geometry import disc_for_density
from repro.graphs import CompactGraph
from repro.radio import (
    expected_degree,
    gupta_kumar_radius,
    radius_for_degree,
    unit_disk_edges,
)
from repro.sim.kernels import giant_fraction


class TestRadiusForDegree:
    def test_inverse_of_expected_degree(self):
        r = radius_for_degree(8.0, density=0.01)
        assert expected_degree(r, 0.01) == pytest.approx(8.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            radius_for_degree(0, 1.0)
        with pytest.raises(ValueError):
            radius_for_degree(5, 0)
        with pytest.raises(ValueError):
            expected_degree(0, 1.0)

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


class TestGuptaKumar:
    def test_scaling_shape(self):
        """r_c^2 * n / log n should be constant across n at fixed area."""
        area = 1.0
        vals = [gupta_kumar_radius(n, area) ** 2 * n / np.log(n) for n in (100, 1000, 10000)]
        assert max(vals) == pytest.approx(min(vals))

    def test_invalid(self):
        with pytest.raises(ValueError):
            gupta_kumar_radius(1, 1.0)
        with pytest.raises(ValueError):
            gupta_kumar_radius(10, 0.0)

    def test_supercritical_usually_connected(self):
        rng = np.random.default_rng(1)
        region = disc_for_density(300, 1.0)
        pts = region.sample(300, rng)
        r = gupta_kumar_radius(300, region.area, c=4.0)
        g = CompactGraph(np.arange(300), unit_disk_edges(pts, r))
        assert giant_fraction(g) > 0.95
