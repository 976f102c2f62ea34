"""Analysis layer: closed-form theory, shape fitting, report rendering."""

from repro.analysis.fitting import (
    SHAPES,
    ShapeFit,
    compare_shapes,
    fit_power,
    fit_shape,
    flatness,
    shape_by_flatness,
)
from repro.analysis.report import generate_report
from repro.analysis.theory import (
    edges_per_node_prediction,
    expected_levels,
    f0_prediction,
    f_k_prediction,
    g_prime_k_prediction,
    gamma_k_prediction,
    hop_count_level,
    hop_count_network,
    levels_for,
    migration_distance,
    phi_k_prediction,
    phi_total_prediction,
)

__all__ = [
    "SHAPES",
    "ShapeFit",
    "compare_shapes",
    "fit_power",
    "fit_shape",
    "flatness",
    "shape_by_flatness",
    "generate_report",
    "edges_per_node_prediction",
    "expected_levels",
    "f0_prediction",
    "f_k_prediction",
    "g_prime_k_prediction",
    "gamma_k_prediction",
    "hop_count_level",
    "hop_count_network",
    "levels_for",
    "migration_distance",
    "phi_k_prediction",
    "phi_total_prediction",
]
