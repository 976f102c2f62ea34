"""Named scenario presets.

Curated parameterizations for common study regimes, so examples, docs,
and the CLI can say ``--preset vehicular`` instead of repeating numbers.
Each preset is a plain kwargs dict applied over :class:`Scenario`
defaults; explicit keyword arguments always win.
"""

from __future__ import annotations

from repro.faults.chaos import CrashEpisode
from repro.sim.scenario import Scenario

__all__ = ["PRESETS", "make_scenario"]

PRESETS: dict[str, dict] = {
    # The paper's reference regime: pedestrian speed, fixed density,
    # degree 9, RWP with zero pause.
    "paper-default": dict(
        speed=1.0, density=0.02, target_degree=9.0,
        mobility="random_waypoint", dt=1.0,
    ),
    # Campus / pedestrian crowd: slower, denser, smoother motion.
    "campus": dict(
        speed=(0.5, 1.5), density=0.05, target_degree=8.0,
        mobility="gauss_markov",
        mobility_kwargs={"memory": 0.9, "heading_sigma": 0.4},
        dt=1.0,
    ),
    # Vehicular-slow convoy regime: fast, sparse, strongly correlated.
    "vehicular": dict(
        speed=(8.0, 14.0), density=0.005, target_degree=10.0,
        mobility="gauss_markov",
        mobility_kwargs={"memory": 0.95, "heading_sigma": 0.2},
        dt=0.5,
    ),
    # Disaster-relief squads (the HSR/MMWN motivation).
    "squads": dict(
        speed=2.0, density=0.02, target_degree=9.0,
        mobility="group",
        mobility_kwargs={"n_groups": 10, "group_radius": 25.0,
                         "jitter_speed": 0.3},
        dt=1.0,
    ),
    # Static sensor field with occasional node failure.
    "sensor-field": dict(
        mobility="stationary", density=0.03, target_degree=8.0,
        chaos=(CrashEpisode(rate=0.002, repair_time=30.0),), dt=1.0,
    ),
}


def make_scenario(preset: str, **overrides) -> Scenario:
    """Build a :class:`Scenario` from a preset plus overrides.

    Raises
    ------
    ValueError
        For an unknown preset name (the message lists the options).
    """
    try:
        base = PRESETS[preset]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {preset!r}; known: {known}") from None
    kwargs = dict(base)
    kwargs.update(overrides)
    return Scenario(**kwargs)
