"""Mobility substrate.

The paper evaluates the random-waypoint model with zero pause (Section
1.2); :class:`RandomWaypoint` is the reference implementation.  The other
models serve sensitivity studies: :class:`RandomDirection` removes RWP's
center-density bias, :class:`ReferencePointGroup` models the group motion
that motivates hierarchical clustering, and :class:`Stationary` is the
zero-mobility control under which handoff overhead must vanish; :class:`GaussMarkov` adds temporally correlated motion without RWP's turning discontinuities.
"""

import inspect

from repro.mobility.base import MobilityModel, resolve_speeds
from repro.mobility.gauss_markov import GaussMarkov
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.random_direction import RandomDirection
from repro.mobility.group import ReferencePointGroup
from repro.mobility.stationary import Stationary

MODEL_REGISTRY = {
    "random_waypoint": RandomWaypoint,
    "gauss_markov": GaussMarkov,
    "random_direction": RandomDirection,
    "group": ReferencePointGroup,
    "stationary": Stationary,
}


def check_model_kwargs(name: str, kwargs) -> None:
    """Raise ValueError unless every key of ``kwargs`` names a
    constructor option of model ``name`` beyond the ones
    :func:`make_model` fills itself (``n``, ``region``, ``speed``,
    ``rng``)."""
    params = inspect.signature(MODEL_REGISTRY[name]).parameters
    options = set(params) - {"n", "region", "speed", "rng"}
    unknown = sorted(set(kwargs) - options)
    if unknown:
        raise ValueError(
            f"mobility_kwargs: {name} takes no {', '.join(map(repr, unknown))}"
            f"; known: {', '.join(sorted(options)) or 'none'}")


def make_model(name: str, n, region, speed, rng, **kwargs) -> MobilityModel:
    """Instantiate a mobility model by registry name.

    ``kwargs`` are forwarded to the model constructor (e.g. ``pause`` for
    random waypoint, ``n_groups`` for group mobility).
    """
    try:
        cls = MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise ValueError(f"unknown mobility model {name!r}; known: {known}") from None
    if cls is Stationary:
        return cls(n, region, rng, **kwargs)
    return cls(n, region, speed, rng, **kwargs)


__all__ = [
    "MobilityModel",
    "resolve_speeds",
    "GaussMarkov",
    "RandomWaypoint",
    "RandomDirection",
    "ReferencePointGroup",
    "Stationary",
    "MODEL_REGISTRY",
    "check_model_kwargs",
    "make_model",
]
