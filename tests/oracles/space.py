"""Parameter-at-a-time Configuration Generator, the oracle for
``ConfigurationSpace.sample``: one scalar NumPy call per value."""

from __future__ import annotations

from repro.common.space import CategoricalParameter, Configuration, IntParameter


def sample_value(param, rng):
    """Draw one uniformly random legal value of ``param``."""
    if isinstance(param, CategoricalParameter):
        return param.choices[int(rng.integers(0, len(param.choices)))]
    if isinstance(param, IntParameter):
        return int(rng.integers(param.low, param.high + 1))
    return float(rng.uniform(param.low, param.high))


def random_configuration(space, rng) -> Configuration:
    """One validated CG draw, parameter by parameter."""
    return Configuration(
        space, {p.name: sample_value(p, rng) for p in space.parameters}
    )
