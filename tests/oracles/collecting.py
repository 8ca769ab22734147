"""Cell-at-a-time raw-value conversion, the oracle for ``raw_columns``."""

from __future__ import annotations

from repro.common.space import CategoricalParameter


def raw_value(param, value) -> float:
    """One parameter value as its exact float64 column representation."""
    if isinstance(param, CategoricalParameter):
        return float(param.choices.index(value))
    return float(value)
