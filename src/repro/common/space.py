"""Generic configuration-space abstraction.

The paper's Configuration Generator (Section 3.1) draws each parameter
uniformly at random within its value range; the Genetic Algorithm
(Section 3.3) and the performance models (Section 3.2) operate on the
numeric encoding of a configuration.  This module provides both views:

* :class:`Parameter` subclasses describe a single knob — its range,
  default, and a bijective numeric encoding;
* :class:`ConfigurationSpace` aggregates an ordered list of parameters,
  draws random configurations as one raw-value matrix, and converts
  whole configurations to/from feature vectors;
* :class:`Configuration` is an immutable mapping of parameter name to
  value with dict-like access.

The same classes back the Spark space (41 parameters, Table 2) and the
Hadoop-like ODC space used for the Figure 2 sensitivity study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.common.rng import draw_rounds


class Parameter:
    """A single tunable knob.

    Subclasses implement validation and a numeric encoding used by the
    performance models and the GA; :meth:`ConfigurationSpace.sample`
    draws values for all of them at once.  Encodings are *normalized to
    [0, 1]* so that mutation step sizes and model split thresholds are
    comparable across parameters of wildly different scales (e.g. memory
    in MB vs. a boolean flag).
    """

    name: str
    description: str
    default: Any

    def validate(self, value: Any) -> Any:
        """Return a legal, canonical version of ``value`` or raise ``ValueError``."""
        raise NotImplementedError

    def encode(self, value: Any) -> float:
        """Map a legal value into [0, 1]."""
        raise NotImplementedError

    def decode(self, x: float) -> Any:
        """Inverse of :meth:`encode` (clipping out-of-range inputs)."""
        raise NotImplementedError

    def grid(self, resolution: int = 5) -> List[Any]:
        """A small set of representative values, used by tests and sweeps."""
        return [self.decode(x) for x in np.linspace(0.0, 1.0, resolution)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r}, default={self.default!r})"


@dataclass(frozen=True, repr=False)
class IntParameter(Parameter):
    """Integer-valued knob uniform over ``[low, high]`` inclusive."""

    name: str
    low: int
    high: int
    default: int
    description: str = ""

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"{self.name}: low {self.low} > high {self.high}")

    def validate(self, value: Any) -> int:
        ivalue = int(value)
        if ivalue != value and not isinstance(value, (int, np.integer)):
            # Accept exact floats (e.g. 4.0) but reject 4.5.
            if float(value) != ivalue:
                raise ValueError(f"{self.name}: {value!r} is not an integer")
        # The default may legally sit outside the tuning range (e.g.
        # spark.memory.offHeap.size defaults to 0 with range 10-1000).
        if not (self.low <= ivalue <= self.high) and ivalue != self.default:
            raise ValueError(
                f"{self.name}: {ivalue} outside [{self.low}, {self.high}]"
            )
        return ivalue

    def encode(self, value: Any) -> float:
        if self.high == self.low:
            return 0.0
        clipped = min(max(int(value), self.low), self.high)
        return (clipped - self.low) / (self.high - self.low)

    def decode(self, x: float) -> int:
        x = min(max(float(x), 0.0), 1.0)
        return int(round(self.low + x * (self.high - self.low)))


@dataclass(frozen=True, repr=False)
class FloatParameter(Parameter):
    """Real-valued knob uniform over ``[low, high]``."""

    name: str
    low: float
    high: float
    default: float
    description: str = ""

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"{self.name}: low {self.low} > high {self.high}")

    def validate(self, value: Any) -> float:
        fvalue = float(value)
        if not (self.low <= fvalue <= self.high) and fvalue != self.default:
            raise ValueError(
                f"{self.name}: {fvalue} outside [{self.low}, {self.high}]"
            )
        return fvalue

    def encode(self, value: Any) -> float:
        if self.high == self.low:
            return 0.0
        clipped = min(max(float(value), self.low), self.high)
        return (clipped - self.low) / (self.high - self.low)

    def decode(self, x: float) -> float:
        x = min(max(float(x), 0.0), 1.0)
        return float(self.low + x * (self.high - self.low))


@dataclass(frozen=True, repr=False)
class CategoricalParameter(Parameter):
    """Knob taking one of a small set of unordered choices."""

    name: str
    choices: Tuple[Any, ...]
    default: Any
    description: str = ""

    def __post_init__(self) -> None:
        if self.default not in self.choices:
            raise ValueError(f"{self.name}: default {self.default!r} not a choice")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(f"{self.name}: duplicate choices")

    def validate(self, value: Any) -> Any:
        if value not in self.choices:
            raise ValueError(f"{self.name}: {value!r} not in {self.choices}")
        return value

    def encode(self, value: Any) -> float:
        index = self.choices.index(value)
        if len(self.choices) == 1:
            return 0.0
        return index / (len(self.choices) - 1)

    def decode(self, x: float) -> Any:
        x = min(max(float(x), 0.0), 1.0)
        index = int(round(x * (len(self.choices) - 1)))
        return self.choices[index]

    def grid(self, resolution: int = 5) -> List[Any]:
        return list(self.choices)


def BoolParameter(
    name: str, default: bool, description: str = ""
) -> CategoricalParameter:
    """A true/false knob, modelled as a two-choice categorical."""
    return CategoricalParameter(
        name=name, choices=(False, True), default=bool(default), description=description
    )


class Configuration(Mapping[str, Any]):
    """An immutable assignment of values to every parameter of a space.

    Behaves like a read-only mapping; :meth:`replacing` produces modified
    copies (the GA uses this for mutation/crossover results).
    """

    __slots__ = ("_space", "_values")

    def __init__(self, space: "ConfigurationSpace", values: Mapping[str, Any]):
        missing = [p.name for p in space.parameters if p.name not in values]
        if missing:
            raise ValueError(f"missing values for parameters: {missing}")
        extra = [name for name in values if name not in space.names_set]
        if extra:
            raise ValueError(f"unknown parameters: {extra}")
        self._space = space
        self._values = {
            p.name: p.validate(values[p.name]) for p in space.parameters
        }

    @classmethod
    def _drawn(
        cls, space: "ConfigurationSpace", values: Dict[str, Any]
    ) -> "Configuration":
        """Adopt ``values`` — canonical, in range by construction, in
        parameter order — without validating them."""
        self = cls.__new__(cls)
        self._space = space
        self._values = values
        return self

    @property
    def space(self) -> "ConfigurationSpace":
        return self._space

    def __getitem__(self, name: str) -> Any:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, repr(v)) for k, v in self._values.items())))

    def replacing(self, **overrides: Any) -> "Configuration":
        """Return a copy with some parameters changed.

        Keys use underscores in place of dots (``spark_executor_memory``)
        when passed as keyword arguments; exact names may be passed via a
        dict using :meth:`replacing_values`.
        """
        mapped = {key.replace("__", "."): val for key, val in overrides.items()}
        return self.replacing_values(mapped)

    def replacing_values(self, overrides: Mapping[str, Any]) -> "Configuration":
        """Return a copy with the exactly-named parameters changed."""
        resolved: Dict[str, Any] = dict(self._values)
        for key, val in overrides.items():
            name = self._space.resolve_name(key)
            resolved[name] = val
        return Configuration(self._space, resolved)

    def to_vector(self) -> np.ndarray:
        """Normalized numeric encoding (one float in [0,1] per parameter)."""
        return self._space.encode(self)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        head = ", ".join(f"{k}={v!r}" for k, v in list(self._values.items())[:3])
        return f"Configuration({head}, ... {len(self._values)} params)"


class ConfigurationSpace:
    """An ordered collection of :class:`Parameter` definitions."""

    def __init__(self, parameters: Sequence[Parameter], name: str = "space"):
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.name = name
        self.parameters: Tuple[Parameter, ...] = tuple(parameters)
        self.names: Tuple[str, ...] = tuple(names)
        self.names_set = frozenset(names)
        self._by_name: Dict[str, Parameter] = {p.name: p for p in parameters}
        # How the Configuration Generator draws each column: the span of
        # a bounded-integer draw (-1 for a uniform float), then the raw
        # value as ``draw * scale + offset``.
        spans, scale, offset = [], [], []
        for p in self.parameters:
            if isinstance(p, CategoricalParameter):
                spans.append(len(p.choices) - 1)
                scale.append(1.0)
                offset.append(0.0)
            elif isinstance(p, IntParameter):
                spans.append(p.high - p.low)
                scale.append(1.0)
                offset.append(float(p.low))
            else:
                spans.append(-1)
                scale.append(float(p.high) - float(p.low))
                offset.append(float(p.low))
        self._spans = tuple(spans)
        self._scale = np.array(scale)
        self._offset = np.array(offset)

    # -- lookup ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.parameters)

    def __contains__(self, name: str) -> bool:
        return name in self.names_set

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[self.resolve_name(name)]

    def resolve_name(self, key: str) -> str:
        """Accept either exact names or underscore-for-dot aliases."""
        if key in self.names_set:
            return key
        dotted = key.replace("_", ".")
        if dotted in self.names_set:
            return dotted
        raise KeyError(f"unknown parameter {key!r} in space {self.name!r}")

    def index_of(self, name: str) -> int:
        return self.names.index(self.resolve_name(name))

    # -- construction ---------------------------------------------------
    def default(self) -> Configuration:
        """The vendor-default configuration (Table 2 last column)."""
        return Configuration(self, {p.name: p.default for p in self.parameters})

    def random(self, rng: np.random.Generator) -> Configuration:
        """One draw of the paper's Configuration Generator (CG)."""
        return self.configurations(self.sample(1, rng))[0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` draws of the CG as an ``(n, n_params)`` raw-value matrix.

        Each parameter is uniform over its range: ``integers(low, high +
        1)`` for an integer knob, ``uniform(low, high)`` for a float
        knob and a uniform choice index for a categorical one, drawn
        config by config in parameter order.  Values and the state
        ``rng`` is left in are bit-identical to those scalar calls
        (:func:`~repro.common.rng.draw_rounds`), so a batch of ``n``
        equals ``n`` successive :meth:`random` draws.  Raw values are
        the numbers themselves for numeric knobs and choice indices for
        categoricals (the collector's column layout).
        """
        return draw_rounds(rng, self._spans, n) * self._scale + self._offset

    def configurations(self, values: np.ndarray) -> List[Configuration]:
        """The configurations of a raw-value matrix drawn by :meth:`sample`.

        Converted a column at a time to the parameters' Python types
        (``int``, ``float`` or the choice itself) and not validated:
        drawn values are in range by construction.
        """
        columns = []
        for j, p in enumerate(self.parameters):
            column = values[:, j]
            if isinstance(p, CategoricalParameter):
                indices = column.astype(np.int64).tolist()
                columns.append([p.choices[i] for i in indices])
            elif isinstance(p, IntParameter):
                columns.append(column.astype(np.int64).tolist())
            else:
                columns.append(column.tolist())
        return [
            Configuration._drawn(self, dict(zip(self.names, row)))
            for row in zip(*columns)
        ]

    def from_dict(self, values: Mapping[str, Any]) -> Configuration:
        """Build a configuration from a possibly partial dict (defaults fill gaps)."""
        merged = {p.name: p.default for p in self.parameters}
        for key, val in values.items():
            merged[self.resolve_name(key)] = val
        return Configuration(self, merged)

    # -- numeric view ---------------------------------------------------
    def encode(self, config: Configuration) -> np.ndarray:
        return np.array(
            [p.encode(config[p.name]) for p in self.parameters], dtype=float
        )

    def decode(self, vector: Sequence[float]) -> Configuration:
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (len(self.parameters),):
            raise ValueError(
                f"expected vector of length {len(self.parameters)}, got {vec.shape}"
            )
        values = {
            p.name: p.decode(x) for p, x in zip(self.parameters, vec)
        }
        return Configuration(self, values)

    def encode_many(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Stack encodings into an (n_configs, n_params) matrix."""
        return np.vstack([self.encode(c) for c in configs]) if configs else (
            np.empty((0, len(self.parameters)))
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConfigurationSpace({self.name!r}, {len(self.parameters)} params)"
