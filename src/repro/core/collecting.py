"""The collecting component (Section 3.1, left block of Figure 4).

For a given program, the Configuration Generator draws ``k`` random
Table-2 configurations per input dataset size; the Dataset-size
Generator produces ``m = 10`` sizes at least 10% apart (Equation 4);
each (configuration, size) pair is executed on the substrate and stored
as a performance vector (Equation 5):

    Pv_i = {t_i, c_i1, ..., c_i41, dsize_i}

The assembled :class:`TrainingSet` exposes the model-facing matrix view:
features are the 41 normalized parameter encodings plus a log-scaled
dataset size, targets are log execution times (predicting log-time is
what makes minimizing Equation 2's *relative* error well-posed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.rng import derive_rng
from repro.common.space import Configuration, ConfigurationSpace
from repro.engine import ExecRequest, ExecutionBackend, InProcessBackend, require_success
from repro.sparksim.cluster import PAPER_CLUSTER, ClusterSpec
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.telemetry import events as tele
from repro.workloads.base import Workload
from repro.workloads.datagen import DatasetSizeGenerator


@dataclass(frozen=True)
class CollectBatch:
    """One checkpointable unit of collection: all requests for one size.

    A batch is the collector's unit of progress — the job service
    executes a plan batch-by-batch and persists the vectors gathered so
    far after each one, so a crashed collection resumes at the next
    batch instead of from scratch.  The plan (and therefore every
    configuration drawn) is a pure function of (workload, seed, stream),
    so replanning after a crash reproduces the identical batches.
    """

    index: int
    size: float
    requests: Tuple[ExecRequest, ...]
    #: The requests' configurations as read-only raw-value rows (the
    #: collector's column layout), as drawn by the plan.
    values: np.ndarray = field(compare=False, repr=False)

    @property
    def datasize_bytes(self) -> float:
        return self.requests[0].job.datasize_bytes


@dataclass(frozen=True)
class PerformanceVector:
    """One execution observation — Equation (5)."""

    seconds: float
    configuration: Configuration
    datasize: float  # natural units (Table 1)
    datasize_bytes: float

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError("execution time must be positive")
        if self.datasize_bytes <= 0:
            raise ValueError("datasize must be positive")


# ----------------------------------------------------------------------
# Raw column representation.
#
# Encoded [0,1] vectors are lossy (out-of-range defaults clip), so the
# column form stores each parameter's *raw* value as a float64 — the
# value itself for numeric knobs, the choice index for categoricals —
# which reconstructs the exact Configuration (small integers and choice
# indices are exact in float64).
# ----------------------------------------------------------------------
def raw_columns(
    space: ConfigurationSpace, configs: Sequence[Configuration]
) -> np.ndarray:
    """The ``(len(configs), n_params)`` raw-value matrix of ``configs``.

    Converts one parameter column at a time: categoricals through a
    choice -> index table, numeric values by numpy's float64 cast,
    which rounds exactly like ``float()``.
    """
    from repro.common.space import CategoricalParameter

    out = np.empty((len(configs), len(space.parameters)))
    for j, param in enumerate(space.parameters):
        column = [config[param.name] for config in configs]
        if isinstance(param, CategoricalParameter):
            index = {choice: i for i, choice in enumerate(param.choices)}
            column = [index[value] for value in column]
        out[:, j] = column
    return out


def value_from_raw(param, raw: float):
    """One raw column value back to the parameter's value (the inverse
    of :func:`raw_columns`, cell by cell)."""
    from repro.common.space import CategoricalParameter, IntParameter

    if isinstance(param, CategoricalParameter):
        return param.choices[int(raw)]
    if isinstance(param, IntParameter):
        return int(raw)
    return float(raw)


def encode_raw_columns(space: ConfigurationSpace, values: np.ndarray) -> np.ndarray:
    """Vectorized ``space.encode`` over a raw-value matrix.

    Bit-for-bit equal to encoding row by row: every per-parameter
    branch applies the same clip/subtract/divide in the same order on
    the same exact float64 inputs (integers and choice indices are
    exact in float64, and IEEE ops round identically whether issued by
    CPython or numpy).  Proven by ``tests/test_store_blobfmt.py``.
    """
    from repro.common.space import CategoricalParameter

    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape, dtype=float)
    for j, param in enumerate(space.parameters):
        column = values[:, j]
        if isinstance(param, CategoricalParameter):
            m = len(param.choices)
            out[:, j] = 0.0 if m == 1 else column / (m - 1)
        else:
            low, high = float(param.low), float(param.high)
            if high == low:
                out[:, j] = 0.0
            else:
                clipped = np.minimum(np.maximum(column, low), high)
                out[:, j] = (clipped - low) / (high - low)
    return out


class TrainingSet:
    """The matrix ``S`` of Section 3.2, with feature/target views.

    Two equivalent backings share this class: the classic eager form (a
    tuple of :class:`PerformanceVector`) and the columnar form
    (float64 arrays: seconds, datasize, datasize_bytes, raw parameter
    values) produced by the streaming collector and the store's blob
    codec — where the columns may be read-only ``np.memmap`` views, so
    a large set is never copied into private memory.  ``vectors`` is
    materialized lazily from columns only when row objects are actually
    asked for (GA seeding, CSV export).
    """

    def __init__(self, space: ConfigurationSpace, vectors: Sequence[PerformanceVector]):
        vectors = tuple(vectors)
        if not vectors:
            raise ValueError("training set cannot be empty")
        self.space = space
        self._vectors: Optional[Tuple[PerformanceVector, ...]] = vectors
        self._n = len(vectors)
        self._size_scale = max(v.datasize_bytes for v in vectors)
        self._columns = None
        # Matrix views are rebuilt lazily once; the backing is immutable,
        # so the cached (read-only) arrays can be handed out directly.
        self._features: Optional[np.ndarray] = None
        self._log_times: Optional[np.ndarray] = None
        self._times: Optional[np.ndarray] = None

    @classmethod
    def from_columns(cls, space: ConfigurationSpace, columns) -> "TrainingSet":
        """Build from column arrays (``seconds``, ``datasize``,
        ``datasize_bytes``, ``values`` and optionally precomputed
        ``features`` / ``log_times``).

        Arrays are adopted as-is — ordinary, read-only, or memmap —
        and never copied here.
        """
        seconds = np.asarray(columns["seconds"], dtype=float)
        datasize = np.asarray(columns["datasize"], dtype=float)
        datasize_bytes = np.asarray(columns["datasize_bytes"], dtype=float)
        values = np.asarray(columns["values"], dtype=float)
        n = len(seconds)
        if n == 0:
            raise ValueError("training set cannot be empty")
        if not (len(datasize) == len(datasize_bytes) == len(values) == n):
            raise ValueError("column length mismatch")
        if values.ndim != 2 or values.shape[1] != len(space.names):
            raise ValueError(
                f"expected (n, {len(space.names)}) raw-value matrix, "
                f"got {values.shape}"
            )
        self = cls.__new__(cls)
        self.space = space
        self._vectors = None
        self._n = n
        self._size_scale = float(np.max(datasize_bytes))
        self._columns = {
            "seconds": seconds,
            "datasize": datasize,
            "datasize_bytes": datasize_bytes,
            "values": values,
        }
        self._features = (
            np.asarray(columns["features"], dtype=float)
            if columns.get("features") is not None
            else None
        )
        self._log_times = (
            np.asarray(columns["log_times"], dtype=float)
            if columns.get("log_times") is not None
            else None
        )
        self._times = seconds
        return self

    @classmethod
    def from_matrix(
        cls, space: ConfigurationSpace, matrix: np.ndarray
    ) -> "TrainingSet":
        """Build from the collector's ``(n, 3 + n_params)`` row matrix
        (seconds, datasize, datasize_bytes, raw parameter values)."""
        return cls.from_columns(
            space,
            {
                "seconds": matrix[:, 0],
                "datasize": matrix[:, 1],
                "datasize_bytes": matrix[:, 2],
                "values": matrix[:, 3:],
            },
        )

    def to_matrix(self) -> np.ndarray:
        """Inverse of :meth:`from_matrix` (a fresh array)."""
        cols = self.to_columns()
        return np.column_stack(
            [cols["seconds"], cols["datasize"], cols["datasize_bytes"], cols["values"]]
        )

    @property
    def vectors(self) -> Tuple[PerformanceVector, ...]:
        """Row objects, materialized from columns on first access."""
        if self._vectors is None:
            cols = self._columns
            values = cols["values"]
            params = self.space.parameters
            self._vectors = tuple(
                PerformanceVector(
                    seconds=float(cols["seconds"][i]),
                    configuration=Configuration(
                        self.space,
                        {
                            p.name: value_from_raw(p, values[i, j])
                            for j, p in enumerate(params)
                        },
                    ),
                    datasize=float(cols["datasize"][i]),
                    datasize_bytes=float(cols["datasize_bytes"][i]),
                )
                for i in range(self._n)
            )
        return self._vectors

    def __len__(self) -> int:
        return self._n

    @property
    def size_scale(self) -> float:
        """Datasize normalizer (max observed bytes)."""
        return self._size_scale

    def features(self) -> np.ndarray:
        """(n, 42) matrix: 41 encoded parameters + normalized datasize.

        Built once and cached (read-only) — copy before mutating.
        Column-backed sets use the vectorized encoder (bit-identical to
        the row loop); blob-loaded sets return the stored section
        without recomputing anything.
        """
        if self._features is None:
            if self._columns is not None:
                matrix = np.empty((self._n, len(self.space.names) + 1))
                matrix[:, :-1] = encode_raw_columns(
                    self.space, self._columns["values"]
                )
                matrix[:, -1] = self._columns["datasize_bytes"] / self._size_scale
            else:
                rows = [
                    np.concatenate(
                        [
                            self.space.encode(v.configuration),
                            [v.datasize_bytes / self._size_scale],
                        ]
                    )
                    for v in self.vectors
                ]
                matrix = np.vstack(rows)
            matrix.setflags(write=False)
            self._features = matrix
        return self._features

    def feature_row(self, config: Configuration, datasize_bytes: float) -> np.ndarray:
        """Single feature row for model queries."""
        return np.concatenate(
            [self.space.encode(config), [datasize_bytes / self._size_scale]]
        )

    def log_times(self) -> np.ndarray:
        """Cached (read-only) log-time targets — copy before mutating."""
        if self._log_times is None:
            logs = np.log(self.times())
            logs.setflags(write=False)
            self._log_times = logs
        return self._log_times

    def times(self) -> np.ndarray:
        """Cached (read-only) raw-seconds targets — copy before mutating."""
        if self._times is None:
            seconds = np.array([v.seconds for v in self.vectors])
            seconds.setflags(write=False)
            self._times = seconds
        return self._times

    def to_columns(self) -> dict:
        """Column form for serialization (always includes the derived
        ``features``/``log_times`` arrays, so a reader never recomputes
        them)."""
        if self._columns is not None:
            cols = dict(self._columns)
        else:
            values = raw_columns(
                self.space, [v.configuration for v in self.vectors]
            )
            cols = {
                "seconds": np.array([v.seconds for v in self.vectors]),
                "datasize": np.array([v.datasize for v in self.vectors]),
                "datasize_bytes": np.array(
                    [v.datasize_bytes for v in self.vectors]
                ),
                "values": values,
            }
        cols["features"] = self.features()
        cols["log_times"] = self.log_times()
        return cols

    def merged_with(self, other: "TrainingSet") -> "TrainingSet":
        if other.space is not self.space and other.space.names != self.space.names:
            raise ValueError("cannot merge training sets over different spaces")
        return TrainingSet(self.space, self.vectors + other.vectors)


class Collector:
    """Drives simulated executions to build training/testing sets.

    Parameters
    ----------
    workload:
        The program to collect for.
    cluster:
        Hardware substrate.
    space:
        Configuration space to sample (defaults to the 41-param Table 2).
    num_sizes:
        The paper's ``m`` (default 10).
    seed:
        Root of the CG's random stream.
    engine:
        The :class:`~repro.engine.ExecutionBackend` that executes the
        (configuration, size) pairs.  Defaults to a fresh
        :class:`~repro.engine.InProcessBackend` on ``cluster``; pass a
        :class:`~repro.engine.ProcessPoolBackend` to collect across
        cores or a :class:`~repro.engine.CachedBackend` to reuse runs.
    """

    def __init__(
        self,
        workload: Workload,
        cluster: ClusterSpec = PAPER_CLUSTER,
        space: ConfigurationSpace = SPARK_CONF_SPACE,
        num_sizes: int = 10,
        seed: int = 0,
        engine: Optional[ExecutionBackend] = None,
    ):
        self.workload = workload
        self.cluster = cluster
        self.space = space
        self.num_sizes = num_sizes
        self.seed = seed
        self.engine = engine if engine is not None else InProcessBackend(cluster)
        low, high = workload.size_range()
        self.sizes: List[float] = DatasetSizeGenerator(num_sizes).generate(low, high)

    # ------------------------------------------------------------------
    def collect(
        self,
        total_examples: int,
        stream: str = "train",
        progress: Optional[Callable[[int, int], None]] = None,
        spill_dir: Optional[str] = None,
    ) -> TrainingSet:
        """Collect ``total_examples`` performance vectors.

        Examples are spread evenly over the generator's dataset sizes
        (``k = total / m`` configurations per size, Section 3.1).
        Distinct ``stream`` labels produce disjoint random configuration
        streams — the paper's train (2000) vs. test (500) sets.

        Execution is batched per size through the engine, so a parallel
        or caching backend accelerates the whole sampling loop; the CG's
        random stream is drawn up front in the original order, keeping
        the collected set identical across backends.

        Rows stream batch-by-batch into a spill-capable
        :class:`~repro.store.matrixbuilder.MatrixBuilder`, so the full
        matrix is never resident as Python row objects, and a
        larger-than-budget collection lands in a (transparently
        memmapped) spill file rather than the heap.
        """
        from repro.store.matrixbuilder import MatrixBuilder

        batches = self.plan(total_examples, stream=stream)
        builder = MatrixBuilder(3 + len(self.space.names), spill_dir=spill_dir)
        done = 0
        try:
            with tele.span(
                "collect",
                program=self.workload.abbr,
                examples=total_examples,
                stream=stream,
            ):
                for batch in batches:
                    done += len(
                        self.run_batch(
                            batch,
                            done=done,
                            total=total_examples,
                            progress=progress,
                            sink=builder,
                        )
                    )
            matrix = builder.finalize()
        except BaseException:
            builder.close()
            raise
        return TrainingSet.from_matrix(self.space, matrix)

    def plan(self, total_examples: int, stream: str = "train") -> List[CollectBatch]:
        """Draw the full batch plan for a collection, without executing.

        All configurations are drawn as one raw-value matrix
        (:meth:`~repro.common.space.ConfigurationSpace.sample`) in the
        exact order :meth:`collect` executes them, from an RNG derived
        solely from (workload, seed, stream), and sliced per size —
        replanning always reproduces the same batches, which is what
        makes batch-level checkpoint/resume byte-identical to an
        uninterrupted collection.
        """
        if total_examples < 1:
            raise ValueError("need at least one example")
        rng = derive_rng("collector", self.workload.abbr, self.seed, stream)
        per_size = [total_examples // self.num_sizes] * self.num_sizes
        for i in range(total_examples % self.num_sizes):
            per_size[i] += 1
        values = self.space.sample(total_examples, rng)
        values.setflags(write=False)
        configs = self.space.configurations(values)
        batches: List[CollectBatch] = []
        start = 0
        for size, k in zip(self.sizes, per_size):
            if k == 0:
                continue
            job = self.workload.job(size)
            rows = slice(start, start + k)
            batches.append(
                CollectBatch(
                    index=len(batches),
                    size=size,
                    requests=tuple(
                        ExecRequest(job=job, config=config) for config in configs[rows]
                    ),
                    values=values[rows],
                )
            )
            start += k
        return batches

    def run_batch(
        self,
        batch: CollectBatch,
        done: int = 0,
        total: Optional[int] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        sink=None,
    ) -> List[PerformanceVector]:
        """Execute one planned batch through the engine.

        ``done``/``total`` carry overall progress into the
        ``collect.size`` telemetry event so resumed collections emit the
        same event stream an uninterrupted one does.  ``sink``, if
        given, receives the batch's rows as one
        ``(k, 3 + n_params)`` float64 chunk
        (seconds, datasize, datasize_bytes, raw parameter values) —
        the streaming-collect path appends them to a
        :class:`~repro.store.matrixbuilder.MatrixBuilder`.
        """
        runs = require_success(self.engine.submit(list(batch.requests)))
        vectors: List[PerformanceVector] = []
        for request, run in zip(batch.requests, runs):
            vectors.append(
                PerformanceVector(
                    seconds=run.seconds,
                    configuration=request.config,
                    datasize=batch.size,
                    datasize_bytes=batch.datasize_bytes,
                )
            )
            if progress is not None:
                progress(done + len(vectors), total or done + len(vectors))
        if sink is not None:
            rows = np.empty((len(vectors), 3 + len(self.space.parameters)))
            rows[:, 0] = [run.seconds for run in runs]
            rows[:, 1] = batch.size
            rows[:, 2] = batch.datasize_bytes
            rows[:, 3:] = batch.values
            sink.append(rows)
        tele.event(
            "collect.size",
            program=self.workload.abbr,
            size=batch.size,
            examples=len(batch.requests),
            done=done + len(vectors),
            total=total if total is not None else done + len(vectors),
        )
        return vectors

    def simulated_hours(self, training_set: TrainingSet) -> float:
        """Cluster-hours the collection would have cost on real hardware
        (Table 3's 'Collecting' column).

        Summed left-to-right over ``times()`` — the same order and the
        same float adds the eager row path used, so the value (which
        feeds the report fingerprint) is identical for eager,
        column-backed, and blob-loaded sets alike.
        """
        return float(sum(float(s) for s in training_set.times()) / 3600.0)
