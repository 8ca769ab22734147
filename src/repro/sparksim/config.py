"""Typed view over a Spark configuration plus derived runtime quantities.

:class:`SparkConf` wraps a :class:`~repro.common.space.Configuration`
drawn from the Table-2 space and exposes each parameter as a typed,
unit-converted attribute (resolved once, at construction), plus the
quantities Spark derives from them at job-submission time — most
importantly the *executor packing*: how many executors fit on each
worker given ``spark.executor.cores`` and ``spark.executor.memory``, and
hence how many concurrent task slots the job has.
"""

from __future__ import annotations

from functools import cached_property

from repro.common.space import Configuration
from repro.common.units import KB, MB
from repro.sparksim.cluster import ClusterSpec
from repro.sparksim.confspace import SPARK_CONF_SPACE

#: Spark reserves a flat 300 MB of each executor heap (Section 2.1).
RESERVED_MEMORY_BYTES = 300 * MB


class SparkConf:
    """A Table-2 configuration bound to a cluster.

    Parameters
    ----------
    config:
        A configuration from :data:`SPARK_CONF_SPACE` (or a plain dict of
        overrides, filled in with defaults).
    cluster:
        Hardware the job will run on; drives executor packing.
    """

    def __init__(self, config, cluster: ClusterSpec):
        if isinstance(config, Configuration):
            self.config = config
        else:
            self.config = SPARK_CONF_SPACE.from_dict(dict(config or {}))
        self.cluster = cluster
        # Every typed view is resolved once, here, not by a lookup per
        # read: the simulator reads them per task, stage and wave (about
        # 190 reads per run).
        v = self.config
        # Shuffle and I/O (sizes in bytes).
        self.reducer_max_size_in_flight: int = v["spark.reducer.maxSizeInFlight"] * MB
        self.shuffle_file_buffer: int = v["spark.shuffle.file.buffer"] * KB
        self.bypass_merge_threshold: int = v["spark.shuffle.sort.bypassMergeThreshold"]
        self.shuffle_compress: bool = v["spark.shuffle.compress"]
        self.consolidate_files: bool = v["spark.shuffle.consolidateFiles"]
        self.shuffle_spill: bool = v["spark.shuffle.spill"]
        self.shuffle_spill_compress: bool = v["spark.shuffle.spill.compress"]
        self.shuffle_manager: str = v["spark.shuffle.manager"]
        self.broadcast_block_size: int = v["spark.broadcast.blockSize"] * MB
        self.broadcast_compress: bool = v["spark.broadcast.compress"]
        self.rdd_compress: bool = v["spark.rdd.compress"]
        self.memory_map_threshold: int = v["spark.storage.memoryMapThreshold"] * MB
        # Compression: the block size of the *active* codec (lzf is unblocked).
        self.compression_codec: str = v["spark.io.compression.codec"]
        if self.compression_codec == "lz4":
            self.codec_block_size: int = v["spark.io.compression.lz4.blockSize"] * KB
        elif self.compression_codec == "snappy":
            self.codec_block_size = v["spark.io.compression.snappy.blockSize"] * KB
        else:
            self.codec_block_size = 32 * KB
        # Serialization.
        self.serializer: str = v["spark.serializer"]
        self.kryo_reference_tracking: bool = v["spark.kryo.referenceTracking"]
        self.kryo_buffer_max: int = v["spark.kryoserializer.buffer.max"] * MB
        self.kryo_buffer: int = v["spark.kryoserializer.buffer"] * KB
        # Scheduling and speculation (intervals in seconds).
        self.speculation: bool = v["spark.speculation"]
        self.speculation_interval: float = (
            v["spark.speculation.interval"] / 1000.0  # ms -> s
        )
        self.speculation_multiplier: float = v["spark.speculation.multiplier"]
        self.speculation_quantile: float = v["spark.speculation.quantile"]
        self.locality_wait: float = float(v["spark.locality.wait"])
        self.revive_interval: float = float(v["spark.scheduler.revive.interval"])
        self.task_max_failures: int = v["spark.task.maxFailures"]
        self.default_parallelism: int = v["spark.default.parallelism"]
        self.local_execution: bool = v["spark.localExecution.enabled"]
        # Networking and liveness.
        self.akka_failure_threshold: int = v["spark.akka.failure.detector.threshold"]
        self.akka_heartbeat_pauses: float = float(v["spark.akka.heartbeat.pauses"])
        self.akka_heartbeat_interval: float = float(v["spark.akka.heartbeat.interval"])
        self.akka_threads: int = v["spark.akka.threads"]
        self.network_timeout: float = float(v["spark.network.timeout"])
        # Cores and memory (sizes in bytes).
        self.driver_cores: int = v["spark.driver.cores"]
        self.executor_cores: int = v["spark.executor.cores"]
        self.driver_memory: int = v["spark.driver.memory"] * MB
        self.executor_memory: int = v["spark.executor.memory"] * MB
        self.memory_fraction: float = v["spark.memory.fraction"]
        self.storage_fraction: float = v["spark.memory.storageFraction"]
        self.off_heap_enabled: bool = v["spark.memory.offHeap.enabled"]
        self.off_heap_size: int = (
            (v["spark.memory.offHeap.size"] * MB) if self.off_heap_enabled else 0
        )

    def __getitem__(self, name: str):
        return self.config[self.config.space.resolve_name(name)]

    # ------------------------------------------------------------------
    # Derived executor packing
    # ------------------------------------------------------------------
    @cached_property
    def executors_per_node(self) -> float:
        """How many executors the standalone master packs on one worker.

        Limited both by cores (one executor claims ``executor.cores``
        cores) and by memory (each claims an ``executor.memory`` heap
        plus ~10% JVM overhead).  Modelled *fractionally*: the capacity
        ratio is used directly instead of its floor, so the packing
        response is smooth in the memory/core knobs (on a real cluster
        the floor staircase exists but its effect washes out across
        heterogeneous waves; a smooth response is also what keeps the
        substrate learnable at the paper's training-set sizes).  At
        least one executor per node always launches — standalone mode
        overcommits rather than refusing to start.
        """
        by_cores = self.cluster.cores_per_node / self.executor_cores
        overhead = self.executor_memory * 1.10
        by_memory = self.cluster.usable_memory_per_node_bytes / overhead
        return max(1.0, min(by_cores, by_memory))

    @cached_property
    def num_executors(self) -> float:
        return self.executors_per_node * self.cluster.worker_nodes

    @cached_property
    def total_task_slots(self) -> float:
        """Cluster-wide concurrent tasks (executors x cores-per-executor)."""
        return self.num_executors * self.executor_cores

    @cached_property
    def spark_memory_per_executor(self) -> float:
        """Unified (execution + storage) region per executor, in bytes."""
        usable_heap = max(self.executor_memory - RESERVED_MEMORY_BYTES, 16 * MB)
        return usable_heap * self.memory_fraction

    @cached_property
    def user_memory_per_executor(self) -> float:
        """User-object region: (heap - 300 MB) * (1 - memory.fraction)."""
        usable_heap = max(self.executor_memory - RESERVED_MEMORY_BYTES, 16 * MB)
        return usable_heap * (1.0 - self.memory_fraction)

    @cached_property
    def protected_storage_per_executor(self) -> float:
        """Storage memory immune to eviction by execution (bytes)."""
        return self.spark_memory_per_executor * self.storage_fraction

    @cached_property
    def execution_memory_per_task(self) -> float:
        """Upper bound on one task's execution memory (empty cache).

        Unified memory management lets execution use the whole Spark
        region when no storage is resident; see
        :meth:`repro.sparksim.memory.MemoryModel.execution_available_per_task`
        for the cache-aware figure the simulator actually uses.
        """
        per_task = self.spark_memory_per_executor / self.executor_cores
        return per_task + self.off_heap_size / self.executor_cores

    def describe(self) -> str:
        """One-line summary used in example scripts and logs."""
        return (
            f"{self.num_executors} executors x {self.executor_cores} cores, "
            f"{self['spark.executor.memory']} MB heap, "
            f"serializer={self.serializer}, codec={self.compression_codec}, "
            f"parallelism={self.default_parallelism}"
        )
