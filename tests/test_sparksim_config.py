"""Tests for SparkConf derived quantities (executor packing, memory)."""

import pytest

from repro.common.rng import derive_rng
from repro.common.units import KB, MB
from repro.sparksim.cluster import PAPER_CLUSTER
from repro.sparksim.config import RESERVED_MEMORY_BYTES, SparkConf
from repro.sparksim.confspace import SPARK_CONF_SPACE


def conf(**overrides):
    return SparkConf(SPARK_CONF_SPACE.from_dict(overrides), PAPER_CLUSTER)


class TestTypedViews:
    def test_unit_conversions(self):
        c = conf()
        assert c.executor_memory == 1024 * MB
        assert c.shuffle_file_buffer == 32 * 1024
        assert c.speculation_interval == pytest.approx(0.1)  # ms -> s

    def test_dict_access_with_alias(self):
        c = conf()
        assert c["spark_executor_cores"] == c["spark.executor.cores"]

    def test_codec_block_size_follows_active_codec(self):
        lz4 = conf(**{
            "spark.io.compression.codec": "lz4",
            "spark.io.compression.lz4.blockSize": 64,
            "spark.io.compression.snappy.blockSize": 8,
        })
        assert lz4.codec_block_size == 64 * 1024
        snappy = conf(**{
            "spark.io.compression.codec": "snappy",
            "spark.io.compression.lz4.blockSize": 64,
            "spark.io.compression.snappy.blockSize": 8,
        })
        assert snappy.codec_block_size == 8 * 1024

    def test_off_heap_zero_when_disabled(self):
        c = conf(**{"spark.memory.offHeap.size": 500,
                    "spark.memory.offHeap.enabled": False})
        assert c.off_heap_size == 0
        on = conf(**{"spark.memory.offHeap.size": 500,
                     "spark.memory.offHeap.enabled": True})
        assert on.off_heap_size == 500 * MB


class TestExecutorPacking:
    def test_core_bound_packing(self):
        c = conf(**{"spark.executor.cores": 12, "spark.executor.memory": 1024})
        # 72 cores / 12 = 6 executors per node (memory is plentiful).
        assert c.executors_per_node == pytest.approx(6.0)
        assert c.total_task_slots == pytest.approx(6 * 5 * 12)

    def test_memory_bound_packing(self):
        c = conf(**{"spark.executor.cores": 1, "spark.executor.memory": 12288})
        # 56 GB usable / (12 GB x 1.1) ~ 4.2 executors, not 72.
        assert c.executors_per_node < 5.0
        assert c.executors_per_node == pytest.approx(
            PAPER_CLUSTER.usable_memory_per_node_bytes / (12288 * MB * 1.1)
        )

    def test_at_least_one_executor(self):
        c = conf(**{"spark.executor.cores": 12, "spark.executor.memory": 12288})
        assert c.executors_per_node >= 1.0

    def test_more_cores_fewer_executors(self):
        few = conf(**{"spark.executor.cores": 2})
        many = conf(**{"spark.executor.cores": 8})
        assert few.executors_per_node > many.executors_per_node


class TestMemoryRegions:
    def test_unified_region_respects_reserved(self):
        c = conf(**{"spark.executor.memory": 4096, "spark.memory.fraction": 0.75})
        expected = (4096 * MB - RESERVED_MEMORY_BYTES) * 0.75
        assert c.spark_memory_per_executor == pytest.approx(expected)

    def test_user_region_complements_spark_region(self):
        c = conf(**{"spark.executor.memory": 4096, "spark.memory.fraction": 0.6})
        usable = 4096 * MB - RESERVED_MEMORY_BYTES
        assert c.spark_memory_per_executor + c.user_memory_per_executor == (
            pytest.approx(usable)
        )

    def test_protected_storage_scales_with_fraction(self):
        low = conf(**{"spark.memory.storageFraction": 0.5})
        high = conf(**{"spark.memory.storageFraction": 0.9})
        assert high.protected_storage_per_executor > low.protected_storage_per_executor

    def test_tiny_heap_clamped_above_zero(self):
        c = conf(**{"spark.executor.memory": 1024})
        assert c.spark_memory_per_executor > 0

    def test_describe_mentions_key_facts(self):
        text = conf().describe()
        assert "executors" in text and "serializer=java" in text


def _looked_up_views(c):
    """Every typed view as a lookup per read computed it: one
    ``config[resolve_name(name)]`` and the same expression."""

    def get(name):
        return c.config[c.config.space.resolve_name(name)]

    codec = get("spark.io.compression.codec")
    if codec == "lz4":
        codec_block_size = get("spark.io.compression.lz4.blockSize") * KB
    elif codec == "snappy":
        codec_block_size = get("spark.io.compression.snappy.blockSize") * KB
    else:
        codec_block_size = 32 * KB
    off_heap = get("spark.memory.offHeap.enabled")
    return {
        "reducer_max_size_in_flight": get("spark.reducer.maxSizeInFlight") * MB,
        "shuffle_file_buffer": get("spark.shuffle.file.buffer") * KB,
        "bypass_merge_threshold": get("spark.shuffle.sort.bypassMergeThreshold"),
        "speculation": get("spark.speculation"),
        "speculation_interval": get("spark.speculation.interval") / 1000.0,
        "speculation_multiplier": get("spark.speculation.multiplier"),
        "speculation_quantile": get("spark.speculation.quantile"),
        "broadcast_block_size": get("spark.broadcast.blockSize") * MB,
        "compression_codec": codec,
        "codec_block_size": codec_block_size,
        "kryo_reference_tracking": get("spark.kryo.referenceTracking"),
        "kryo_buffer_max": get("spark.kryoserializer.buffer.max") * MB,
        "kryo_buffer": get("spark.kryoserializer.buffer") * KB,
        "driver_cores": get("spark.driver.cores"),
        "executor_cores": get("spark.executor.cores"),
        "driver_memory": get("spark.driver.memory") * MB,
        "executor_memory": get("spark.executor.memory") * MB,
        "memory_map_threshold": get("spark.storage.memoryMapThreshold") * MB,
        "akka_failure_threshold": get("spark.akka.failure.detector.threshold"),
        "akka_heartbeat_pauses": float(get("spark.akka.heartbeat.pauses")),
        "akka_heartbeat_interval": float(get("spark.akka.heartbeat.interval")),
        "akka_threads": get("spark.akka.threads"),
        "network_timeout": float(get("spark.network.timeout")),
        "locality_wait": float(get("spark.locality.wait")),
        "revive_interval": float(get("spark.scheduler.revive.interval")),
        "task_max_failures": get("spark.task.maxFailures"),
        "shuffle_compress": get("spark.shuffle.compress"),
        "consolidate_files": get("spark.shuffle.consolidateFiles"),
        "memory_fraction": get("spark.memory.fraction"),
        "shuffle_spill": get("spark.shuffle.spill"),
        "shuffle_spill_compress": get("spark.shuffle.spill.compress"),
        "broadcast_compress": get("spark.broadcast.compress"),
        "rdd_compress": get("spark.rdd.compress"),
        "serializer": get("spark.serializer"),
        "storage_fraction": get("spark.memory.storageFraction"),
        "local_execution": get("spark.localExecution.enabled"),
        "default_parallelism": get("spark.default.parallelism"),
        "off_heap_enabled": off_heap,
        "shuffle_manager": get("spark.shuffle.manager"),
        "off_heap_size": (get("spark.memory.offHeap.size") * MB) if off_heap else 0,
    }


def _assert_views_match(c):
    expected = _looked_up_views(c)
    resolved = {
        name: value
        for name, value in vars(c).items()
        if name not in ("config", "cluster")
    }
    assert resolved.keys() == expected.keys()
    for name, value in expected.items():
        assert type(resolved[name]) is type(value), name
        assert resolved[name] == value, name


class TestResolvedViews:
    def test_equal_lookups_for_random_configurations(self):
        rng = derive_rng("sparkconf-views")
        for _ in range(200):
            _assert_views_match(SparkConf(SPARK_CONF_SPACE.random(rng), PAPER_CLUSTER))

    def test_equal_lookups_for_underscore_alias_dict(self):
        c = SparkConf(
            {
                "spark_executor_memory": 4096,
                "spark_io_compression_codec": "snappy",
                "spark_io_compression_snappy_blockSize": 64,
                "spark_memory_offHeap_enabled": True,
                "spark_memory_offHeap_size": 700,
                "spark_speculation_interval": 250,
            },
            PAPER_CLUSTER,
        )
        _assert_views_match(c)
        assert c.executor_memory == 4096 * MB
        assert c.codec_block_size == 64 * KB and c.off_heap_size == 700 * MB
        assert c["spark_executor_memory"] == c["spark.executor.memory"] == 4096
