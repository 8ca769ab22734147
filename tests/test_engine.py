"""Execution engine: backends, caching, failure policy, determinism."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.cli.main import build_parser
from repro.common.rng import derive_rng
from repro.core.baselines import default_configuration
from repro.core.collecting import Collector
from repro.engine import (
    CachedBackend,
    ExecRequest,
    ExecResult,
    ExecutionError,
    FailedRun,
    InProcessBackend,
    ProcessPoolBackend,
    require_success,
)
from repro.engine.cache import request_key
from repro.sparksim.simulator import SparkSimulator
from repro.workloads import get_workload


def _requests(space, n=6, programs=("TS", "KM"), seed="engine-tests"):
    """A mixed batch over several programs, sizes and configurations."""
    rng = derive_rng(seed)
    requests = []
    for i in range(n):
        workload = get_workload(programs[i % len(programs)])
        size = workload.paper_sizes[i % len(workload.paper_sizes)]
        config = default_configuration() if i == 0 else space.random(rng)
        requests.append(ExecRequest(job=workload.job(size), config=config))
    return requests


class FlakySimulator:
    """Delegates to a real simulator, raising the first ``fail_first``
    times a given program is run (per (program, datasize) pair)."""

    def __init__(self, fail_program: str, fail_first: int = 10**9):
        self.inner = SparkSimulator()
        self.noise_sigma = self.inner.noise_sigma
        self.fail_program = fail_program
        self.fail_first = fail_first
        self.calls = 0

    def run(self, job, config):
        if job.program == self.fail_program:
            self.calls += 1
            if self.calls <= self.fail_first:
                raise RuntimeError("injected substrate failure")
        return self.inner.run(job, config)


# ----------------------------------------------------------------------
# Backend equivalence
# ----------------------------------------------------------------------
def test_processpool_identical_to_inprocess(space):
    requests = _requests(space, n=6)
    inproc = InProcessBackend()
    serial = inproc.submit(requests)
    with ProcessPoolBackend(jobs=2) as pool:
        fanned = pool.submit(requests)
    assert all(isinstance(o, ExecResult) for o in serial + fanned)
    for a, b in zip(serial, fanned):
        assert a.run == b.run  # byte-identical RunResult, stages included


def test_processpool_chunking_preserves_order(space):
    # More requests than workers*4 forces multi-item chunks.
    requests = _requests(space, n=10, programs=("TS",))
    expected = [InProcessBackend().run(r.job, r.config) for r in requests]
    with ProcessPoolBackend(jobs=3) as pool:
        got = require_success(pool.submit(requests))
    assert got == expected


def test_collector_identical_across_backends(terasort):
    serial = Collector(terasort, seed=3, engine=InProcessBackend())
    with ProcessPoolBackend(jobs=2) as pool:
        fanned_set = Collector(terasort, seed=3, engine=pool).collect(30)
    serial_set = serial.collect(30)
    np.testing.assert_array_equal(serial_set.features(), fanned_set.features())
    np.testing.assert_array_equal(serial_set.times(), fanned_set.times())


def test_run_sugar_and_stats(space):
    backend = InProcessBackend()
    request = _requests(space, n=1)[0]
    result = backend.run(request.job, request.config)
    assert result.seconds > 0
    stats = backend.stats
    assert stats.runs == 1 and stats.failures == 0
    assert "inprocess" in stats.summary()


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------
def test_cache_hits_repeated_triple(space):
    request = _requests(space, n=1)[0]
    cached = CachedBackend(InProcessBackend())
    first = cached.submit([request])[0]
    second = cached.submit([request])[0]
    assert not first.cache_hit and second.cache_hit
    assert first.run == second.run
    assert cached.inner.stats.runs == 1  # substrate hit exactly once
    stats = cached.stats
    assert stats.cache_hits == 1 and stats.cache_misses == 1
    assert stats.hit_rate == pytest.approx(0.5)


def test_cache_never_aliases_programs(space, terasort, kmeans):
    config = default_configuration()
    cached = CachedBackend(InProcessBackend())
    ts = cached.submit([ExecRequest(job=terasort.job(30.0), config=config)])[0]
    km = cached.submit([ExecRequest(job=kmeans.job(30.0), config=config)])[0]
    assert not km.cache_hit  # same config+size, different program
    assert ts.run != km.run
    assert cached.inner.stats.runs == 2


def test_cache_key_depends_on_substrate_signature(space):
    request = _requests(space, n=1)[0]
    assert request_key(request, "sig-a") != request_key(request, "sig-b")


def test_cache_key_is_stable():
    """On-disk caches from earlier releases stay valid only while the key
    of a given request never changes."""
    job = get_workload("KM").job(160.0)
    request = ExecRequest(job=job, config=default_configuration())
    assert request_key(request, "sig") == "b6c9c611912b3da493b12a68f5c22608"


def test_disk_cache_survives_backend_instances(space, tmp_path):
    request = _requests(space, n=1)[0]
    first = CachedBackend(InProcessBackend(), directory=tmp_path)
    original = first.submit([request])[0]

    second = CachedBackend(InProcessBackend(), directory=tmp_path)
    replayed = second.submit([request])[0]
    assert replayed.cache_hit
    assert replayed.run == original.run
    assert second.inner.stats.runs == 0  # answered entirely from disk


def test_corrupt_disk_entry_is_a_miss(space, tmp_path):
    request = _requests(space, n=1)[0]
    _legacy_entry(tmp_path, request).write_bytes(b"not a pickle")
    cold = CachedBackend(InProcessBackend(), directory=tmp_path)
    outcome = cold.submit([request])[0]
    assert not outcome.cache_hit and cold.inner.stats.runs == 1


def test_failures_are_not_cached(space):
    request = _requests(space, n=1)[0]
    flaky = FlakySimulator(request.program)
    cached = CachedBackend(
        InProcessBackend(simulator=flaky, max_attempts=1, backoff_seconds=0.0)
    )
    assert isinstance(cached.submit([request])[0], FailedRun)
    assert len(cached) == 0
    # Once the substrate recovers, the same request executes fresh.
    flaky.fail_first = 0
    outcome = cached.submit([request])[0]
    assert isinstance(outcome, ExecResult) and not outcome.cache_hit


# ----------------------------------------------------------------------
# Failure policy
# ----------------------------------------------------------------------
def test_failed_run_does_not_poison_batch(space):
    requests = _requests(space, n=4, programs=("TS", "KM"))
    backend = InProcessBackend(
        simulator=FlakySimulator("KM"), max_attempts=2, backoff_seconds=0.0
    )
    outcomes = backend.submit(requests)
    failed = [o for o in outcomes if isinstance(o, FailedRun)]
    succeeded = [o for o in outcomes if isinstance(o, ExecResult)]
    assert failed and succeeded  # mixed batch, order preserved
    assert all(f.program == "KM" and f.attempts == 2 for f in failed)
    assert "injected substrate failure" in failed[0].error
    assert backend.stats.failures == len(failed)
    assert backend.stats.retries == len(failed)  # one retry per failure

    with pytest.raises(ExecutionError) as excinfo:
        require_success(outcomes)
    assert excinfo.value.failures == tuple(failed)


def test_retry_recovers_transient_failure(space):
    request = ExecRequest(job=get_workload("TS").job(30.0), config=space.random(derive_rng("r")))
    backend = InProcessBackend(
        simulator=FlakySimulator("TS", fail_first=1),
        max_attempts=3,
        backoff_seconds=0.0,
    )
    outcome = backend.submit([request])[0]
    assert isinstance(outcome, ExecResult)
    assert outcome.attempts == 2
    assert backend.stats.retries == 1 and backend.stats.failures == 0


def test_outcomes_are_picklable(space):
    outcome = InProcessBackend().submit(_requests(space, n=1))[0]
    assert pickle.loads(pickle.dumps(outcome)) == outcome


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
def test_cli_parses_backend_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["run", "TS", "--size", "30", "--backend", "processpool", "--jobs", "4"]
    )
    assert args.backend == "processpool" and args.jobs == 4
    args = parser.parse_args(["collect", "TS", "--output", "x.csv"])
    assert args.backend == "inprocess" and args.jobs is None


def test_cli_rejects_unknown_backend(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "TS", "--size", "30", "--backend", "thread"])


# ----------------------------------------------------------------------
# Legacy per-key entries (read, never written)
# ----------------------------------------------------------------------
def _legacy_entry(directory, request, run=None):
    """Write ``request``'s result as a blob-wrapped per-key pickle, the
    layout caches used before packs; returns the entry's path."""
    from repro.store import blobfmt

    if run is None:
        run = InProcessBackend().run(request.job, request.config)
    path = directory / f"{request_key(request, InProcessBackend().signature())}.pkl"
    path.write_bytes(
        blobfmt.encode_sections(
            {"pickle": np.frombuffer(pickle.dumps(run), dtype=np.uint8)},
            kind="cache_entry",
        )
    )
    return path


def test_legacy_blob_entry_still_serves(space, tmp_path):
    request = _requests(space, n=1)[0]
    expected = InProcessBackend().run(request.job, request.config)
    _legacy_entry(tmp_path, request, expected)
    cold = CachedBackend(InProcessBackend(), directory=tmp_path)
    outcome = cold.submit([request])[0]
    assert outcome.cache_hit and cold.inner.stats.runs == 0
    assert outcome.run == expected


def test_legacy_tagged_pickle_entry_still_serves(space, tmp_path):
    """Entries written under the old tagged-pickle layout keep hitting."""
    request = _requests(space, n=1)[0]
    expected = InProcessBackend().run(request.job, request.config)
    entry = _legacy_entry(tmp_path, request)
    from repro.engine import CACHE_FORMAT

    entry.write_bytes(CACHE_FORMAT + pickle.dumps(expected))

    cold = CachedBackend(InProcessBackend(), directory=tmp_path)
    outcome = cold.submit([request])[0]
    assert outcome.cache_hit and cold.inner.stats.runs == 0
    assert outcome.run.seconds == expected.seconds


def test_stale_format_entry_invalidated_and_rewritten(space, tmp_path):
    """A cache entry from an older format version reads as a miss, is
    evicted, and its result is rewritten to a pack."""
    request = _requests(space, n=1)[0]
    expected = InProcessBackend().run(request.job, request.config)
    entry = _legacy_entry(tmp_path, request)
    entry.write_bytes(b"repro-cache/0\n" + pickle.dumps(expected))

    cold = CachedBackend(InProcessBackend(), directory=tmp_path)
    outcome = cold.submit([request])[0]
    assert not outcome.cache_hit  # stale format did not serve
    assert not entry.exists()  # evicted
    assert outcome.run.seconds == expected.seconds
    third = CachedBackend(InProcessBackend(), directory=tmp_path)
    assert third.submit([request])[0].cache_hit  # answered from the pack


def test_truncated_disk_entry_evicted_then_overwritten(space, tmp_path):
    request = _requests(space, n=1)[0]
    entry = _legacy_entry(tmp_path, request)
    entry.write_bytes(entry.read_bytes()[:-7])  # torn write

    cold = CachedBackend(InProcessBackend(), directory=tmp_path)
    first = cold.submit([request])[0]
    assert not first.cache_hit and cold.inner.stats.runs == 1
    assert not entry.exists()
    # the result was rewritten: a third backend now hits disk cleanly
    third = CachedBackend(InProcessBackend(), directory=tmp_path)
    assert third.submit([request])[0].cache_hit


def test_cold_submit_opens_no_per_key_file(space, tmp_path, monkeypatch):
    """Without legacy files a cold submit lists the directory once; it
    does not try to open a ``{key}.pkl`` per miss."""
    import io
    import os

    opened, listed = [], []
    real_io_open, real_os_open, real_listdir = io.open, os.open, os.listdir

    def io_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_io_open(file, *args, **kwargs)

    def os_open(path, *args, **kwargs):
        opened.append(str(path))
        return real_os_open(path, *args, **kwargs)

    def listdir(path="."):
        listed.append(str(path))
        return real_listdir(path)

    monkeypatch.setattr(io, "open", io_open)
    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(os, "listdir", listdir)
    backend = CachedBackend(InProcessBackend(), directory=tmp_path)
    outcomes = backend.submit(_requests(space, n=6))
    assert not any(o.cache_hit for o in outcomes)
    assert [p for p in opened if p.endswith(".pkl")] == []
    assert listed == [str(tmp_path)]


def test_legacy_entry_written_after_first_lookup_still_serves(space, tmp_path):
    early, late = _requests(space, n=2)
    cold = CachedBackend(InProcessBackend(), directory=tmp_path)
    assert not cold.submit([early])[0].cache_hit  # lists the directory
    expected = InProcessBackend().run(late.job, late.config)
    _legacy_entry(tmp_path, late, expected)
    outcome = cold.submit([late])[0]
    assert outcome.cache_hit and cold.inner.stats.runs == 1
    assert outcome.run == expected


# ----------------------------------------------------------------------
# Packs: one checksummed container per submit, listed in index.jsonl
# ----------------------------------------------------------------------
def _packs(directory):
    return sorted(directory.glob("*.pack"))


def test_disk_cache_entries_are_blob_containers(space, tmp_path):
    """One checksummed pack per submit that missed; no per-key files and
    no pickle."""
    from repro.engine.cache import INDEX_NAME
    from repro.store import blobfmt

    backend = CachedBackend(InProcessBackend(), directory=tmp_path)
    backend.submit(_requests(space, n=5))
    backend.submit(_requests(space, n=3, seed="other"))
    backend.submit(_requests(space, n=5))  # all hits: writes nothing
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [INDEX_NAME] + [p.name for p in _packs(tmp_path)]
    )
    assert len(_packs(tmp_path)) == 2
    for pack in _packs(tmp_path):
        header, sections = blobfmt.decode_sections(pack.read_bytes())
        assert header["kind"] == "cache_pack"
        assert "pickle" not in sections
        assert all(s.dtype != np.uint8 for s in sections.values())


def test_run_results_round_trip_through_a_pack(space):
    from repro.engine.cache import decode_pack, encode_pack

    rng = derive_rng("pack-round-trip")
    runs = []
    for program in ("PR", "KM", "BA", "NW", "WC", "TS"):
        workload = get_workload(program)
        for size in workload.paper_sizes[:2]:
            config = space.random(rng)
            runs.append(InProcessBackend().run(workload.job(size), config))
    keys = [f"k{i}" for i in range(len(runs))]
    decoded = decode_pack(encode_pack(keys, runs))
    assert list(decoded) == keys
    for key, run in zip(keys, runs):
        assert decoded[key] == run
        assert repr(decoded[key]) == repr(run)
        stage = decoded[key].stages[0]
        assert type(stage.num_tasks) is int and type(stage.iterations) is int


def test_clear_memory_reads_packs_back_from_disk(space, tmp_path):
    requests = _requests(space, n=4)
    backend = CachedBackend(InProcessBackend(), directory=tmp_path)
    first = backend.submit(requests)
    backend.clear_memory()
    assert len(backend) == 0
    again = backend.submit(requests)
    assert all(o.cache_hit for o in again) and backend.inner.stats.runs == 4
    assert [o.run for o in again] == [o.run for o in first]
    # With the pack gone, the cleared backend really does miss.
    backend.clear_memory()
    for pack in _packs(tmp_path):
        pack.unlink()
    assert not any(o.cache_hit for o in backend.submit(requests))


@pytest.mark.parametrize("damage", ["corrupt", "truncated"])
def test_damaged_pack_misses_and_is_rewritten(space, tmp_path, damage):
    requests = _requests(space, n=3)
    CachedBackend(InProcessBackend(), directory=tmp_path).submit(requests)
    (pack,) = _packs(tmp_path)
    blob = bytearray(pack.read_bytes())
    if damage == "corrupt":
        blob[-9] ^= 0xFF
    else:
        del blob[-100:]
    pack.write_bytes(bytes(blob))

    cold = CachedBackend(InProcessBackend(), directory=tmp_path)
    outcomes = cold.submit(requests)
    assert not any(o.cache_hit for o in outcomes) and cold.inner.stats.runs == 3
    assert not pack.exists()  # evicted
    (rewritten,) = _packs(tmp_path)
    third = CachedBackend(InProcessBackend(), directory=tmp_path)
    replayed = third.submit(requests)
    assert all(o.cache_hit for o in replayed) and third.inner.stats.runs == 0
    assert [o.run for o in replayed] == [o.run for o in outcomes]


def test_torn_index_tail_line_is_skipped(space, tmp_path):
    from repro.engine.cache import INDEX_NAME

    first, second = _requests(space, n=2)
    CachedBackend(InProcessBackend(), directory=tmp_path).submit([first])
    index = tmp_path / INDEX_NAME
    with index.open("ab") as handle:  # a writer killed mid-append
        handle.write(b'\n{"pack": "feed.pack", "keys": ["0123')
    reader = CachedBackend(InProcessBackend(), directory=tmp_path)
    assert reader.submit([first])[0].cache_hit
    # The next writer's line terminates the torn one and still counts.
    CachedBackend(InProcessBackend(), directory=tmp_path).submit([second])
    later = CachedBackend(InProcessBackend(), directory=tmp_path)
    assert all(o.cache_hit for o in later.submit([first, second]))
    assert reader.submit([second])[0].cache_hit
    assert later.inner.stats.runs == reader.inner.stats.runs == 0


def test_pack_without_index_line_is_ignored(space, tmp_path):
    """A crash between the pack's rename and its index append leaves a
    pack nobody references."""
    from repro.engine.cache import INDEX_NAME

    request = _requests(space, n=1)[0]
    CachedBackend(InProcessBackend(), directory=tmp_path).submit([request])
    (tmp_path / INDEX_NAME).unlink()
    cold = CachedBackend(InProcessBackend(), directory=tmp_path)
    assert not cold.submit([request])[0].cache_hit
    assert len(_packs(tmp_path)) == 2  # the orphan plus the rewrite


def test_second_backend_sees_packs_written_after_its_first_lookup(space, tmp_path):
    early, late = _requests(space, n=2)
    reader = CachedBackend(InProcessBackend(), directory=tmp_path)
    writer = CachedBackend(InProcessBackend(), directory=tmp_path)
    assert not reader.submit([early])[0].cache_hit  # reads the index to its end
    writer.submit([late])
    outcome = reader.submit([late])[0]
    assert outcome.cache_hit
    assert outcome.run == writer.submit([late])[0].run


def test_batch_keys_equal_one_at_a_time_keys(space):
    from repro.engine.cache import request_keys

    terasort, kmeans = get_workload("TS"), get_workload("KM")
    jobs = [terasort.job(30.0), kmeans.job(160.0)]
    rng = derive_rng("batch-keys")
    requests = [
        ExecRequest(job=jobs[i % 2], config=space.random(rng)) for i in range(8)
    ]
    requests.append(ExecRequest(job=terasort.job(30.0), config=requests[0].config))
    signature = InProcessBackend().signature()
    assert request_keys(requests, signature) == [
        request_key(r, signature) for r in requests
    ]
    assert request_keys(requests, signature)[0] == request_keys(requests, signature)[-1]


def _pack_writer(directory, writer):
    """Child process: five submits of fresh requests into one cache dir."""
    from repro.sparksim.confspace import SPARK_CONF_SPACE

    backend = CachedBackend(InProcessBackend(), directory=directory)
    for i in range(5):
        backend.submit(_requests(SPARK_CONF_SPACE, n=3, seed=f"{writer}-{i}"))


def test_concurrent_writers_lose_no_index_lines(space, tmp_path):
    """More writer processes than cores append to one index: every pack
    they wrote must be listed, so a fresh reader hits every key."""
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    writers = [
        context.Process(target=_pack_writer, args=(str(tmp_path), w))
        for w in range(4)
    ]
    for process in writers:
        process.start()
    for process in writers:
        process.join(timeout=120)
    assert not any(process.is_alive() for process in writers)
    assert [process.exitcode for process in writers] == [0] * 4
    requests = [
        request
        for w in range(4)
        for i in range(5)
        for request in _requests(space, n=3, seed=f"{w}-{i}")
    ]
    reader = CachedBackend(InProcessBackend(), directory=tmp_path)
    assert all(o.cache_hit for o in reader.submit(requests))
    assert reader.inner.stats.runs == 0
    assert len(_packs(tmp_path)) == 20
