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
    warm = CachedBackend(InProcessBackend(), directory=tmp_path)
    warm.submit([request])
    for entry in tmp_path.glob("*.pkl"):
        entry.write_bytes(b"not a pickle")
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


def test_disk_cache_entries_are_blob_containers(space, tmp_path):
    from repro.store import blobfmt

    backend = CachedBackend(InProcessBackend(), directory=tmp_path)
    backend.submit(_requests(space, n=1))
    entries = list(tmp_path.glob("*.pkl"))
    assert entries and all(
        e.read_bytes().startswith(blobfmt.MAGIC) for e in entries
    )


def test_legacy_tagged_pickle_entry_still_serves(space, tmp_path):
    """Entries written under the old tagged-pickle layout keep hitting."""
    request = _requests(space, n=1)[0]
    warm = CachedBackend(InProcessBackend(), directory=tmp_path)
    expected = warm.submit([request])[0].run
    entry = next(tmp_path.glob("*.pkl"))
    from repro.engine import CACHE_FORMAT

    entry.write_bytes(CACHE_FORMAT + pickle.dumps(expected))

    cold = CachedBackend(InProcessBackend(), directory=tmp_path)
    outcome = cold.submit([request])[0]
    assert outcome.cache_hit and cold.inner.stats.runs == 0
    assert outcome.run.seconds == expected.seconds


def test_stale_format_entry_invalidated_and_rewritten(space, tmp_path):
    """A cache entry from an older format version reads as a miss and is
    replaced by a current-format entry."""
    request = _requests(space, n=1)[0]
    warm = CachedBackend(InProcessBackend(), directory=tmp_path)
    expected = warm.submit([request])[0].run
    entry = next(tmp_path.glob("*.pkl"))
    entry.write_bytes(b"repro-cache/0\n" + pickle.dumps(expected))

    from repro.store import blobfmt

    cold = CachedBackend(InProcessBackend(), directory=tmp_path)
    outcome = cold.submit([request])[0]
    assert not outcome.cache_hit  # stale format did not serve
    assert entry.read_bytes().startswith(blobfmt.MAGIC)  # rewritten
    assert outcome.run.seconds == expected.seconds


def test_truncated_disk_entry_evicted_then_overwritten(space, tmp_path):
    request = _requests(space, n=1)[0]
    warm = CachedBackend(InProcessBackend(), directory=tmp_path)
    warm.submit([request])
    entry = next(tmp_path.glob("*.pkl"))
    entry.write_bytes(entry.read_bytes()[:-7])  # torn write

    cold = CachedBackend(InProcessBackend(), directory=tmp_path)
    first = cold.submit([request])[0]
    assert not first.cache_hit and cold.inner.stats.runs == 1
    # the bad entry was replaced: a third backend now hits disk cleanly
    third = CachedBackend(InProcessBackend(), directory=tmp_path)
    assert third.submit([request])[0].cache_hit
