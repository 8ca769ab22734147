"""Crash safety under SIGKILL: torn writes must read as old-or-absent.

A child process writes successive versions of one store key as fast as
it can; the parent SIGKILLs it at an arbitrary moment and then reads.
The store's contract: the parent sees a complete, digest-valid version
(any version) or nothing — never torn bytes.  A second test drives the
full job pipeline in a subprocess, kills it mid-collection, and resumes
to the byte-identical report (the serving layer's acceptance property).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.tuner import DacTuner
from repro.service import DONE, JobRecord, JobService, TuneRequest
from repro.store import RunStore, report_fingerprint
from repro.workloads import get_workload

SRC = str(Path(__file__).parent.parent / "src")


def _spawn(script: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


#: Child: write version payloads under one key until killed.  Payloads
#: are large enough (~400 KB) that a kill lands mid-write often.
WRITER = """
import sys
from repro.store import RunStore

store = RunStore(sys.argv[1])
version = 0
while True:
    version += 1
    payload = (b"%08d" % version) * 50_000
    store.put_bytes("torture/key", payload)
"""


@pytest.mark.parametrize("delay", [0.05, 0.15, 0.4])
def test_sigkill_mid_write_never_torn(tmp_path, delay):
    root = tmp_path / "store"
    RunStore(root)
    child = _spawn(WRITER, str(root))
    try:
        time.sleep(delay)
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()

    store = RunStore(root)  # fresh read of index + blobs
    payload = store.get_bytes("torture/key")
    if payload is None:
        # Killed before the first complete write landed: acceptable.
        return
    # Whatever version we see must be complete and self-consistent.
    assert len(payload) == 8 * 50_000
    version = payload[:8]
    assert payload == version * 50_000


def test_sigkill_leaves_valid_job_record(tmp_path):
    """Kill a child rewriting its job record in a loop; parent record
    must always parse (atomic whole-file replace)."""
    root = tmp_path / "store"
    RunStore(root)
    script = """
import sys
from repro.store import RunStore

store = RunStore(sys.argv[1])
n = 0
while True:
    n += 1
    store.save_job("victim", {"job_id": "victim", "n": n, "pad": "x" * 100_000})
"""
    child = _spawn(script, str(root))
    time.sleep(0.3)
    child.send_signal(signal.SIGKILL)
    child.wait()
    record = RunStore(root).load_job("victim")
    if record is not None:  # None only if killed before the first write
        assert record["job_id"] == "victim"
        assert len(record["pad"]) == 100_000


#: Child: run one queued job to completion via the service.
JOB_RUNNER = """
import sys
from repro.service import JobService

service = JobService(sys.argv[1], use_cache=False)
service.resume(sys.argv[2])
"""

#: Small but not trivial: 10 collect batches of 10, so the kill window
#: during collection is wide enough to hit reliably.
REQUEST = dict(
    program="TS", size=10.0, n_train=100, n_trees=20,
    generations=3, patience=None, seed=5,
)


def test_sigkill_mid_job_resume_matches_uninterrupted(tmp_path):
    root = tmp_path / "store"
    service = JobService(root, use_cache=False)
    record = service.submit(TuneRequest(**REQUEST))

    child = _spawn(JOB_RUNNER, str(root), record.job_id)
    deadline = time.monotonic() + 120
    killed = False
    while time.monotonic() < deadline:
        data = RunStore(root).load_job(record.job_id) or {}
        batches = data.get("progress", {}).get("collect", {}).get("batches_done", 0)
        if batches >= 1:
            child.send_signal(signal.SIGKILL)
            child.wait()
            killed = True
            break
        if child.poll() is not None:
            pytest.fail("job finished before the kill point")
        time.sleep(0.005)
    assert killed, "never saw collect progress"

    # The dying process never updated its state: still "running", which
    # the data model treats as resumable.
    crashed = JobRecord.from_dict(RunStore(root).load_job(record.job_id))
    assert crashed.state == "running"
    assert crashed.resumable

    resumed = JobService(root, use_cache=False).resume(record.job_id)
    assert resumed.state == DONE

    # Reference: the identical request, uninterrupted, no service.
    tuner = DacTuner(
        get_workload("TS"),
        n_train=REQUEST["n_train"],
        n_trees=REQUEST["n_trees"],
        seed=REQUEST["seed"],
    )
    tuner.collect()
    tuner.fit()
    reference = tuner.tune(
        REQUEST["size"], generations=REQUEST["generations"], patience=None
    )
    stored = RunStore(root).get_report(resumed.artifact_key("report"))
    assert report_fingerprint(stored) == report_fingerprint(reference)
    assert resumed.result["fingerprint"] == report_fingerprint(reference)

    # Resume efficiency: the second session re-ran only the unfinished
    # suffix of the collection — strictly fewer than starting over.
    runs = {int(k): v for k, v in resumed.runs_by_session.items()}
    assert runs[1] >= 1
    assert runs[2] < REQUEST["n_train"]
    assert runs[1] + runs[2] == REQUEST["n_train"]

    # The event logs of both sessions landed in one file that still
    # parses (torn tail from the kill is skipped).
    from repro.telemetry import read_event_log

    events = read_event_log(RunStore(root).event_log_path(record.job_id))
    names = {r.get("name") for r in events.records}
    assert "collect.size" in names
    assert "ga.generation" in names


def test_resume_after_kill_between_artifact_and_record_writes(tmp_path):
    """The collect checkpoint writes the partial training set, then the
    record's ``batches_done``.  A kill between the two leaves a
    two-batch artifact behind a one-batch record; resuming must keep
    both collected batches instead of re-collecting from batch 0."""
    from repro.core.collecting import Collector, TrainingSet
    from repro.engine import InProcessBackend

    root = tmp_path / "store"
    service = JobService(root, use_cache=False)
    record = service.submit(TuneRequest(**REQUEST))

    # Session 1, as the kill left it: two batches on disk, one recorded.
    collector = Collector(
        get_workload(REQUEST["program"]), seed=REQUEST["seed"],
        engine=InProcessBackend(),
    )
    batches = collector.plan(REQUEST["n_train"], stream="train")
    vectors = collector.run_batch(batches[0]) + collector.run_batch(batches[1])
    collected = len(vectors)
    assert collected == 20
    store = RunStore(root)
    store.put_training_set(
        record.artifact_key("training"), TrainingSet(collector.space, vectors)
    )
    record.state = "running"
    record.sessions = 1
    record.runs_by_session = {"1": collected}
    record.progress = {
        "collect": {"batches_done": 1, "total_batches": len(batches)}
    }
    store.save_job(record.job_id, record.to_dict())

    resumed = JobService(root, use_cache=False).resume(record.job_id)
    assert resumed.state == DONE
    assert resumed.runs_by_session["2"] == REQUEST["n_train"] - collected

    tuner = DacTuner(
        get_workload("TS"),
        n_train=REQUEST["n_train"],
        n_trees=REQUEST["n_trees"],
        seed=REQUEST["seed"],
    )
    tuner.collect()
    tuner.fit()
    reference = tuner.tune(
        REQUEST["size"], generations=REQUEST["generations"], patience=None
    )
    assert resumed.result["fingerprint"] == report_fingerprint(reference)


def test_collect_artifact_equals_row_object_training_set(tmp_path):
    """Collect checkpoints stream column rows.  The stored training set
    must be byte-identical to the one built from row objects
    (``TrainingSet(space, vectors)``), both for an uninterrupted job
    and for one resumed from a two-batch checkpoint."""
    from repro.core.collecting import Collector, TrainingSet
    from repro.engine import InProcessBackend
    from repro.io import codecs
    from repro.store.artifacts import payload_digest

    request = TuneRequest(program="TS", kind="collect", n_train=100, seed=5)
    collector = Collector(get_workload("TS"), seed=5, engine=InProcessBackend())
    batches = collector.plan(request.n_train, stream="train")
    vectors = [v for batch in batches for v in collector.run_batch(batch)]
    codec = codecs.default_for("training_set")
    expected = payload_digest(codec.encode(TrainingSet(collector.space, vectors)))

    def stored_digest(root, record):
        entry = RunStore(root).entry(record.artifact_key("training"))
        return entry["digest"]

    fresh_root = tmp_path / "fresh"
    service = JobService(fresh_root, use_cache=False)
    record = service.submit(request)
    (done,) = service.run_pending()
    assert done.state == DONE
    assert stored_digest(fresh_root, record) == expected

    resumed_root = tmp_path / "resumed"
    service = JobService(resumed_root, use_cache=False)
    record = service.submit(request)
    store = RunStore(resumed_root)
    store.put_training_set(
        record.artifact_key("training"), TrainingSet(collector.space, vectors[:20])
    )
    record.state = "running"
    record.sessions = 1
    record.runs_by_session = {"1": 20}
    record.progress = {"collect": {"batches_done": 2, "total_batches": len(batches)}}
    store.save_job(record.job_id, record.to_dict())
    resumed = JobService(resumed_root, use_cache=False).resume(record.job_id)
    assert resumed.state == DONE
    assert resumed.runs_by_session["2"] == request.n_train - 20
    assert stored_digest(resumed_root, record) == expected
