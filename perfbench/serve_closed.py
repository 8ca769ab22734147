"""serve-closed: small tunes through the HTTP front door, closed loop.

Set-up boots ``repro serve`` and one ``repro worker`` on a fresh store
and waits until the server answers ``/v1/health`` and the worker has
written its first heartbeat.  Two closed-loop clients then each run one
untimed warm-up job, so that no timed job pays the worker's first-job
costs, and then each submit a small TS tune, wait for its result and
submit the next, until the run's time is up.  Every 4th submission repeats the request submitted two
before it, so the server's dedup read path runs beside the job write
path.  HTTP, queueing, checkpoint writes and lease/record I/O do the
work; the model compute per job is small.

A unit of work is one job, timed from submit to result.  Every
duplicate must get its original's job id and an equal result
fingerprint.

Where the host allows it, the worker runs pinned to one CPU and the
server and the clients to the other, so that the clients' polling never
competes with the job being timed.  The worker's speed sets the
latencies, so a :class:`common.HostMeter` samples the host's speed on
the worker's CPU all through the timed phase, and ``wall_norm_s`` is
the jobs' mean latency rescaled by the meter's mean.  Over seven runs
the meter there tracked the mean latency with a correlation of 0.97,
and a meter on the other CPU with 0.38.

The mean, not the median: the latencies are a mix of near-zero
duplicates and full jobs, stepped by the 0.05 s polls on both sides, so
the median jumps between steps from run to run.  Over six seeds on a
2-vCPU VM the median's spread (IQR over median) was 15% and the mean's
7%.  By Little's law the mean is also the clients' count over the
throughput, so it moves with every layer a job goes through.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    Context,
    HostMeter,
    Outcome,
    allowed_cpus,
    finish,
    geomean,
    mean,
    measure_pick,
    measure_setup,
    median,
    peak_rss_mb,
    percentile,
    prediction_gap,
    python_env,
    traced_layers,
)
from shims import Tracer, require_untraced

NAME = "serve-closed"
POINT = {
    "program": "TS",
    "sizes_gb": [10.0, 20.0, 40.0],
    "n_train": 100,
    "n_trees": 50,
    "generations": 10,
    "population_size": 20,
    "clients": 2,
    "workers": 1,
    "duplicate_every": 4,
    "worker_poll_interval_s": 0.05,
    "client_poll_interval_s": 0.05,
}
TOP_LEVEL = ("api.submit_s", "service.queue_wait_s", "service.run_s")
WORKER_ID = "perfbench-worker"


def request_for(seed: int, index: int):
    """The ``index``-th submission of a run: unique, or every
    ``duplicate_every``-th a repeat of the request two before it."""
    from repro.service import TuneRequest

    if index % POINT["duplicate_every"] == POINT["duplicate_every"] - 1:
        index -= 2
    sizes = POINT["sizes_gb"]
    return TuneRequest(
        program=POINT["program"],
        size=sizes[index % len(sizes)],
        n_train=POINT["n_train"],
        n_trees=POINT["n_trees"],
        generations=POINT["generations"],
        population_size=POINT["population_size"],
        seed=seed * 100_000 + index,
    )


def fleet_cpus():
    """``(clients and server CPU, worker CPU)``, or None where the
    process cannot set CPU affinity or has fewer than two CPUs."""
    cpus = allowed_cpus()
    return (cpus[0], cpus[1]) if cpus is not None and len(cpus) >= 2 else None


class Fleet:
    """One server and one worker over a store, as child processes."""

    def __init__(self, store: Path):
        from repro.service.api import ApiClient

        self.store = store
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        self.client = ApiClient(f"http://127.0.0.1:{port}", timeout=30.0)
        self.procs = []
        self.cpus = fleet_cpus()
        self.log = open(store.parent / f"{store.name}.log", "wb")
        self._spawn("serve", "--store", str(store), "--host", "127.0.0.1",
                    "--port", str(port), "--quota-rate", "0",
                    "--server-id", "perfbench-api", cpu=0)

    def _spawn(self, *args: str, cpu: int) -> None:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=python_env(), stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.procs.append(proc)
        if self.cpus is not None:
            os.sched_setaffinity(proc.pid, {self.cpus[cpu]})

    def boot(self, timeout: float = 60.0) -> None:
        """Wait for the server, start the worker, wait for its heartbeat."""
        from repro.service.api import ApiError

        deadline = time.monotonic() + timeout
        while True:
            try:
                self.client.health()
                break
            except (ApiError, OSError):
                self._wait(deadline, "server never became healthy")
        self._spawn("worker", "--store", str(self.store),
                    "--worker-id", WORKER_ID,
                    "--poll-interval", str(POINT["worker_poll_interval_s"]),
                    cpu=1)
        heartbeat = self.store / "health" / f"{WORKER_ID}.hb"
        while not heartbeat.exists():
            self._wait(deadline, "worker never wrote a heartbeat")

    def _wait(self, deadline: float, message: str) -> None:
        if time.monotonic() >= deadline or any(p.poll() is not None for p in self.procs):
            raise RuntimeError(f"{message} (log: {self.log.name})")
        time.sleep(0.01)

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.log.close()


def closed_loop(client, seed: int, first: int, seconds: float, watch) -> list:
    """Run the clients until ``seconds`` pass (each client finishes at
    least one job); one dict per job."""
    from repro.service.api import ApiError

    lock = threading.Lock()
    counter = [first]
    jobs = []
    deadline = time.perf_counter() + seconds

    def client_loop():
        while True:
            with lock:
                index = counter[0]
                counter[0] += 1
            request = request_for(seed, index)
            job = {"index": index, "seed": request.seed, "ok": False}
            start = time.perf_counter()
            try:
                doc = client.submit(request)
                job["submitted"] = time.perf_counter()
                job["job_id"] = doc["job_id"]
                job["deduplicated"] = bool(doc.get("deduplicated"))
                result = client.wait_result(
                    doc["job_id"], timeout=120.0,
                    poll_interval=POINT["client_poll_interval_s"],
                )
                job["ok"] = True
                job["result"] = result.get("result", {})
                job["fingerprint"] = result.get("fingerprint")
            except (ApiError, OSError, TimeoutError) as err:
                job["error"] = f"{type(err).__name__}: {err}"
            job["start"], job["end"] = start, time.perf_counter()
            job["wall"] = job["end"] - start
            watch(job)
            with lock:
                jobs.append(job)
            if time.perf_counter() >= deadline:
                return

    threads = [threading.Thread(target=client_loop) for _ in range(POINT["clients"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(jobs, key=lambda j: j["index"])


class StateWatch:
    """Sees every result poll of a traced phase and records when the
    polling client thread first saw its current job running and done."""

    def __init__(self):
        self._local = threading.local()

    def _seen(self) -> dict:
        if not hasattr(self._local, "seen"):
            self._local.seen = {}
        return self._local.seen

    def on_call(self, metric, args, result, end) -> None:
        if metric == "api.poll_s" and isinstance(result, dict):
            self._seen().setdefault(result.get("state"), end)

    def split(self, job) -> None:
        """Add the job's queue wait and run time, as its polls saw them."""
        seen, self._local.seen = self._seen(), {}
        done = seen.get("done", job["end"])
        running = seen.get("running", done)
        job["queue_wait"] = max(running - job.get("submitted", job["end"]), 0.0)
        job["run"] = max(done - running, 0.0)


def _check(jobs: list) -> list:
    checks = [(f"job {j['index']} finished", j["ok"], j.get("error", ""))
              for j in jobs]
    by_index = {j["index"]: j for j in jobs}
    every = POINT["duplicate_every"]
    for job in jobs:
        if job["index"] % every != every - 1 or not job["ok"]:
            continue
        original = by_index[job["index"] - 2]
        same = (
            job["deduplicated"]
            and job["job_id"] == original.get("job_id")
            and bool(job["fingerprint"])
            and job["fingerprint"] == original.get("fingerprint")
        )
        checks.append((f"job {job['index']} answered by job {original['index']}",
                       same, job["job_id"]))
    return checks


def _pick_quality(store: Path, jobs: list) -> dict:
    """Measure each served pick against the default configuration."""
    from repro import get_workload
    from repro.engine import InProcessBackend
    from repro.store import RunStore

    runstore = RunStore(store)
    engine = InProcessBackend()
    speedups, gaps, errors = [], [], []
    for job in jobs:
        if not job["ok"] or job["deduplicated"]:
            continue
        report = runstore.get_report(job["result"]["report_key"])
        workload = get_workload(report.program)
        target = workload.job(report.datasize)
        tuned, default = measure_pick(engine, target, report.configuration)
        speedups.append(default / tuned)
        gaps.append(prediction_gap(tuned, report.predicted_seconds))
        errors.append(float(report.model_holdout_error))
    if not speedups:
        return {}
    return {"tuned_speedup": geomean(speedups),
            "prediction_gap": geomean(gaps),
            "holdout_error": median(errors)}


def run(ctx: Context) -> Outcome:
    fleets = []

    def boot(i):
        for fleet in fleets:
            fleet.close()
        fleets.clear()
        start = time.perf_counter()
        fleet = Fleet(ctx.workdir / f"store-{i}")
        fleets.append(fleet)
        fleet.boot()
        return time.perf_counter() - start

    affinity = allowed_cpus()
    try:
        setup_s, import_s, boot_s = measure_setup(boot, pin=False)
        fleet = fleets[0]
        if fleet.cpus is not None:
            # Client threads inherit the main thread's CPU.
            os.sched_setaffinity(0, {fleet.cpus[0]})
        require_untraced()
        # Warm-up, untimed: one job per client, so that no timed job
        # pays the worker's first-job costs.
        warmup = closed_loop(fleet.client, ctx.seed, 0, 0.0, lambda j: None)
        with HostMeter(fleet.cpus[1:] if fleet.cpus else None) as meter:
            phase_start = time.perf_counter()
            untraced = closed_loop(fleet.client, ctx.seed, len(warmup),
                                   ctx.seconds, lambda j: None)
            phase_end = max(j["end"] for j in untraced)
        meter_s = meter.seconds(phase_start, phase_end)
        for job in untraced:
            job["meter"] = meter_s
        phase_wall = phase_end - phase_start
        traced, tracer = [], None
        if ctx.trace:
            watch = StateWatch()
            tracer = Tracer(on_call=watch.on_call)
            with tracer:
                traced = closed_loop(fleet.client, ctx.seed,
                                     len(warmup) + len(untraced),
                                     ctx.seconds, watch.split)
            require_untraced()
        records = {doc["job_id"]: doc for doc in fleet.client.jobs()}
        fleet_rss = sum(peak_rss_mb(proc.pid) for proc in fleet.procs)
        quality = _pick_quality(fleet.store, untraced)
    finally:
        for fleet in fleets:
            fleet.close()
        if affinity is not None:
            os.sched_setaffinity(0, affinity)

    jobs = warmup + untraced + traced
    checks = _check(jobs)
    latencies = [j["wall"] for j in untraced if j["ok"]]
    extra = {}
    if traced:
        stored = [records[j["job_id"]] for j in traced
                  if j["ok"] and not j["deduplicated"]]
        extra = {
            "service.queue_wait_s": sum(j["queue_wait"] for j in traced) / len(traced),
            "service.run_s": sum(j["run"] for j in traced) / len(traced),
            "store.checkpoint_s": (
                sum(r["checkpoint_wall_seconds"] for r in stored) / len(traced)
            ),
        }
    per_layer = {"setup.import_s": import_s, "serve.boot_s": boot_s}
    per_layer.update(traced_layers(tracer, untraced, traced, TOP_LEVEL, extra))
    per_layer.update(quality)
    per_layer.update({
        "job_latency_p50_s": percentile(latencies, 50),
        "job_latency_p75_s": percentile(latencies, 75),
        "job_latency_samples": len(latencies),
        "jobs_per_s": len(latencies) / phase_wall,
    })
    for job in jobs:
        job.pop("result", None)
    return finish(
        setup_s=setup_s,
        units=[j for j in untraced if j["ok"]],
        rss_mb=peak_rss_mb() + fleet_rss,
        operations=len(jobs),
        failures=sum(not j["ok"] for j in jobs),
        checks=checks,
        per_layer=per_layer,
        point=POINT,
        details={"warmup_jobs": warmup, "jobs": untraced, "traced_jobs": traced},
        center=mean,
    )
