"""Shared plumbing: the metric catalogue, set-up timing, memory, provenance.

Every workload module exposes ``run(ctx) -> Outcome``; ``run.py`` turns
the outcome into the printed result.  The catalogue below is the single
source of the metric names, units and directions that ``BENCHMARK.json``
repeats (a self-test keeps the two equal).
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from shims import Tracer, require_untraced

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: What every ``python -m repro`` process imports before doing anything.
CLI_MODULE = "repro.cli.main"

#: (name, unit, better, bound) of the end-to-end metrics, reported by
#: every workload in an untraced run.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_norm_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_ratio", "ratio", "higher", 0.01),
)

#: (name, unit, better) of the per-layer metrics, reported by every
#: workload in a traced run (0 where the workload does not reach the
#: layer).  Seconds and counts are per unit of work.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # startup
    ("setup.import_s", "s", "lower"),
    ("setup.pool_spawn_s", "s", "lower"),
    ("setup.model_s", "s", "lower"),
    ("serve.boot_s", "s", "lower"),
    # core.collecting
    ("collect.s", "s", "lower"),
    ("collect.plan_s", "s", "lower"),
    ("collect.self_s", "s", "lower"),
    ("collect.rows", "count", "higher"),
    # engine + sparksim
    ("engine.submit_s", "s", "lower"),
    ("engine.requests", "count", "lower"),
    ("engine.failures", "count", "lower"),
    ("engine.retries", "count", "lower"),
    ("engine.cache_hit_ratio", "ratio", "higher"),
    # models
    ("fit.s", "s", "lower"),
    ("fit.components", "count", "lower"),
    ("fit.gbt_s", "s", "lower"),
    ("fit.trees", "count", "lower"),
    ("fit.tree_s", "s", "lower"),
    ("fit.bin_s", "s", "lower"),
    ("fit.kernel_s", "s", "lower"),
    ("fit.kernel_calls", "count", "lower"),
    ("fit.predict_s", "s", "lower"),
    ("hm.stack_s", "s", "lower"),
    # core.ga (search)
    ("search.s", "s", "lower"),
    ("search.generations", "count", "lower"),
    ("ga.step_s", "s", "lower"),
    ("search.predict_s", "s", "lower"),
    ("search.predict_rows", "count", "lower"),
    ("ga.memo_hit_ratio", "ratio", "higher"),
    # validation
    ("validate.s", "s", "lower"),
    # store
    ("store.checkpoint_s", "s", "lower"),
    # service
    ("service.queue_wait_s", "s", "lower"),
    ("service.run_s", "s", "lower"),
    # service.api
    ("api.submit_s", "s", "lower"),
    ("api.poll_s", "s", "lower"),
    ("api.requests", "count", "lower"),
    ("api.dedup_hit_ratio", "ratio", "higher"),
    # residual
    ("trace.wall_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
    # workload results, taken from the untraced units of the traced run
    ("wall_s", "s", "lower"),
    ("host_meter_s", "s", "lower"),
    ("collect_runs_per_s", "1/s", "higher"),
    ("cached_runs_per_s", "1/s", "higher"),
    ("job_latency_p50_s", "s", "lower"),
    ("job_latency_p75_s", "s", "lower"),
    ("job_latency_samples", "count", "higher"),
    ("jobs_per_s", "1/s", "higher"),
    ("tuned_speedup", "ratio", "higher"),
    ("prediction_gap", "ratio", "lower"),
    ("holdout_error", "ratio", "lower"),
)


@dataclass
class Context:
    """What a workload gets from the command line."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    attempted: int
    failed: int
    #: (check name, passed, detail) of every output check.
    checks: List[Tuple[str, bool, str]]
    point: Dict[str, object]
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def normalized_wall(unit: dict) -> float:
    """A unit's wall seconds at the reference host speed, where the unit
    carries the host meter's ``meter`` seconds; its raw wall otherwise."""
    if "meter" not in unit:
        return unit["wall"]
    return unit["wall"] * METER_REFERENCE_S / unit["meter"]


def finish(*, setup_s: float, units: Sequence[dict], rss_mb: float,
           operations: int, failures: int,
           checks: List[Tuple[str, bool, str]], per_layer: Dict[str, float],
           point: Dict[str, object], details: Dict[str, object],
           center: Optional[Callable[[Sequence[float]], float]] = None,
           ) -> Outcome:
    """The outcome of a run from its untraced ``units`` (each with its
    ``wall`` seconds): every operation and every output check counts as
    attempted, and as failed when it failed.  ``center`` (the median by
    default) turns the units' walls into ``wall_s`` and ``wall_norm_s``."""
    center = center or median
    failed = failures + sum(not ok for _, ok, _ in checks)
    attempted = operations + len(checks)
    per_layer = dict(per_layer)
    per_layer["wall_s"] = center([u["wall"] for u in units])
    meters = [u["meter"] for u in units if "meter" in u]
    per_layer["host_meter_s"] = median(meters) if meters else 0.0
    return Outcome(
        end_to_end={
            "setup_s": setup_s,
            "wall_norm_s": center([normalized_wall(u) for u in units]),
            "peak_rss_mb": rss_mb,
            "success_ratio": 1.0 - failed / attempted,
        },
        per_layer=per_layer,
        attempted=attempted,
        failed=failed,
        checks=checks,
        point=point,
        details=details,
    )


def measure_pick(engine, job, configuration) -> Tuple[float, float]:
    """Measured seconds of ``configuration`` and of the default
    configuration on ``job``, in one engine batch."""
    from repro import default_configuration
    from repro.engine import ExecRequest, require_success

    tuned, default = require_success(engine.submit([
        ExecRequest(job=job, config=configuration),
        ExecRequest(job=job, config=default_configuration()),
    ]))
    return tuned.seconds, default.seconds


def prediction_gap(measured: float, predicted: float) -> float:
    """How far off the model was on its pick, as a ratio >= 1."""
    return max(measured / predicted, predicted / measured)


# -- statistics -------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def geomean(values: Sequence[float]) -> float:
    return float(statistics.geometric_mean(values))


# -- set-up -----------------------------------------------------------------
def python_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing :data:`CLI_MODULE`."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {CLI_MODULE}; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=python_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(boot: Optional[Callable[[int], float]] = None,
                  pin: bool = True):
    """Set up :data:`SETUP_REPEATS` times; ``boot(i)`` does the workload's
    own part of set-up ``i`` and returns its seconds.  ``pin`` is as for
    :func:`metered`.

    Returns ``(setup_s, import_s, boot_s)``, each the median over the
    repeats; ``setup_s`` is the median of the per-repeat sums, each
    rescaled by the host meter over its repeat as in
    :func:`normalized_wall`.
    """
    imports, boots, windows = [], [], []
    with metered(pin) as meter:
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            imports.append(import_seconds())
            boots.append(boot(i) if boot is not None else 0.0)
            windows.append((start, time.perf_counter()))
    totals = [
        normalized_wall({"wall": a + b, "meter": meter.seconds(*window)})
        for a, b, window in zip(imports, boots, windows)
    ]
    return median(totals), median(imports), median(boots)


# -- host speed ---------------------------------------------------------------
#: CPU seconds of a :mod:`meter` sample that define the reference host
#: speed: about their mean on the 2-vCPU Xeon VM the bounds were set on.
METER_REFERENCE_S = 0.003


def allowed_cpus() -> Optional[List[int]]:
    """The CPUs this thread may run on, or None where the host cannot
    set CPU affinity."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return sorted(os.sched_getaffinity(0))


class HostMeter:
    """Runs ``meter.py`` beside a timed phase, once on each of ``cpus``
    (once, unpinned, when None).

    ``with HostMeter(cpus) as meter:`` starts the meters and waits until
    they sample; on exit it stops them, and ``meter.seconds(start, end)``
    gives the mean sample seconds between two ``time.perf_counter``
    readings.
    """

    def __init__(self, cpus: Optional[Sequence[int]]):
        self.cpus = [None] if cpus is None else list(cpus)
        self.samples: List[List[Tuple[float, float]]] = []
        self._procs: List[Tuple[subprocess.Popen, Path]] = []

    def __enter__(self) -> "HostMeter":
        script = str(Path(__file__).with_name("meter.py"))
        scratch = scratch_dir()
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            for cpu in self.cpus:
                out = scratch / f"meter-{len(self._procs)}.txt"
                proc = subprocess.Popen(
                    [sys.executable, script, str(out)]
                    + ([] if cpu is None else [str(cpu)]),
                    stdout=subprocess.PIPE, text=True,
                )
                self._procs.append((proc, out))
            for proc, _ in self._procs:
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("host meter did not start")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        procs, self._procs = self._procs, []
        self.samples = []
        for proc, _ in procs:
            proc.terminate()
        for proc, out in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            text = out.read_text(encoding="ascii") if out.exists() else ""
            out.unlink(missing_ok=True)
            self.samples.append([tuple(map(float, line.split()))
                                 for line in text.splitlines() if line.strip()])

    def seconds(self, start: float, end: float) -> float:
        """Mean seconds of the samples that ended within ``[start, end]``
        (or of the first one after ``start``, for a shorter window),
        averaged over the meters."""
        means = []
        for samples in self.samples:
            later = [(t, s) for t, s in samples if t >= start]
            if not later:
                raise RuntimeError("host meter took no sample in the window")
            inside = [s for t, s in later if t <= end] or [later[0][1]]
            means.append(mean(inside))
        return mean(means)


# -- memory -----------------------------------------------------------------
def peak_rss_mb(pid: object = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":  # no /proc: fall back to getrusage (KiB on Linux)
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def child_pids() -> List[int]:
    """Pids of this process's live children (Linux; empty elsewhere)."""
    pids: List[int] = []
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(int(p) for p in path.read_text().split())
        except OSError:
            continue
    return sorted(set(pids))


# -- tracing glue -----------------------------------------------------------
def span(tracer, metric: str):
    """``tracer.span(metric)``, or a no-op in an untraced unit."""
    return tracer.span(metric) if tracer is not None else nullcontext()


@contextmanager
def metered(pin: bool):
    """A :class:`HostMeter` on the CPUs the work inside will use.  With
    ``pin``, this thread (and the processes it starts) runs on one CPU
    and the meter samples that CPU; without it (work spread over child
    processes), a meter samples every CPU."""
    cpus = allowed_cpus()
    if pin and cpus is not None:
        os.sched_setaffinity(0, cpus[:1])
    try:
        with HostMeter(cpus[:1] if pin and cpus else cpus) as meter:
            yield meter
    finally:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)


def run_units(seconds: float, unit: Callable, trace: bool, pin: bool = True):
    """Run ``unit(index, tracer)`` until ``seconds`` have passed.

    Untraced runs call ``unit(i, None)``.  Traced runs alternate an
    untraced and a traced unit on the same input ``i``, so the two can be
    compared; at least one unit (pair) always runs.  The units run
    :func:`metered` (``pin`` as there), and each result gets the
    ``meter`` seconds over its unit.  Returns
    ``(untraced_results, traced_results, tracer)``.
    """
    untraced: List[dict] = []
    traced: List[dict] = []
    windows: List[Tuple[dict, float, float]] = []
    tracer = Tracer() if trace else None

    def timed(tracer):
        start = time.perf_counter()
        result = unit(index, tracer)
        windows.append((result, start, time.perf_counter()))
        return result

    with metered(pin) as meter:
        start = time.perf_counter()
        index = 0
        while True:
            require_untraced()
            untraced.append(timed(None))
            if tracer is not None:
                with tracer:
                    traced.append(timed(tracer))
                require_untraced()
            index += 1
            if time.perf_counter() - start >= seconds:
                break
    for result, begin, end in windows:
        result["meter"] = meter.seconds(begin, end)
    return untraced, traced, tracer


def traced_layers(tracer, untraced: Sequence[dict], traced: Sequence[dict],
                  top_level: Sequence[str],
                  extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Per-unit per-layer numbers of a traced run, from the tracer's
    totals plus ``extra`` ones the workload measured itself; empty for an
    untraced run.  Each unit is a dict with its ``wall``.

    ``unattributed_s`` is the traced wall per unit minus the per-unit
    seconds of the ``top_level`` spans, which do not overlap.
    """
    if tracer is None:
        return {}
    seconds, calls, counts, nested = tracer.totals()
    per = len(traced)
    out: Dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        if unit == "s" and name in seconds:
            out[name] = seconds[name] / per
    out["collect.self_s"] = (
        seconds.get("collect.s", 0.0)
        - nested.get(("collect.s", "engine.submit_s"), 0.0)
    ) / per
    out["collect.rows"] = counts.get("collect.rows", 0) / per
    out["engine.requests"] = counts.get("engine.requests", 0) / per
    out["engine.failures"] = counts.get("engine.failures", 0) / per
    out["engine.retries"] = counts.get("engine.retries", 0) / per
    requests = counts.get("engine.requests", 0)
    out["engine.cache_hit_ratio"] = (
        counts.get("engine.cache_hits", 0) / requests if requests else 0.0
    )
    out["fit.components"] = calls.get("fit.gbt_s", 0) / per
    out["fit.trees"] = calls.get("fit.tree_s", 0) / per
    out["fit.kernel_calls"] = calls.get("fit.kernel_s", 0) / per
    out["search.generations"] = calls.get("ga.step_s", 0) / per
    out["search.predict_rows"] = counts.get("search.predict_rows", 0) / per
    rows = counts.get("ga.memo_rows", 0)
    out["ga.memo_hit_ratio"] = counts.get("ga.memo_hits", 0) / rows if rows else 0.0
    api_calls = sum(calls.get(m, 0) for m in ("api.submit_s", "api.poll_s"))
    out["api.requests"] = api_calls / per
    submits = calls.get("api.submit_s", 0)
    out["api.dedup_hit_ratio"] = (
        counts.get("api.dedup_hits", 0) / submits if submits else 0.0
    )
    out.update(extra or {})
    traced_wall = sum(u["wall"] for u in traced) / per
    out["trace.wall_s"] = traced_wall
    out["unattributed_s"] = traced_wall - sum(out.get(m, 0.0) for m in top_level)
    out["trace_overhead"] = traced_wall / (
        sum(u["wall"] for u in untraced) / len(untraced)
    )
    return out


def full_per_layer(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 where the workload did not reach it."""
    return {name: float(values.get(name, 0.0)) for name, _, _ in PER_LAYER}


# -- provenance ---------------------------------------------------------------
def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=10,
    )
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int, point: Dict[str, object]) -> Dict[str, object]:
    """Where and on what a result was measured."""
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "operating_point": point,
    }


# -- scratch space ------------------------------------------------------------
def scratch_dir() -> Path:
    """This process's scratch directory inside the checkout."""
    return ROOT / ".perfbench-work" / str(os.getpid())


@contextmanager
def workdir():
    """:func:`scratch_dir`, made for the run and removed afterwards."""
    path = scratch_dir()
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass


def dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, default=str)


# -- expected outputs -----------------------------------------------------------
#: Run seeds map onto this many input seeds, each with a stored fingerprint.
SEED_POOL = 16
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def expected_outputs(workload: str) -> Dict[str, object]:
    """The stored outputs of ``workload`` (report fingerprints or column
    digests), keyed by input seed."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})
