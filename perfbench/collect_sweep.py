"""collect-sweep: cold and warm training-set collection for six programs.

A unit of work collects 1000 runs for each of PR, KM, BA, NW, WC and TS
on ``ProcessPoolBackend(jobs=2)`` behind a ``CachedBackend`` with a
fresh disk directory (the cold pass), drops the cache's memory layer,
and collects the same requests again (the warm pass, answered from
disk).  Simulation, sampling and encoding, pool IPC and the cache's
write and read paths do the work; no model is fitted.

Both passes must return training sets byte-identical to an in-process
collection of the same input seed, ``seed % SEED_POOL``, whose column
digests ``make_expected.py`` stores; the warm pass must be answered
entirely from cache.
"""

from __future__ import annotations

import hashlib
import shutil
import time

from common import (
    SEED_POOL,
    Context,
    Outcome,
    child_pids,
    expected_outputs,
    finish,
    geomean,
    measure_setup,
    median,
    peak_rss_mb,
    run_units,
    traced_layers,
)

NAME = "collect-sweep"
POINT = {
    "programs": ["PR", "KM", "BA", "NW", "WC", "TS"],
    "runs_per_program": 1000,
    "backend": "processpool",
    "jobs": 2,
    "cache": "disk",
}
TOP_LEVEL = ("collect.s",)


def collect_all(seed: int, engine=None) -> list:
    from repro import get_workload
    from repro.core.collecting import Collector

    return [
        Collector(get_workload(p), seed=seed, engine=engine).collect(
            POINT["runs_per_program"]
        )
        for p in POINT["programs"]
    ]


def columns_digest(training) -> str:
    """SHA-256 over a training set's columns: equal digests mean
    byte-identical ``TrainingSet.to_columns()``."""
    digest = hashlib.sha256()
    for key, column in sorted(training.to_columns().items()):
        digest.update(f"{key}|{column.dtype.str}|{column.shape}|".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def _best_found_speedup(collected) -> float:
    """Geometric mean over (program, size) of default time / fastest
    collected time: how good the best sampled configuration is."""
    from repro import default_configuration, get_workload
    from repro.engine import ExecRequest, InProcessBackend, require_success

    engine = InProcessBackend()
    ratios = []
    for program, training in zip(POINT["programs"], collected):
        workload = get_workload(program)
        seconds = training.times()
        sizes = training.to_columns()["datasize"]
        for size in sorted(set(sizes.tolist())):
            (default,) = require_success(engine.submit([
                ExecRequest(job=workload.job(size), config=default_configuration())
            ]))
            ratios.append(default.seconds / float(seconds[sizes == size].min()))
    return geomean(ratios)


def run(ctx: Context) -> Outcome:
    from repro.engine import CachedBackend, ProcessPoolBackend

    pools = []

    def boot(_):
        for pool in pools:
            pool.close()
        start = time.perf_counter()
        pool = ProcessPoolBackend(jobs=POINT["jobs"])
        # One trivial task per worker makes the executor start them all.
        pool.map_tasks(abs, list(range(POINT["jobs"])))
        pools[:] = [pool]
        return time.perf_counter() - start

    try:
        setup_s, import_s, spawn_s = measure_setup(boot, pin=False)
        pool = pools[0]
        input_seed = ctx.seed % SEED_POOL
        expected = expected_outputs(NAME).get(str(input_seed))

        def unit(index, tracer):
            directory = ctx.workdir / f"cache-{index}-{int(tracer is not None)}"
            cache = CachedBackend(pool, directory=directory)
            start = time.perf_counter()
            cold = collect_all(input_seed, cache)
            cold_done = time.perf_counter()
            cold_stats = cache.stats
            cache.clear_memory()
            warm = collect_all(input_seed, cache)
            end = time.perf_counter()
            stats = cache.stats
            shutil.rmtree(directory, ignore_errors=True)
            warm_runs = stats.runs - cold_stats.runs
            return {
                "wall": end - start,
                "cold_s": cold_done - start,
                "warm_s": end - cold_done,
                "cold_runs": cold_stats.runs,
                "warm_runs": warm_runs,
                "warm_hits": stats.cache_hits - cold_stats.cache_hits,
                "failures": stats.failures,
                "cold_identical": [columns_digest(t) for t in cold] == expected,
                "warm_identical": [columns_digest(t) for t in warm] == expected,
                "collected": cold,
            }

        untraced, traced, tracer = run_units(ctx.seconds, unit, ctx.trace,
                                             pin=False)
        pool_rss = sum(peak_rss_mb(pid) for pid in child_pids())
    finally:
        for pool in pools:
            pool.close()

    units = untraced + traced
    checks = []
    for i, u in enumerate(units):
        checks.append((f"unit {i} cold pass equals in-process",
                       u["cold_identical"], ""))
        checks.append((f"unit {i} warm pass equals in-process",
                       u["warm_identical"], ""))
        checks.append((f"unit {i} warm pass all cache hits",
                       u["warm_hits"] == u["warm_runs"],
                       f"{u['warm_hits']}/{u['warm_runs']}"))
    per_layer = {"setup.import_s": import_s, "setup.pool_spawn_s": spawn_s}
    per_layer.update(traced_layers(tracer, untraced, traced, TOP_LEVEL))
    per_layer.update({
        "collect_runs_per_s": median([u["cold_runs"] / u["cold_s"] for u in untraced]),
        "cached_runs_per_s": median([u["warm_runs"] / u["warm_s"] for u in untraced]),
        "tuned_speedup": _best_found_speedup(untraced[0]["collected"]),
    })
    for u in units:
        del u["collected"]
    return finish(
        setup_s=setup_s,
        units=untraced,
        rss_mb=peak_rss_mb() + pool_rss,
        operations=sum(u["cold_runs"] + u["warm_runs"] for u in units),
        failures=sum(u["failures"] for u in units),
        checks=checks,
        per_layer=per_layer,
        point=POINT,
        details={"units": untraced, "traced_units": traced},
    )
