"""tune-paper: one cold DAC tune at the paper's operating point.

Collect 2000 TS runs around 20 GB, fit the Hierarchical Model (3600
trees, learning rate 0.05), search 50 generations, then validate the
pick against the default configuration, all on ``InProcessBackend``.
This is the unit of work every ``repro tune`` user waits for; fit does
most of it.

Collection and fit always use input seed 0, as ``repro tune`` does by
default: the fit's work depends on the data (boosting stops early), and
across input seeds it varies by a quarter, which would swamp the
regressions this workload exists to catch.  The run seed drives the
search: unit ``i`` of a run with seed ``s`` searches with a tuner of
seed ``(s + i) % SEED_POOL`` restored from the fitted model, and its
report fingerprint must equal the stored one for that seed.
"""

from __future__ import annotations

import time

from common import (
    SEED_POOL,
    Context,
    Outcome,
    expected_outputs,
    finish,
    geomean,
    measure_pick,
    measure_setup,
    median,
    peak_rss_mb,
    prediction_gap,
    run_units,
    span,
    traced_layers,
)

NAME = "tune-paper"
POINT = {
    "program": "TS",
    "size_gb": 20.0,
    "n_train": 2000,
    "n_trees": 3600,
    "learning_rate": 0.05,
    "generations": 50,
    "input_seed": 0,
    "backend": "inprocess",
}
TOP_LEVEL = ("collect.s", "fit.s", "search.s", "validate.s")


def tune_once(search_seed: int, tracer=None) -> dict:
    """One cold tune plus validation; returns its timings and results."""
    from repro import DacTuner, get_workload
    from repro.engine import InProcessBackend
    from repro.models.tree import clear_shared_binners
    from repro.store.runstore import report_fingerprint

    # A repro tune process starts with no binned matrices; neither may a unit.
    clear_shared_binners()
    workload = get_workload(POINT["program"])
    start = time.perf_counter()
    engine = InProcessBackend()
    params = {
        "n_train": POINT["n_train"],
        "n_trees": POINT["n_trees"],
        "learning_rate": POINT["learning_rate"],
        "engine": engine,
    }
    tuner = DacTuner(workload, seed=POINT["input_seed"], **params)
    training = tuner.collect()
    collected = time.perf_counter()
    model = tuner.fit()
    fitted = time.perf_counter()
    searcher = DacTuner(workload, seed=search_seed, **params).restore(
        training, model, collect_hours=tuner.collector.simulated_hours(training)
    )
    report = searcher.tune(POINT["size_gb"], generations=POINT["generations"])
    searched = time.perf_counter()
    job = workload.job(POINT["size_gb"])
    with span(tracer, "validate.s"):
        tuned, default = measure_pick(engine, job, report.configuration)
    end = time.perf_counter()
    stats = engine.stats
    return {
        "search_seed": search_seed,
        "wall": end - start,
        "collect_s": collected - start,
        "fit_s": fitted - collected,
        "search_s": searched - fitted,
        "validate_s": end - searched,
        "runs": stats.runs,
        "failures": stats.failures,
        "collected": len(training),
        "speedup": default / tuned,
        "gap": prediction_gap(tuned, report.predicted_seconds),
        "holdout_error": float(report.model_holdout_error),
        "fingerprint": report_fingerprint(report),
    }


def run(ctx: Context) -> Outcome:
    setup_s, import_s, _ = measure_setup()
    expected = expected_outputs(NAME)

    def unit(index, tracer):
        return tune_once((ctx.seed + index) % SEED_POOL, tracer)

    untraced, traced, tracer = run_units(ctx.seconds, unit, ctx.trace)
    units = untraced + traced
    checks = [
        (f"fingerprint seed {u['search_seed']}",
         u["fingerprint"] == expected.get(str(u["search_seed"])),
         u["fingerprint"])
        for u in units
    ]
    per_layer = {"setup.import_s": import_s}
    per_layer.update(traced_layers(tracer, untraced, traced, TOP_LEVEL))
    per_layer.update({
        "collect_runs_per_s": median(
            [u["collected"] / u["collect_s"] for u in untraced]
        ),
        "tuned_speedup": geomean([u["speedup"] for u in untraced]),
        "prediction_gap": geomean([u["gap"] for u in untraced]),
        "holdout_error": median([u["holdout_error"] for u in untraced]),
    })
    return finish(
        setup_s=setup_s,
        units=untraced,
        rss_mb=peak_rss_mb(),
        operations=sum(u["runs"] for u in units),
        failures=sum(u["failures"] for u in units),
        checks=checks,
        per_layer=per_layer,
        point=POINT,
        details={"units": untraced, "traced_units": traced},
    )
