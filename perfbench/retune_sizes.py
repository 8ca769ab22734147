"""retune-sizes: the paper's periodic job, retuned as its input grows.

Set-up fits one paper-point KMeans model (2000 runs, 3600 trees, input
seed 0), as ``examples/periodic_job_tuning.py`` does once per job.  A
unit of work then retunes KMeans at 160/200/240/280 M points, 100
generations each with no early stop, and validates every pick against
the default configuration.  The GA and ``HierarchicalModel.predict`` do
nearly all of the timed work; nothing is collected or fitted.

The run seed picks the search's random stream: the retuning tuner has
input seed ``seed % SEED_POOL`` and is restored from the set-up's
training set and model, the way the job service rehydrates a tuner.
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
    peak_rss_mb,
    prediction_gap,
    run_units,
    span,
    traced_layers,
)

NAME = "retune-sizes"
POINT = {
    "program": "KM",
    "sizes_m_points": [160.0, 200.0, 240.0, 280.0],
    "model_seed": 0,
    "n_train": 2000,
    "n_trees": 3600,
    "learning_rate": 0.05,
    "generations": 100,
    "patience": None,
    "backend": "inprocess",
}
TOP_LEVEL = ("search.s", "validate.s")


def _tuner(seed: int):
    from repro import DacTuner, get_workload
    from repro.engine import InProcessBackend

    return DacTuner(
        get_workload(POINT["program"]),
        n_train=POINT["n_train"],
        n_trees=POINT["n_trees"],
        learning_rate=POINT["learning_rate"],
        seed=seed,
        engine=InProcessBackend(),
    )


def fit_model():
    """The set-up: collect and fit the job's model once."""
    tuner = _tuner(POINT["model_seed"])
    training = tuner.collect()
    model = tuner.fit()
    return training, model, tuner.collector.simulated_hours(training)


def retune(model_state, input_seed: int, tracer=None) -> dict:
    """Retune at every size and validate each pick."""
    from repro.store.runstore import report_fingerprint

    training, model, hours = model_state
    start = time.perf_counter()
    tuner = _tuner(input_seed).restore(training, model, collect_hours=hours)
    sizes = []
    for size in POINT["sizes_m_points"]:
        report = tuner.tune(size, generations=POINT["generations"],
                            patience=POINT["patience"])
        job = tuner.workload.job(size)
        with span(tracer, "validate.s"):
            tuned, default = measure_pick(tuner.engine, job, report.configuration)
        sizes.append({
            "size": size,
            "speedup": default / tuned,
            "gap": prediction_gap(tuned, report.predicted_seconds),
            "fingerprint": report_fingerprint(report),
        })
    wall = time.perf_counter() - start
    stats = tuner.engine.stats
    return {
        "input_seed": input_seed,
        "wall": wall,
        "runs": stats.runs,
        "failures": stats.failures,
        "holdout_error": float(model.holdout_error_),
        "sizes": sizes,
    }


def run(ctx: Context) -> Outcome:
    fitted = []

    def boot(_):
        start = time.perf_counter()
        fitted[:] = [fit_model()]
        return time.perf_counter() - start

    setup_s, import_s, model_s = measure_setup(boot)
    input_seed = ctx.seed % SEED_POOL
    expected = expected_outputs(NAME).get(str(input_seed), [])

    def unit(index, tracer):
        return retune(fitted[0], input_seed, tracer)

    untraced, traced, tracer = run_units(ctx.seconds, unit, ctx.trace)
    units = untraced + traced
    checks = [
        ("fingerprints", [s["fingerprint"] for s in u["sizes"]] == expected,
         ",".join(s["fingerprint"][:12] for s in u["sizes"]))
        for u in units
    ]
    per_layer = {"setup.import_s": import_s, "setup.model_s": model_s}
    per_layer.update(traced_layers(tracer, untraced, traced, TOP_LEVEL))
    first = untraced[0]
    per_layer.update({
        "tuned_speedup": geomean([s["speedup"] for s in first["sizes"]]),
        "prediction_gap": geomean([s["gap"] for s in first["sizes"]]),
        "holdout_error": first["holdout_error"],
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
