"""Model-fit throughput: histogram kernel vs the per-feature oracle.

Every collect→refit cycle re-fits hundreds of boosted trees per HM
component.  The per-feature split search kept as a test oracle
(``tests/oracles/tree.py``) loops over all 41 features in Python per
node; the histogram kernel (:mod:`repro.models.histkernel`) builds every
feature's count/sum histograms in one flattened ``np.bincount`` and
scores both children of a committed split per batch — while growing the
byte-identical tree.  This benchmark times both at the paper operating
point (600 trees, 41 features, HM per-order components) by patching the
oracle onto :meth:`RegressionTree.fit_binned`, asserts the regression
floor, verifies that the kernel-fit and oracle-fit tuning pipelines
produce ``report_fingerprint``-identical reports, and writes the numbers
to ``BENCH_fit.json``.

The floor is deliberately below the locally-measured speedup (6-8x on
the raw fit): CI runners are noisy, and the gate exists to catch an
accidental return to per-feature Python iteration, not 20% wobble.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np

from repro.models.boosting import GradientBoostedTrees
from repro.models.tree import BinnedDataset, RegressionTree
from repro.store.runstore import report_fingerprint
from tests.oracles import tree as oracle

#: The paper operating point: nt >= 600 trees over the 41 encoded
#: configuration parameters (+1 datasize column in the full pipeline).
N_TREES = 600
N_FEATURES = 41
N_ROWS = 600

#: CI regression gate for the kernel over the oracle
#: (local speedups are far higher; see module doc).
SPEEDUP_FLOOR = 3.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_fit.json"


def _fit_through(path: str):
    """Context in which every tree fits through ``path``."""
    if path == "oracle":
        return mock.patch.object(RegressionTree, "fit_binned", oracle.fit_binned)
    return nullcontext()


def _training_data():
    rng = np.random.default_rng(0)
    X = rng.random((N_ROWS, N_FEATURES))
    y = rng.normal(size=N_ROWS)
    return X, y


def _fit_gbt(X, y, path):
    with _fit_through(path):
        start = time.perf_counter()
        model = GradientBoostedTrees(
            n_trees=N_TREES, patience=N_TREES, random_state=0
        ).fit(X, y)
        seconds = time.perf_counter() - start
    assert model.n_trees_fitted == N_TREES
    return model, seconds


def _run_tuner(path):
    """Full collect→fit(HM)→tune pipeline with trees fitted through ``path``."""
    from repro.core.tuner import DacTuner
    from repro.workloads import get_workload

    with _fit_through(path):
        tuner = DacTuner(
            get_workload("TS"), n_train=240, n_trees=N_TREES, seed=7
        )
        tuner.collect()
        fit_start = time.perf_counter()
        tuner.fit()
        fit_seconds = time.perf_counter() - fit_start
        tune_start = time.perf_counter()
        report = tuner.tune(10.0, generations=20, population_size=40)
        tune_seconds = time.perf_counter() - tune_start
    return report, fit_seconds, tune_seconds


def test_fit_speedup_and_fingerprint_parity():
    X, y = _training_data()
    # Warm the shared-binner cache so neither timed path pays (or
    # skips) quantile-edge construction unfairly.
    BinnedDataset.shared(X[np.random.default_rng(0).permutation(N_ROWS)[120:]])

    results = {
        "n_trees": N_TREES,
        "n_features": N_FEATURES,
        "n_rows": N_ROWS,
        "paths": {},
    }

    models = {}
    for path in ("oracle", "kernel"):
        model, seconds = _fit_gbt(X, y, path)
        models[path] = model
        results["paths"][path] = {
            "fit_seconds": round(seconds, 3),
            "trees_per_s": round(N_TREES / seconds, 1),
            "row_fits_per_s": round(N_ROWS * N_TREES / seconds, 1),
        }

    speedup = (
        results["paths"]["oracle"]["fit_seconds"]
        / results["paths"]["kernel"]["fit_seconds"]
    )
    results["speedup_kernel_vs_oracle"] = round(speedup, 2)
    results["speedup_floor"] = SPEEDUP_FLOOR

    # Same trees, bit for bit.
    probe = np.random.default_rng(1).random((256, N_FEATURES))
    assert (
        models["kernel"].predict(probe).tobytes()
        == models["oracle"].predict(probe).tobytes()
    ), "kernel fit diverged from the oracle model"

    # End-to-end: the tuning report must be fingerprint-identical.
    tune = {}
    for path in ("oracle", "kernel"):
        report, fit_seconds, tune_seconds = _run_tuner(path)
        tune[path] = {
            "model_fit_wall_s": round(fit_seconds, 3),
            "search_wall_s": round(tune_seconds, 3),
            "fingerprint": report_fingerprint(report),
        }
    results["tune"] = tune
    assert tune["oracle"]["fingerprint"] == tune["kernel"]["fingerprint"], (
        "kernel-fit tuning run is not fingerprint-identical to the "
        "oracle-fit run — the histogram kernel changed a split"
    )

    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    rows = "\n".join(
        f"  {path:>9}  fit {entry['fit_seconds']:>7.3f}s"
        f"  {entry['trees_per_s']:>8.1f} trees/s"
        f"  {entry['row_fits_per_s']:>12.1f} row-fits/s"
        for path, entry in results["paths"].items()
    )
    print(
        f"\nmodel fit, {N_TREES} trees x {N_FEATURES} features x "
        f"{N_ROWS} rows (floor {SPEEDUP_FLOOR}x):\n{rows}\n"
        f"  kernel speedup {speedup:.2f}x; tune fingerprints equal "
        f"({tune['kernel']['fingerprint'][:16]}…)\n"
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"histogram kernel only {speedup:.1f}x over the oracle fit "
        f"(floor {SPEEDUP_FLOOR}x) — regression on the vectorized fit path"
    )


def test_kernel_equals_oracle_at_bench_scale():
    """Node tables must agree bitwise at bench scale, or the bench is moot."""
    X, y = _training_data()
    with _fit_through("oracle"):
        ref = GradientBoostedTrees(n_trees=40, patience=40, random_state=3).fit(X, y)
    knl = GradientBoostedTrees(n_trees=40, patience=40, random_state=3).fit(X, y)
    for t_ref, t_knl in zip(ref._trees, knl._trees):
        assert [
            (n.feature, n.bin_threshold, n.left, n.right) for n in t_ref._nodes
        ] == [
            (n.feature, n.bin_threshold, n.left, n.right) for n in t_knl._nodes
        ]
        assert np.array(
            [n.value for n in t_ref._nodes]
        ).tobytes() == np.array([n.value for n in t_knl._nodes]).tobytes()
