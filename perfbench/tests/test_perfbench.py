"""Self-tests of the benchmark (not part of the program's own suite).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import common  # noqa: E402
import run  # noqa: E402
import shims  # noqa: E402
import tune_paper  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- names --------------------------------------------------------------------
def test_benchmark_json_matches_the_catalogue():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        assert run._module(workload).NAME == workload
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == list(common.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == list(common.PER_LAYER)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])


@pytest.mark.parametrize("trace", [False, True])
def test_summary_prints_exactly_the_benchmark_json_metrics(trace):
    outcome = common.Outcome(
        end_to_end={name: 1.0 for name, *_ in common.END_TO_END},
        per_layer={"fit.s": 2.0},
        attempted=3, failed=0, checks=[("ok", True, "")], point={},
    )
    line = json.loads(common.dumps(run.summary(outcome, trace)))
    doc = _benchmark_json()
    listed = doc["per_layer"] if trace else doc["end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


# -- shims --------------------------------------------------------------------
def _originals():
    import importlib

    return {
        (s.module, s.owner, s.attr): getattr(
            importlib.import_module(s.module), s.owner
        ).__dict__[s.attr]
        for s in shims.LAYER_SHIMS
    }


def test_tracer_restores_every_original_descriptor():
    before = _originals()
    with shims.Tracer():
        assert len(shims.installed_shims()) == len(shims.LAYER_SHIMS)
    assert shims.installed_shims() == []
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_untraced_units_refuse_to_run_under_shims():
    with shims.Tracer():
        with pytest.raises(RuntimeError, match="shims still installed"):
            common.run_units(0.0, lambda i, tracer: {"wall": 1.0}, trace=False)


@pytest.fixture(scope="module")
def small_traced_tune(tmp_path_factory):
    """A traced tune-paper run at a small operating point."""
    patch = pytest.MonkeyPatch()
    patch.setattr(common, "SETUP_REPEATS", 1)
    patch.setitem(tune_paper.POINT, "n_train", 120)
    patch.setitem(tune_paper.POINT, "n_trees", 30)
    patch.setitem(tune_paper.POINT, "generations", 5)
    try:
        ctx = common.Context(seed=3, seconds=0.0, trace=True,
                             workdir=tmp_path_factory.mktemp("work"))
        yield tune_paper.run(ctx)
    finally:
        patch.undo()


def test_shims_are_removed_after_a_traced_run(small_traced_tune):
    assert small_traced_tune.per_layer["fit.trees"] > 0
    assert shims.installed_shims() == []


def test_layer_times_and_unattributed_add_up_to_the_traced_wall(small_traced_tune):
    layers = small_traced_tune.per_layer
    total = sum(layers[m] for m in tune_paper.TOP_LEVEL) + layers["unattributed_s"]
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert 0.0 <= layers["unattributed_s"] < layers["trace.wall_s"]
    assert layers["trace_overhead"] > 0


# -- the command ----------------------------------------------------------------
def _checkout(tmp_path: Path, with_sources: bool) -> Path:
    """A copy of the benchmark's own files, with or without ``src``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


def _run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )


def test_without_program_sources_the_command_fails_without_a_result(tmp_path):
    checkout = _checkout(tmp_path, with_sources=False)
    out = _run(checkout, "--workload", "tune-paper", "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_a_corrupted_expected_fingerprint_makes_the_command_fail(tmp_path):
    checkout = _checkout(tmp_path, with_sources=True)
    expected = checkout / "perfbench" / "expected.json"
    table = json.loads(expected.read_text())
    table["tune-paper"]["5"] = "0" * 64
    expected.write_text(json.dumps(table))
    out = _run(checkout, "--workload", "tune-paper", "--seed", "5",
               "--seconds", "1", "--trace", "0")
    assert out.returncode == 1, out.stderr
    line = _last_json(out.stdout)
    assert line["correct"] is False and line["failed"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in _benchmark_json()["end_to_end"]}
    assert "check failed: fingerprint seed 5" in out.stderr
