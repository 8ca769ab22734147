"""The `repro top` dashboard and the Prometheus/JSON exporters."""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main
from repro.service import DONE, JobService, TuneRequest
from repro.store import RunStore
from repro.telemetry.dashboard import (
    FleetDashboard,
    render_snapshot,
    run_top,
    sparkline,
)
from repro.telemetry.export import (
    ExpositionError,
    parse_exposition,
    prometheus_from_fleet,
    prometheus_from_metrics,
    write_json_snapshot,
    write_prometheus,
)
from repro.telemetry.metrics import MetricsRegistry

FAST = dict(n_train=40, n_trees=15, generations=3, patience=None, seed=2)


def _request(**overrides) -> TuneRequest:
    return TuneRequest(**{"program": "TS", "size": 10.0, **FAST, **overrides})


@pytest.fixture(scope="module")
def finished_store(tmp_path_factory):
    """One store with a completed tune job (module-scoped: jobs are slow)."""
    root = tmp_path_factory.mktemp("fleet") / "store"
    service = JobService(root, use_cache=False, worker_id="w1")
    service.submit(_request())
    finished = service.work(poll_interval=0.01, max_jobs=1, idle_polls=2)
    assert finished[0].state == DONE
    return root


class TestSparkline:
    def test_empty_is_blank(self):
        assert sparkline([], width=4) == "    "

    def test_monotone_series_ramps(self):
        line = sparkline([1.0, 2.0, 3.0, 4.0], width=4)
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_series_renders_mid_ramp(self):
        assert set(sparkline([5.0, 5.0, 5.0], width=3)) == {"▅"}

    def test_long_series_resampled_to_width(self):
        assert len(sparkline([float(i) for i in range(100)], width=8)) == 8


class TestFleetDashboard:
    def test_snapshot_consistent_with_store_records(self, finished_store):
        store = RunStore(finished_store)
        dashboard = FleetDashboard(store)
        snap = dashboard.snapshot()
        records = store.list_jobs()
        assert len(snap["jobs"]) == len(records)
        by_id = {job["job_id"]: job for job in snap["jobs"]}
        for record in records:
            row = by_id[record["job_id"]]
            assert row["state"] == record["state"]
            assert row["phase"] == record["phase"]
        (job,) = snap["jobs"]
        # GA panel reconstructed from the job's own event log.
        assert job["ga"]["generation"] == FAST["generations"]
        # generation 0 (initial population) + one event per generation.
        assert len(job["ga"]["history"]) == FAST["generations"] + 1
        assert job["ga"]["best"] == job["ga"]["history"][-1]
        assert snap["engine"]["requests"] > 0
        # Fit row: the job's model.fit events, with no fit-path field.
        assert snap["engine"]["fits"] > 0 and snap["engine"]["fit_trees"] > 0
        assert "fit_path" not in snap["engine"]
        assert snap["events"]["records"] > 0

    def test_refresh_is_incremental(self, finished_store):
        dashboard = FleetDashboard(RunStore(finished_store))
        first = dashboard.refresh()
        assert first > 0
        assert dashboard.refresh() == 0  # nothing new appended

    def test_render_has_all_panels(self, finished_store):
        dashboard = FleetDashboard(RunStore(finished_store))
        frame = render_snapshot(dashboard.snapshot(), color=False)
        for heading in ("JOBS", "WORKERS", "ENGINE"):
            assert heading in frame
        assert "100%" in frame  # the finished job's progress bar
        (fit_row,) = [line for line in frame.splitlines() if "model fits" in line]
        assert "path" not in fit_row

    def test_run_top_once_json_writes_snapshot(self, finished_store, capsys):
        import io

        buffer = io.StringIO()
        assert run_top(
            RunStore(finished_store), once=True, as_json=True, out=buffer
        ) == 0
        snap = json.loads(buffer.getvalue())
        assert snap["summary"]["jobs_done"] == 1

    def test_empty_store_renders(self, tmp_path):
        store = RunStore(tmp_path / "empty")
        frame = render_snapshot(FleetDashboard(store).snapshot(), color=False)
        assert "(no jobs)" in frame and "(no heartbeats)" in frame


class TestTopCli:
    def test_top_once_json(self, finished_store, capsys):
        assert main(["top", "--store", str(finished_store), "--once", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["summary"]["jobs_total"] == 1
        assert snap["jobs"][0]["state"] == "done"
        assert snap["workers"][0]["worker"] == "w1"

    def test_top_once_frame_and_exports(self, finished_store, tmp_path, capsys):
        prom = tmp_path / "fleet.prom"
        snap_path = tmp_path / "fleet.json"
        assert main([
            "top", "--store", str(finished_store), "--once", "--no-color",
            "--prometheus", str(prom), "--snapshot", str(snap_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "JOBS" in out and "ENGINE" in out
        parse_exposition(prom.read_text())  # must satisfy the grammar
        assert json.loads(snap_path.read_text())["summary"]["jobs_done"] == 1


class TestPrometheusExport:
    def test_fleet_export_parses_and_covers_panels(self, finished_store):
        snap = FleetDashboard(RunStore(finished_store)).snapshot()
        text = prometheus_from_fleet(snap)
        families = parse_exposition(text)
        for family in (
            "repro_fleet_jobs_done",
            "repro_fleet_job_progress",
            "repro_fleet_worker_heartbeat_age_seconds",
            "repro_fleet_engine_cache_hit_rate",
        ):
            assert family in families, f"missing {family}"
        (sample,) = families["repro_fleet_jobs_done"]["samples"]
        assert sample[2] == 1.0
        progress = families["repro_fleet_job_progress"]["samples"][0]
        assert progress[1]["program"] == "TS"
        assert progress[2] == 1.0

    def test_metrics_export_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("runs").labels(backend="cached").inc(5)
        registry.gauge("queue.depth").set(3)
        registry.histogram("wait", buckets=(0.1, 1.0)).observe(0.5)
        text = prometheus_from_metrics(registry.snapshot())
        families = parse_exposition(text)
        assert families["repro_runs_total"]["type"] == "counter"
        (sample,) = families["repro_runs_total"]["samples"]
        assert sample[1] == {"backend": "cached"} and sample[2] == 5.0
        assert families["repro_queue_depth"]["type"] == "gauge"
        hist = families["repro_wait"]
        assert hist["type"] == "histogram"
        names = {s[0] for s in hist["samples"]}
        assert {"repro_wait_bucket", "repro_wait_sum", "repro_wait_count"} <= names
        le_values = [
            s[1]["le"] for s in hist["samples"] if s[0] == "repro_wait_bucket"
        ]
        assert "+Inf" in le_values

    def test_label_values_escaped(self):
        text = prometheus_from_fleet(
            {"jobs": [{"job_id": 'tricky"job\n', "program": "TS",
                       "progress": {"phase": "collect", "fraction": 0.5},
                       "state": "running"}]}
        )
        families = parse_exposition(text)
        sample = families["repro_fleet_job_progress"]["samples"][0]
        assert sample[1]["job"] == 'tricky\\"job\\n'

    def test_parser_rejects_violations(self):
        with pytest.raises(ExpositionError):
            parse_exposition("9bad_name 1\n")
        with pytest.raises(ExpositionError):
            parse_exposition('ok{label=unquoted} 1\n')
        with pytest.raises(ExpositionError):
            parse_exposition("ok notanumber\n")
        with pytest.raises(ExpositionError):
            parse_exposition("# TYPE x wrongtype\nx 1\n")
        with pytest.raises(ExpositionError):
            # histogram without _sum/_count
            parse_exposition(
                "# TYPE h histogram\n" 'h_bucket{le="+Inf"} 1\n'
            )

    def test_write_prometheus_and_json_atomic(self, finished_store, tmp_path):
        snap = FleetDashboard(RunStore(finished_store)).snapshot()
        registry = MetricsRegistry()
        registry.counter("c").inc()
        prom = write_prometheus(
            tmp_path / "out" / "fleet.prom",
            fleet_snapshot=snap,
            metrics=registry.snapshot(),
        )
        parse_exposition(prom.read_text())
        # No leftover temp files from the atomic replace.
        assert [p.name for p in prom.parent.iterdir()] == ["fleet.prom"]
        jpath = write_json_snapshot(tmp_path / "snap.json", snap)
        assert json.loads(jpath.read_text())["summary"]["jobs_total"] == 1
