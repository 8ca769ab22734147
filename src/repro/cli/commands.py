"""Implementations of the CLI commands.

All human-facing output flows through the structured logger of
:mod:`repro.telemetry.log` (message-only formatting on stdout), so the
``--verbose``/``--quiet`` flags control every line and library code
never prints directly.  The ``--telemetry DIR``/``--trace`` flags wrap
a command in a telemetry session writing the JSONL event log, a metrics
snapshot, and optionally a Chrome trace under ``DIR``.
"""

from __future__ import annotations

import argparse
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional

from repro import telemetry
from repro.common.units import fmt_bytes, fmt_duration
from repro.core.baselines import default_configuration
from repro.core.collecting import Collector
from repro.core.expert import ExpertTuner
from repro.core.tuner import DacTuner
from repro.engine import (
    ExecRequest,
    ExecutionBackend,
    FailedRun,
    InProcessBackend,
    ProcessPoolBackend,
    require_success,
)
from repro.io import (
    format_spark_submit,
    load_spark_conf,
    save_spark_conf,
    save_training_set,
)
from repro.sparksim.cluster import PAPER_CLUSTER, ClusterSpec
from repro.telemetry.log import get_logger
from repro.workloads import ALL_WORKLOADS, get_workload

log = get_logger("repro.cli")

#: Names accepted by ``--backend``.
BACKENDS = ("inprocess", "processpool")

#: Default output directory when ``--trace`` is given without ``--telemetry``.
DEFAULT_TELEMETRY_DIR = "telemetry"


def build_backend(
    args: argparse.Namespace, cluster: ClusterSpec = PAPER_CLUSTER
) -> ExecutionBackend:
    """Construct the substrate backend selected by ``--backend/--jobs``."""
    name = getattr(args, "backend", "inprocess")
    if name == "processpool":
        return ProcessPoolBackend(jobs=getattr(args, "jobs", None), cluster=cluster)
    return InProcessBackend(cluster)


@contextmanager
def telemetry_session(args: argparse.Namespace) -> Iterator[Optional[telemetry.Telemetry]]:
    """Run a command under ``--telemetry``/``--trace``, if requested.

    On exit the session's artifacts land in the output directory:
    ``events.jsonl`` (the JSONL event log), ``metrics.json`` (the final
    registry snapshot), and ``trace.json`` (Chrome/Perfetto) when
    ``--trace`` was given.
    """
    directory = getattr(args, "telemetry", None)
    want_trace = getattr(args, "trace", False)
    if directory is None and not want_trace:
        yield None
        return
    out = Path(directory if directory is not None else DEFAULT_TELEMETRY_DIR)
    session = telemetry.enable(directory=out)
    try:
        yield session
    finally:
        snapshot = telemetry.get_registry().snapshot()
        telemetry.disable()
        (out / "metrics.json").write_text(
            json.dumps(snapshot.as_dict(), indent=2, sort_keys=True)
        )
        written = [f"{out}/events.jsonl", f"{out}/metrics.json"]
        if want_trace:
            telemetry.write_chrome_trace(session.records, out / "trace.json")
            written.append(f"{out}/trace.json")
        log.info("telemetry: wrote %s", ", ".join(written))


#: Experiment registry: name -> (module, render callable).
def _experiment_registry() -> Dict[str, Callable]:
    from repro.experiments import (
        ablation_datasize,
        ablation_hm_order,
        ablation_search,
        fig02_sensitivity,
        fig03_baseline_errors,
        fig07_ntrain,
        fig08_hm_params,
        fig09_hm_accuracy,
        fig10_scatter,
        fig11_ga_convergence,
        fig12_speedup,
        fig13_kmeans_stages,
        fig14_terasort_stage2,
        interference_tuning,
        table3_overhead,
    )

    return {
        "fig2": lambda s: fig02_sensitivity.run(s).render(),
        "fig3": lambda s: fig03_baseline_errors.render(fig03_baseline_errors.run(s)),
        "fig7": lambda s: fig07_ntrain.run(s).render(),
        "fig8": lambda s: fig08_hm_params.run(s).render(),
        "fig9": lambda s: fig09_hm_accuracy.render(fig09_hm_accuracy.run(s)),
        "fig10": lambda s: fig10_scatter.run(s).render(),
        "fig11": lambda s: fig11_ga_convergence.run(s).render(),
        "fig12": lambda s: fig12_speedup.run(s).render(),
        "fig13": lambda s: fig13_kmeans_stages.run(s).render(),
        "fig14": lambda s: fig14_terasort_stage2.run(s).render(),
        "table3": lambda s: table3_overhead.run(s).render(),
        "ablation-datasize": lambda s: ablation_datasize.run(s).render(),
        "ablation-search": lambda s: ablation_search.run(s).render(),
        "ablation-hm-order": lambda s: ablation_hm_order.run(s).render(),
        "interference": lambda s: interference_tuning.run(s).render(),
    }


EXPERIMENTS = tuple(_experiment_registry())


def cmd_tune(args: argparse.Namespace) -> int:
    if getattr(args, "store", None):
        return _tune_via_service(args)
    with telemetry_session(args):
        workload = get_workload(args.program)
        log.info(
            "Tuning %s for size %s %s ...", workload.name, args.size, workload.unit
        )
        engine = build_backend(args)
        tuner = DacTuner(
            workload,
            n_train=args.train,
            n_trees=args.trees,
            learning_rate=args.learning_rate,
            seed=args.seed,
            engine=engine,
        )
        tuner.collect()
        tuner.fit()
        log.info(
            "  model holdout error: %.1f%%", tuner.model.holdout_error_ * 100
        )
        report = tuner.tune(args.size, generations=args.generations)
        log.info("  GA converged at generation %d", report.ga.converged_at)
        log.info("  predicted time: %s", fmt_duration(report.predicted_seconds))

        job = workload.job(args.size)
        tuned, default = (
            run.seconds
            for run in require_success(
                engine.submit(
                    [
                        ExecRequest(job=job, config=report.configuration),
                        ExecRequest(job=job, config=default_configuration()),
                    ]
                )
            )
        )
        log.info(
            "  measured: DAC %s vs default %s (%.1fx)",
            fmt_duration(tuned), fmt_duration(default), default / tuned,
        )
        log.info("  %s", engine.stats.summary())
        engine.close()

        if args.output:
            save_spark_conf(
                report.configuration,
                args.output,
                comment=f"{workload.name} @ {args.size} {workload.unit}, "
                f"predicted {report.predicted_seconds:.0f}s",
            )
            log.info("  wrote %s", args.output)
        if args.spark_submit:
            log.info("\n%s", format_spark_submit(report.configuration))
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    if getattr(args, "store", None):
        return _collect_via_service(args)
    with telemetry_session(args):
        workload = get_workload(args.program)
        engine = build_backend(args)
        collector = Collector(workload, seed=args.seed, engine=engine)
        log.info(
            "Collecting %d performance vectors for %s over %d input sizes ...",
            args.examples, workload.name, len(collector.sizes),
        )
        training = collector.collect(args.examples)
        save_training_set(training, args.output)
        hours = collector.simulated_hours(training)
        log.info(
            "  wrote %s (%d rows, %.1f simulated cluster-hours)",
            args.output, len(training), hours,
        )
        log.info("  %s", engine.stats.summary())
        engine.close()
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    with telemetry_session(args):
        workload = get_workload(args.program)
        if args.conf and args.expert:
            raise ValueError("--conf and --expert are mutually exclusive")
        if args.conf:
            config = load_spark_conf(args.conf)
            source = args.conf
        elif args.expert:
            config = ExpertTuner(PAPER_CLUSTER).tune()
            source = "expert rules"
        else:
            config = default_configuration()
            source = "Table-2 defaults"

        job = workload.job(args.size)
        with build_backend(args) as engine:
            outcome = engine.submit([ExecRequest(job=job, config=config)])[0]
        if isinstance(outcome, FailedRun):
            log.error(
                "error: execution failed after %d attempts: %s",
                outcome.attempts, outcome.error,
            )
            return 1
        result = outcome.run
        log.info(
            "%s @ %s %s (%s) under %s:",
            workload.name, args.size, workload.unit,
            fmt_bytes(job.datasize_bytes), source,
        )
        log.info(
            "  total: %s  (GC %s, spill %s)",
            fmt_duration(result.seconds),
            fmt_duration(result.gc_seconds),
            fmt_bytes(result.spill_bytes),
        )
        if args.stages:
            for stage in result.stages:
                log.info(
                    "  %-24s %10s x%-3d tasks=%-5d gc=%s",
                    stage.name,
                    fmt_duration(stage.seconds),
                    stage.iterations,
                    stage.num_tasks,
                    fmt_duration(stage.gc_seconds),
                )
        if getattr(args, "report", False):
            from repro.sparksim.report import render_run_report

            log.info("\n%s", render_run_report(result))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.common import (
        FAST,
        PAPER,
        configure_shared_engine,
        shared_engine,
    )

    with telemetry_session(args):
        scale = PAPER if args.scale == "paper" else FAST
        if getattr(args, "backend", "inprocess") != "inprocess":
            configure_shared_engine(build_backend(args))
        registry = _experiment_registry()
        with telemetry.span("experiment", experiment=args.name, scale=scale.name):
            rendered = registry[args.name](scale)
        log.info("%s", rendered)
        log.info("%s", shared_engine().stats.summary())
    return 0


def _resolve_trace_spec(name_or_path: str):
    """``--trace``: a built-in name, or a TraceSpec JSON file path."""
    from repro.sparksim.arrivals import load_trace_spec
    from repro.sparksim.scenario import BUILTIN_TRACES, builtin_trace

    if name_or_path in BUILTIN_TRACES:
        return builtin_trace(name_or_path)
    path = Path(name_or_path)
    if path.exists():
        return load_trace_spec(path)
    raise KeyError(
        f"unknown trace {name_or_path!r}: not a built-in "
        f"({', '.join(BUILTIN_TRACES)}) and no such file"
    )


def cmd_scenario(args: argparse.Namespace) -> int:
    """``repro scenario``: shared-cluster multi-job simulation."""
    from repro.sparksim import scenario as scen

    action = args.action

    if action == "list":
        for name in scen.BUILTIN_TRACES:
            spec = scen.builtin_trace(name)
            adversity = []
            if spec.straggler_probability > 0:
                adversity.append("stragglers")
            if spec.revocation_rate_per_min > 0:
                adversity.append("revocations")
            if spec.node_speed_factors:
                adversity.append("hetero-nodes")
            log.info(
                "%-8s %2d jobs, %s, %d slots, %.0f/min%s",
                name, spec.n_jobs, spec.policy,
                spec.executor_slots or PAPER_CLUSTER.total_cores,
                spec.arrival_rate_per_min,
                f" ({', '.join(adversity)})" if adversity else "",
            )
        return 0

    if action == "run":
        spec = _resolve_trace_spec(args.spec)
        with telemetry_session(args):
            with build_backend(args) as engine:
                report = scen.ScenarioRunner(engine=engine).run(
                    spec, seed=args.seed
                )
        log.info("%s", scen.render_scenario_report(report))
        log.info("fingerprint: %s", scen.scenario_fingerprint(report))
        if getattr(args, "out", None):
            Path(args.out).write_text(
                json.dumps(scen.report_to_dict(report), indent=2, sort_keys=True)
            )
            log.info("wrote %s", args.out)
        return 0

    doc = json.loads(Path(args.report).read_text())
    saved = scen.report_from_dict(doc)

    if action == "report":
        log.info("%s", scen.render_scenario_report(saved))
        log.info("fingerprint: %s", scen.scenario_fingerprint(saved))
        return 0

    if action == "replay":
        with build_backend(args) as engine:
            rerun = scen.ScenarioRunner(engine=engine).run(
                saved.spec, seed=saved.seed
            )
        # Digest the saved *content*, never the stored fingerprint field:
        # a tampered job row must not hide behind a stale-but-original
        # fingerprint string.
        content = scen.scenario_fingerprint(saved)
        stored = str(doc.get("fingerprint", content))
        actual = scen.scenario_fingerprint(rerun)
        if actual == content == stored:
            log.info("replay OK: %s", actual)
            return 0
        log.error(
            "replay MISMATCH:\n  saved content %s\n  saved claim   %s"
            "\n  replay        %s",
            content, stored, actual,
        )
        return 1

    raise ValueError(f"unknown scenario action {action!r}")


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.sparksim.events import stage_table_from_records

    if getattr(args, "follow", False):
        log.info("following %s (Ctrl-C to stop) ...", args.eventlog)
        try:
            for record in telemetry.follow_events(
                args.eventlog, idle_timeout=getattr(args, "idle_timeout", None)
            ):
                line = telemetry.format_record(record)
                if line is not None:
                    log.info("%s", line)
        except KeyboardInterrupt:
            pass
        return 0

    event_log = telemetry.read_event_log(args.eventlog)
    log.info("%s", telemetry.render_trace_report(event_log, limit=args.limit))
    stage_table = stage_table_from_records(event_log.records)
    if stage_table:
        log.info("\nstages:\n%s", stage_table)
    if args.chrome:
        path = telemetry.write_chrome_trace(event_log.records, args.chrome)
        log.info("\nwrote Chrome trace %s (open in chrome://tracing or Perfetto)", path)
    return 0


# ----------------------------------------------------------------------
# The job service front end (``repro jobs`` and ``--store`` on
# tune/collect): durable, resumable runs on a RunStore.
# ----------------------------------------------------------------------
def _build_service(args: argparse.Namespace):
    from repro.service import JobService

    return JobService(
        Path(args.store),
        engine_factory=lambda: build_backend(args),
        max_concurrent=getattr(args, "max_concurrent", 1) or 1,
        use_cache=not getattr(args, "no_cache", False),
    )


def _request_from_args(args: argparse.Namespace, kind: str):
    from repro.service import TuneRequest

    workload = get_workload(args.program)  # validates the name early
    return TuneRequest(
        program=workload.abbr,
        size=getattr(args, "size", 0.0) or 0.0,
        kind=kind,
        n_train=getattr(args, "train", None) or getattr(args, "examples", 600),
        n_trees=getattr(args, "trees", 250),
        learning_rate=getattr(args, "learning_rate", 0.1),
        generations=getattr(args, "generations", 100),
        seed=args.seed,
        warm_from=getattr(args, "warm_from", None),
        budget=getattr(args, "budget", None),
    )


def _report_job(record) -> None:
    """Log one finished/failed job's outcome."""
    if record.state == "done" and record.result:
        log.info("job %s: done", record.job_id)
        for key in sorted(record.result):
            log.info("  %s: %s", key, record.result[key])
    elif record.error:
        log.info("job %s: %s (%s)", record.job_id, record.state, record.error)
        log.info("  resume with: repro jobs resume %s", record.job_id)
    else:
        log.info("job %s: %s", record.job_id, record.state)
    if record.runs_by_session:
        sessions = ", ".join(
            f"session {s}: {n} runs" for s, n in sorted(record.runs_by_session.items())
        )
        log.info("  substrate executions: %s", sessions)


def _tune_via_service(args: argparse.Namespace) -> int:
    with telemetry_session(args):
        service = _build_service(args)
        record = service.submit(_request_from_args(args, "tune"))
        log.info("submitted job %s to %s", record.job_id, args.store)
        record = service.resume(record.job_id)
        _report_job(record)
        if record.state == "done" and args.output:
            report = service.store.get_report(record.artifact_key("report"))
            if report is not None:
                save_spark_conf(report.configuration, args.output)
                log.info("  wrote %s", args.output)
    return 0 if record.state == "done" else 1


def _collect_via_service(args: argparse.Namespace) -> int:
    with telemetry_session(args):
        service = _build_service(args)
        record = service.submit(_request_from_args(args, "collect"))
        log.info("submitted job %s to %s", record.job_id, args.store)
        record = service.resume(record.job_id)
        _report_job(record)
        if record.state == "done" and getattr(args, "output", None):
            training = service.store.get_training_set(
                record.artifact_key("training")
            )
            if training is not None:
                save_training_set(training, args.output)
                log.info("  wrote %s", args.output)
    return 0 if record.state == "done" else 1


#: Exit code for "the job already finished" — distinct from generic
#: usage errors (2) so scripts can branch on it, mirroring the API's 409.
EXIT_ALREADY_FINISHED = 3


def _remote_jobs(args: argparse.Namespace) -> int:
    """``repro jobs ... --url``: drive a remote ``repro serve`` endpoint.

    The submit/list/status/cancel/wait verbs work against the API with
    the same output shapes as local mode; run/resume stay local-only —
    execution belongs to the fleet behind the server, not this process.
    """
    from repro.service.api import ApiClient, ApiError

    client = ApiClient(args.url, tenant=getattr(args, "tenant", None))
    action = args.action
    try:
        if action == "submit":
            kind = "collect" if getattr(args, "collect_only", False) else "tune"
            doc = client.submit(
                _request_from_args(args, kind),
                priority=getattr(args, "priority", 0),
            )
            if doc.get("deduplicated"):
                log.info("%s  (deduplicated: identical job already exists)",
                         doc["job_id"])
            else:
                log.info("%s", doc["job_id"])
            return 0
        if action == "list":
            docs = client.jobs()
            if not docs:
                log.info("(no jobs at %s)", args.url)
                return 0
            from repro.service import JobRecord

            header = ("job", "kind", "program", "target", "state", "phase",
                      "detail")
            rows = [JobRecord.from_dict(d).summary_row() for d in docs]
            widths = [
                max(len(str(r[i])) for r in [header, *rows])
                for i in range(len(header))
            ]
            for row in [header, *rows]:
                log.info("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
            return 0
        if action == "status":
            doc = client.status(args.job_id)
            log.info("job %s (%s)", doc["job_id"],
                     doc.get("request", {}).get("program"))
            log.info("  state: %s   phase: %s", doc.get("state"),
                     doc.get("phase"))
            log.info("  progress: %s",
                     json.dumps(doc.get("progress_summary", {}), sort_keys=True))
            if doc.get("result"):
                for key in sorted(doc["result"]):
                    log.info("  %s: %s", key, doc["result"][key])
            return 0
        if action == "cancel":
            try:
                doc = client.cancel(args.job_id)
            except ApiError as exc:
                if exc.status == 409:
                    log.error("job %s already finished; result kept",
                              args.job_id)
                    return EXIT_ALREADY_FINISHED
                raise
            log.info("job %s: cancelled", doc["job_id"])
            return 0
        if action == "wait":
            try:
                doc = client.wait_result(
                    args.job_id, timeout=getattr(args, "timeout", 600.0)
                )
            except TimeoutError as exc:
                log.error("error: %s", exc)
                return 1
            log.info("job %s: done", doc["job_id"])
            for key in sorted(doc.get("result") or {}):
                log.info("  %s: %s", key, doc["result"][key])
            return 0
        log.error("error: jobs %s is local-only (needs --store, not --url)",
                  action)
        return 2
    except ApiError as exc:
        if exc.status == 429:
            log.error("error: %s (retry after %ss)",
                      exc.payload.get("error", "over quota"),
                      exc.retry_after if exc.retry_after is not None else "?")
        else:
            log.error("error: %s", exc)
        return 1
    except (ConnectionError, OSError, TimeoutError) as exc:
        log.error("error: cannot reach %s: %s", args.url, exc)
        return 1


def cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service import AdmissionError, JobFinished

    if getattr(args, "url", None):
        if getattr(args, "store", None):
            log.error("error: give --store or --url, not both")
            return 2
        return _remote_jobs(args)
    if not getattr(args, "store", None):
        log.error("error: give --store DIR (local) or --url URL (remote)")
        return 2

    service = _build_service(args)
    action = args.action

    if action == "submit":
        kind = "collect" if getattr(args, "collect_only", False) else "tune"
        try:
            record = service.submit(
                _request_from_args(args, kind),
                priority=getattr(args, "priority", 0),
            )
        except AdmissionError as exc:
            log.error("error: %s", exc)
            return 1
        log.info("%s", record.job_id)
        if getattr(args, "run", False):
            record = service.resume(record.job_id)
            _report_job(record)
            return 0 if record.state == "done" else 1
        return 0

    if action == "list":
        records = service.jobs()
        if not records:
            log.info("(no jobs in %s)", args.store)
            return 0
        header = ("job", "kind", "program", "target", "state", "phase", "detail")
        rows = [record.summary_row() for record in records]
        widths = [
            max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))
        ]
        for row in [header, *rows]:
            log.info("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        return 0

    if action == "status":
        record = service.get(args.job_id)
        log.info("job %s (%s)", record.job_id, record.request.program)
        log.info("  state: %s   phase: %s", record.state, record.phase)
        log.info("  progress: %s", json.dumps(record.progress, sort_keys=True))
        _report_job(record)
        events = service.store.event_log_path(record.job_id)
        if events.exists():
            log.info("  event log: %s (repro trace %s)", events, events)
        return 0

    if action == "run":
        finished = service.run_pending(max_jobs=getattr(args, "max_jobs", None))
        if not finished:
            log.info("(no queued jobs in %s)", args.store)
        for record in finished:
            _report_job(record)
        return 0 if all(r.state == "done" for r in finished) else 1

    if action == "resume":
        from repro.service import LeaseHeld

        if not getattr(args, "all", False) and args.job_id is None:
            log.error("error: give a job id or --all")
            return 2
        if getattr(args, "all", False):
            finished = service.resume_all()
            if not finished:
                log.info("(nothing resumable in %s)", args.store)
            for record in finished:
                _report_job(record)
            return 0 if all(r.state == "done" for r in finished) else 1
        try:
            record = service.resume(
                args.job_id, budget=getattr(args, "budget", None)
            )
        except LeaseHeld as exc:
            log.error("error: %s (another worker is running it)", exc)
            return 1
        _report_job(record)
        return 0 if record.state == "done" else 1

    if action == "cancel":
        try:
            record = service.cancel(args.job_id)
        except JobFinished:
            log.error("job %s already finished; result kept", args.job_id)
            return EXIT_ALREADY_FINISHED
        log.info("job %s: cancelled", record.job_id)
        return 0

    if action == "wait":
        import time as _time

        deadline = _time.monotonic() + getattr(args, "timeout", 600.0)
        while True:
            service.store.refresh()
            record = service.get(args.job_id)
            if record.state not in ("queued", "running"):
                break
            if _time.monotonic() >= deadline:
                log.error("error: %s still %s after %.0fs",
                          args.job_id, record.state, args.timeout)
                return 1
            _time.sleep(0.5)
        _report_job(record)
        return 0 if record.state == "done" else 1

    raise ValueError(f"unknown jobs action {action!r}")


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the HTTP/JSON front door over one run store.

    The server only *admits* — workers drain what it queues — so it
    runs no engine at all.  Its telemetry (one ``api.request`` record
    per handled request) streams to ``events/api-<id>.jsonl`` in the
    store, where ``repro top`` and the Prometheus export pick it up
    exactly like worker and job logs.
    """
    from repro.service import JobService
    from repro.service.api import ApiServer, HttpLimits, QuotaManager
    from repro.telemetry.events import Telemetry, install
    from repro.telemetry.sinks import JsonlSink

    service = JobService(
        Path(args.store),
        max_queued=getattr(args, "max_queued", 256) or 256,
    )
    quota = None
    if getattr(args, "quota_rate", 50.0) > 0:
        quota = QuotaManager(
            rate=args.quota_rate, burst=getattr(args, "quota_burst", 200.0)
        )
    limits = HttpLimits(
        max_body_bytes=getattr(args, "max_body", 1 << 20),
        read_timeout=getattr(args, "read_timeout", 10.0),
    )
    server = ApiServer(
        service,
        host=getattr(args, "host", "127.0.0.1"),
        port=getattr(args, "port", 8080),
        quota=quota,
        limits=limits,
        server_id=getattr(args, "server_id", None),
    )
    log_path = service.store.root / "events" / f"{server.server_id}.jsonl"
    sink = JsonlSink(log_path, append=True, live=True)
    session = Telemetry([sink])
    previous = install(session)
    log.info(
        "serving %s on http://%s:%s (quota %s/s burst %s, queue cap %d)",
        args.store, server.host, server.port,
        args.quota_rate if quota else "off",
        getattr(args, "quota_burst", 200.0) if quota else "-",
        service.max_queued,
    )
    try:
        return server.run()
    finally:
        install(previous)
        session.close()


def cmd_worker(args: argparse.Namespace) -> int:
    """``repro worker``: drain a shared store's queue under a lease.

    The worker's own telemetry — lease acquisitions, takeovers, losses
    — streams to ``events/worker-<id>.jsonl`` in the store; each job it
    runs additionally taps that pipeline into the job's per-job event
    log, so both the per-worker and per-job views survive the worker.
    """
    from repro.service import JobService, default_worker_id
    from repro.telemetry.events import Telemetry, install
    from repro.telemetry.sinks import JsonlSink

    worker_id = getattr(args, "worker_id", None) or default_worker_id()
    service = JobService(
        Path(args.store),
        engine_factory=lambda: build_backend(args),
        use_cache=not getattr(args, "no_cache", False),
        worker_id=worker_id,
        lease_ttl=args.lease_ttl,
        heartbeat_interval=getattr(args, "heartbeat_interval", None),
    )

    drain_hook = None
    stop_event = None
    if getattr(args, "drain", False):
        import signal
        import threading

        stop_event = threading.Event()

        def _request_drain(signum, frame):
            stop_event.set()

        try:
            signal.signal(signal.SIGTERM, _request_drain)
            signal.signal(signal.SIGINT, _request_drain)
        except ValueError:
            # Not the main thread (embedded use): callers must set the
            # event through service.work(drain=...) themselves.
            pass
        drain_hook = stop_event.is_set

    log_path = service.store.root / "events" / f"worker-{worker_id}.jsonl"
    sink = JsonlSink(log_path, append=True, live=True)
    session = Telemetry([sink])
    previous = install(session)
    log.info(
        "worker %s draining %s (lease ttl %.0fs, poll %.1fs)",
        worker_id, args.store, args.lease_ttl, args.poll_interval,
    )
    telemetry.event("worker.started", worker=worker_id, store=str(args.store))
    finished = []
    try:
        finished = service.work(
            poll_interval=args.poll_interval,
            max_jobs=getattr(args, "max_jobs", None),
            idle_polls=getattr(args, "exit_when_idle", None),
            drain=drain_hook,
        )
    except KeyboardInterrupt:
        log.info("worker %s interrupted", worker_id)
    finally:
        if stop_event is not None and stop_event.is_set():
            telemetry.event("worker.drained", worker=worker_id)
            log.info("worker %s drained (checkpoint persisted, lease released)",
                     worker_id)
        telemetry.event("worker.exit", worker=worker_id, jobs=len(finished))
        install(previous)
        session.close()
    for record in finished:
        _report_job(record)
    log.info("worker %s exiting after %d jobs", worker_id, len(finished))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: the live fleet dashboard (or one-shot snapshot).

    Read-only over the shared store: job records, heartbeat files and
    event logs are tailed incrementally and joined into one frame.
    ``--once --json`` emits the identical snapshot machine-readably;
    ``--prometheus``/``--snapshot`` additionally export every frame.
    """
    import sys as _sys

    from repro.store import RunStore
    from repro.telemetry.dashboard import FleetDashboard, render_snapshot, run_top
    from repro.telemetry.export import write_json_snapshot, write_prometheus

    store = RunStore(Path(args.store))
    prometheus_path = getattr(args, "prometheus", None)
    snapshot_path = getattr(args, "snapshot", None)
    if prometheus_path is None and snapshot_path is None:
        return run_top(
            store,
            interval=args.interval,
            frames=getattr(args, "frames", None),
            once=getattr(args, "once", False),
            as_json=getattr(args, "as_json", False),
            color=False if getattr(args, "no_color", False) else None,
        )

    # Exporting loop: render + write side files each frame.
    import json as _json
    import time as _time

    dashboard = FleetDashboard(store)
    frames_left = getattr(args, "frames", None)
    once = getattr(args, "once", False)
    try:
        while True:
            snap = dashboard.snapshot()
            if prometheus_path:
                write_prometheus(prometheus_path, fleet_snapshot=snap)
            if snapshot_path:
                write_json_snapshot(snapshot_path, snap)
            if getattr(args, "as_json", False):
                _sys.stdout.write(
                    _json.dumps(snap, sort_keys=True, default=str) + "\n"
                )
            else:
                _sys.stdout.write(render_snapshot(snap, color=False) + "\n")
            _sys.stdout.flush()
            if once:
                return 0
            if frames_left is not None:
                frames_left -= 1
                if frames_left <= 0:
                    return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_store(args: argparse.Namespace) -> int:
    """``repro store gc``: sweep unreferenced blobs and unindexed cache
    packs (dry-run by default)."""
    from repro.store import RunStore, StoreError

    try:
        store = RunStore(args.store, create=False)
    except StoreError as exc:
        log.error("error: %s", exc)
        return 2
    report = store.gc(apply=args.apply, min_age_seconds=args.min_age)
    mode = "swept" if report["applied"] else "would sweep"
    log.info(
        "%s: %d live blob(s); %s %d unreferenced blob(s) + %d tmp file(s), "
        "%d unindexed cache pack(s) + %d cache tmp file(s), %s reclaimed%s",
        args.store,
        report["live"],
        mode,
        len(report["swept"]),
        report["tmp_swept"],
        report["cache_packs_swept"],
        report["cache_tmp_swept"],
        fmt_bytes(float(report["reclaimed_bytes"])),
        "" if report["applied"] else " (dry run; pass --apply to delete)",
    )
    if report["skipped_young"]:
        log.info(
            "  kept %d candidate(s) younger than %gs (in-flight writer guard)",
            report["skipped_young"],
            args.min_age,
        )
    for item in report["swept"]:
        log.debug("  %s %s", item["digest"], fmt_bytes(float(item["bytes"])))
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    log.info("%-5s %-10s %-15s Table-1 sizes", "abbr", "name", "unit")
    for workload in ALL_WORKLOADS.values():
        sizes = ", ".join(f"{s:g}" for s in workload.paper_sizes)
        log.info(
            "%-5s %-10s %-15s %s", workload.abbr, workload.name, workload.unit, sizes
        )
    return 0
