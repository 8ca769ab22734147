"""Argument parsing and command dispatch for ``python -m repro``."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import commands
from repro.telemetry.log import configure_logging


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """``--backend/--jobs``: which execution engine runs the substrate."""
    parser.add_argument(
        "--backend",
        choices=commands.BACKENDS,
        default="inprocess",
        help="execution backend for substrate runs (default: inprocess)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --backend processpool (default: CPU count)",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """``--telemetry/--trace``: record an event log for this command."""
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="record a JSONL event log and metrics snapshot under DIR",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="also export a Chrome/Perfetto trace.json "
        f"(implies --telemetry {commands.DEFAULT_TELEMETRY_DIR})",
    )


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """``--store/--no-cache``: run through the durable job service."""
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="run as a resumable job against a run store at DIR",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="with --store: do not reuse substrate runs from the store cache",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="with --store: max substrate executions per session",
    )


def _verbosity_parent() -> argparse.ArgumentParser:
    """``-v/-q`` flags shared by every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_mutually_exclusive_group()
    group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="debug-level logging",
    )
    group.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress informational output (warnings and errors only)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "DAC (ASPLOS'18) reproduction: datasize-aware auto-tuning of "
            "41 Spark configuration parameters on a simulated cluster."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verbosity = _verbosity_parent()

    # -- tune -----------------------------------------------------------
    tune = sub.add_parser(
        "tune",
        help="run the full DAC pipeline for one program and input size",
        parents=[verbosity],
    )
    tune.add_argument("program", help="workload abbreviation or name, e.g. TS")
    tune.add_argument("--size", type=float, required=True,
                      help="input size in the workload's Table-1 units")
    tune.add_argument("--train", type=int, default=600,
                      help="training examples to collect (paper: 2000)")
    tune.add_argument("--trees", type=int, default=300,
                      help="boosted trees per HM component (paper: 3600)")
    tune.add_argument("--learning-rate", type=float, default=0.1,
                      help="HM learning rate (paper: 0.05)")
    tune.add_argument("--generations", type=int, default=100,
                      help="GA generations")
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--output", metavar="PATH",
                      help="write the tuned configuration as spark-dac.conf")
    tune.add_argument("--spark-submit", action="store_true",
                      help="print the equivalent spark-submit command")
    _add_engine_flags(tune)
    _add_telemetry_flags(tune)
    _add_store_flags(tune)
    tune.set_defaults(handler=commands.cmd_tune)

    # -- collect ----------------------------------------------------------
    collect = sub.add_parser(
        "collect",
        help="run only the collecting component, write a CSV training set",
        parents=[verbosity],
    )
    collect.add_argument("program")
    collect.add_argument("--examples", type=int, default=600)
    collect.add_argument("--seed", type=int, default=0)
    collect.add_argument("--output", metavar="PATH", required=True,
                         help="CSV file to write (the paper's matrix S)")
    _add_engine_flags(collect)
    _add_telemetry_flags(collect)
    _add_store_flags(collect)
    collect.set_defaults(handler=commands.cmd_collect)

    # -- run --------------------------------------------------------------
    run = sub.add_parser(
        "run",
        help="execute one program on the simulator under a configuration",
        parents=[verbosity],
    )
    run.add_argument("program")
    run.add_argument("--size", type=float, required=True)
    run.add_argument("--conf", metavar="PATH",
                     help="spark-dac.conf file (default: Table-2 defaults)")
    run.add_argument("--expert", action="store_true",
                     help="use the expert rule-book instead of the defaults")
    run.add_argument("--stages", action="store_true",
                     help="print the per-stage breakdown")
    run.add_argument("--report", action="store_true",
                     help="print the full run report with bottleneck diagnosis")
    _add_engine_flags(run)
    _add_telemetry_flags(run)
    run.set_defaults(handler=commands.cmd_run)

    # -- experiment ---------------------------------------------------------
    experiment = sub.add_parser(
        "experiment",
        help="regenerate one of the paper's figures/tables",
        parents=[verbosity],
    )
    experiment.add_argument(
        "name",
        choices=sorted(commands.EXPERIMENTS),
        help="which figure/table to reproduce",
    )
    experiment.add_argument("--scale", choices=("fast", "paper"), default="fast")
    _add_engine_flags(experiment)
    _add_telemetry_flags(experiment)
    experiment.set_defaults(handler=commands.cmd_experiment)

    # -- scenario ------------------------------------------------------------
    scenario = sub.add_parser(
        "scenario",
        help="shared-cluster multi-job simulation: Poisson arrivals, "
        "FIFO/fair executor allocation, stragglers, spot revocations",
        parents=[verbosity],
    )
    scenario_sub = scenario.add_subparsers(dest="action", required=True)

    scenario_run = scenario_sub.add_parser(
        "run",
        help="run a trace spec and print the per-job report + fingerprint",
        parents=[verbosity],
    )
    scenario_run.add_argument(
        "spec", nargs="?", default="smoke", metavar="TRACE",
        help="built-in trace name or a TraceSpec JSON file (default: smoke)",
    )
    scenario_run.add_argument("--seed", type=int, default=0)
    scenario_run.add_argument(
        "--out", metavar="PATH",
        help="also write the full report (spec + seed + outcomes) as JSON",
    )
    _add_engine_flags(scenario_run)
    _add_telemetry_flags(scenario_run)
    scenario_run.set_defaults(handler=commands.cmd_scenario, action="run")

    scenario_replay = scenario_sub.add_parser(
        "replay",
        help="re-run a saved report's (spec, seed) and verify the "
        "fingerprint matches bit-identically",
        parents=[verbosity],
    )
    scenario_replay.add_argument("report", help="report JSON written by run --out")
    _add_engine_flags(scenario_replay)
    scenario_replay.set_defaults(handler=commands.cmd_scenario, action="replay")

    scenario_report = scenario_sub.add_parser(
        "report",
        help="render a saved report JSON without re-running it",
        parents=[verbosity],
    )
    scenario_report.add_argument("report", help="report JSON written by run --out")
    scenario_report.set_defaults(handler=commands.cmd_scenario, action="report")

    scenario_list = scenario_sub.add_parser(
        "list", help="list the built-in traces", parents=[verbosity]
    )
    scenario_list.set_defaults(handler=commands.cmd_scenario, action="list")

    # -- trace ---------------------------------------------------------------
    trace = sub.add_parser(
        "trace",
        help="render a recorded telemetry event log as a timeline + summary",
        parents=[verbosity],
    )
    trace.add_argument("eventlog", help="events.jsonl written by --telemetry")
    trace.add_argument("--chrome", metavar="PATH",
                       help="also export a Chrome/Perfetto trace JSON")
    trace.add_argument("--limit", type=int, default=40,
                       help="maximum timeline rows (default: 40)")
    trace.add_argument("--follow", action="store_true",
                       help="tail the event log, streaming records as they land")
    trace.add_argument("--idle-timeout", type=float, default=None, metavar="SEC",
                       help="with --follow: stop after SEC seconds without "
                       "a new record (default: follow forever)")
    trace.set_defaults(handler=commands.cmd_trace)

    # -- jobs ----------------------------------------------------------------
    jobs = sub.add_parser(
        "jobs",
        help="durable, resumable tuning jobs on a run store",
        parents=[verbosity],
    )
    jobs_sub = jobs.add_subparsers(dest="action", required=True)

    def _jobs_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        sub_parser = jobs_sub.add_parser(name, help=help_text, parents=[verbosity])
        sub_parser.add_argument(
            "--store", metavar="DIR", default=None,
            help="run store directory (local mode)",
        )
        sub_parser.add_argument(
            "--url", metavar="URL", default=None,
            help="talk to a remote `repro serve` endpoint instead of a "
            "local store, e.g. http://tuner:8080",
        )
        sub_parser.add_argument(
            "--tenant", metavar="NAME", default=None,
            help="with --url: quota tenant sent as X-Repro-Tenant",
        )
        sub_parser.add_argument(
            "--no-cache", action="store_true",
            help="do not reuse substrate runs from the store cache",
        )
        _add_engine_flags(sub_parser)
        sub_parser.set_defaults(handler=commands.cmd_jobs, action=name)
        return sub_parser

    submit = _jobs_parser("submit", "enqueue a tuning (or collect-only) job")
    submit.add_argument("program", help="workload abbreviation or name, e.g. TS")
    submit.add_argument("--size", type=float, default=0.0,
                        help="target input size (required unless --collect-only)")
    submit.add_argument("--collect-only", action="store_true",
                        help="stop after the collecting phase")
    submit.add_argument("--train", type=int, default=600)
    submit.add_argument("--trees", type=int, default=250)
    submit.add_argument("--learning-rate", type=float, default=0.1)
    submit.add_argument("--generations", type=int, default=100)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first (FIFO within a priority)")
    submit.add_argument("--budget", type=int, default=None, metavar="N",
                        help="max substrate executions per session")
    submit.add_argument("--warm-from", metavar="JOB_ID", default=None,
                        help="reuse a prior job's training set/model")
    submit.add_argument("--run", action="store_true",
                        help="run the job immediately after enqueueing")

    _jobs_parser("list", "list every job in the store")

    status = _jobs_parser("status", "show one job's state, progress and results")
    status.add_argument("job_id")

    run_jobs = _jobs_parser("run", "run queued jobs (priority order)")
    run_jobs.add_argument("--max-jobs", type=int, default=None, metavar="N")
    run_jobs.add_argument("--max-concurrent", type=int, default=1, metavar="N",
                          help="worker threads draining the queue")

    resume = _jobs_parser("resume", "continue interrupted jobs from checkpoints")
    resume.add_argument("job_id", nargs="?", default=None)
    resume.add_argument("--all", action="store_true",
                        help="resume every resumable job")
    resume.add_argument("--budget", type=int, default=None, metavar="N",
                        help="replace the job's per-session run budget")

    cancel = _jobs_parser("cancel", "cancel an unfinished job")
    cancel.add_argument("job_id")

    wait = _jobs_parser("wait", "poll one job until it finishes")
    wait.add_argument("job_id")
    wait.add_argument("--timeout", type=float, default=600.0, metavar="SEC",
                      help="give up after SEC seconds (default: 600)")

    # -- serve ---------------------------------------------------------------
    serve = sub.add_parser(
        "serve",
        help="HTTP/JSON API over a run store's job queue: remote clients "
        "submit tuning requests, the worker fleet drains them",
        parents=[verbosity],
    )
    serve.add_argument("--store", metavar="DIR", required=True,
                       help="run store directory (shared with the workers)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks a free one (default: 8080)")
    serve.add_argument("--max-queued", type=int, default=256, metavar="N",
                       help="active-job admission cap (default: 256)")
    serve.add_argument("--quota-rate", type=float, default=50.0, metavar="R",
                       help="per-tenant submissions/second refill rate "
                       "(default: 50; 0 disables quotas)")
    serve.add_argument("--quota-burst", type=float, default=200.0, metavar="B",
                       help="per-tenant token-bucket burst size (default: 200)")
    serve.add_argument("--max-body", type=int, default=1 << 20, metavar="BYTES",
                       help="largest accepted request body (default: 1 MiB)")
    serve.add_argument("--read-timeout", type=float, default=10.0,
                       metavar="SEC",
                       help="per-read slow-loris timeout (default: 10)")
    serve.add_argument("--server-id", metavar="ID", default=None,
                       help="identity used in telemetry and the event log "
                       "(default: api-<random>)")
    serve.set_defaults(handler=commands.cmd_serve)

    # -- worker --------------------------------------------------------------
    worker = sub.add_parser(
        "worker",
        help="long-lived lease-holding worker draining a store's job queue "
        "(run one per host against a shared store)",
        parents=[verbosity],
    )
    worker.add_argument("--store", metavar="DIR", required=True,
                        help="run store directory (shared across workers)")
    worker.add_argument("--worker-id", metavar="ID", default=None,
                        help="lease identity (default: host-pid-random)")
    worker.add_argument("--lease-ttl", type=float, default=30.0, metavar="SEC",
                        help="seconds a job lease survives without renewal; "
                        "expired leases are taken over by other workers "
                        "(default: 30)")
    worker.add_argument("--poll-interval", type=float, default=1.0,
                        metavar="SEC",
                        help="seconds between empty queue polls (default: 1)")
    worker.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="exit after finishing N jobs (default: no limit)")
    worker.add_argument("--exit-when-idle", type=int, default=None,
                        metavar="POLLS",
                        help="exit after POLLS consecutive empty polls "
                        "(default: poll forever)")
    worker.add_argument("--no-cache", action="store_true",
                        help="do not reuse substrate runs from the store cache")
    worker.add_argument("--drain", action="store_true",
                        help="graceful shutdown on SIGTERM/SIGINT: finish the "
                        "checkpoint in progress, release the lease and exit 0 "
                        "(the job stays resumable)")
    worker.add_argument("--heartbeat-interval", type=float, default=None,
                        metavar="SEC",
                        help="seconds between heartbeat-file writes (default: "
                        "lease TTL / 10, floor 0.5); other hosts declare this "
                        "worker dead after ~3 missed beats")
    _add_engine_flags(worker)
    worker.set_defaults(handler=commands.cmd_worker)

    # -- top -----------------------------------------------------------------
    top = sub.add_parser(
        "top",
        help="live fleet dashboard over a run store: jobs, workers, "
        "GA convergence, engine health",
        parents=[verbosity],
    )
    top.add_argument("--store", metavar="DIR", required=True,
                     help="run store directory (shared across workers)")
    top.add_argument("--interval", type=float, default=1.0, metavar="SEC",
                     help="refresh period (default: 1)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit")
    top.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the snapshot as JSON instead of a frame")
    top.add_argument("--frames", type=int, default=None, metavar="N",
                     help="exit after N frames (default: run until Ctrl-C)")
    top.add_argument("--no-color", action="store_true",
                     help="disable ANSI colors/in-place refresh")
    top.add_argument("--prometheus", metavar="PATH", default=None,
                     help="also write a Prometheus text-exposition file "
                     "every frame (textfile-collector scrape target)")
    top.add_argument("--snapshot", metavar="PATH", default=None,
                     help="also write the JSON snapshot to PATH every frame")
    top.set_defaults(handler=commands.cmd_top)

    # -- store ---------------------------------------------------------------
    store = sub.add_parser(
        "store",
        help="run-store maintenance (garbage collection)",
        parents=[verbosity],
    )
    store_sub = store.add_subparsers(dest="action", required=True)
    gc = store_sub.add_parser(
        "gc",
        help="sweep object blobs no index entry references and cache "
        "packs no cache index line names (dry-run unless --apply)",
        parents=[verbosity],
    )
    gc.add_argument("--store", metavar="DIR", required=True,
                    help="run store directory")
    gc.add_argument("--apply", action="store_true",
                    help="actually delete (default: report only)")
    gc.add_argument("--min-age", type=float, default=3600.0, metavar="SEC",
                    help="never sweep blobs younger than SEC seconds "
                    "(default: 3600; guards in-flight writers)")
    gc.set_defaults(handler=commands.cmd_store, action="gc")

    # -- workloads -----------------------------------------------------------
    workloads = sub.add_parser(
        "workloads", help="list the Table-1 programs", parents=[verbosity]
    )
    workloads.set_defaults(handler=commands.cmd_workloads)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(
        verbose=getattr(args, "verbose", 0), quiet=getattr(args, "quiet", False)
    )
    try:
        return args.handler(args)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
