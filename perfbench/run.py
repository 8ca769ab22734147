"""End-to-end benchmark of the DAC tuner: one command, four workloads.

    python3 perfbench/run.py --workload tune-paper --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` installs timing shims around each layer's entry
points for alternate units of work and prints the per-layer metrics.
The second-to-last line of output is the full result record
(provenance, checks, per-unit details); the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from common import END_TO_END, PER_LAYER, SRC, Context, dumps, full_per_layer, provenance, workdir

WORKLOADS = ("tune-paper", "collect-sweep", "retune-sizes", "serve-closed")


def _module(name: str):
    """The workload's module: ``tune-paper`` lives in ``tune_paper.py``."""
    return importlib.import_module(name.replace("-", "_"))


def summary(outcome, trace: bool) -> dict:
    """The last output line: exactly the metrics ``BENCHMARK.json`` names."""
    if trace:
        values = full_per_layer(outcome.per_layer)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = outcome.end_to_end
        units = {name: unit for name, unit, _, _ in END_TO_END}
    return {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed phase runs units of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with workdir() as scratch:
        ctx = Context(seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), workdir=scratch)
        outcome = _module(args.workload).run(ctx)

    record = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "provenance": provenance(args.seed, outcome.point),
        "checks": [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in outcome.checks
        ],
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
        "details": outcome.details,
    }
    print(dumps({"record": record}))
    for name, ok, detail in outcome.checks:
        if not ok:
            print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)
    print(dumps(summary(outcome, bool(args.trace))), flush=True)
    return 0 if outcome.correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
