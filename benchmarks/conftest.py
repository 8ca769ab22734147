"""Benchmark configuration.

Each ``bench_fig*.py``/``bench_table*.py`` regenerates one table or
figure of the paper at FAST scale and prints the reproduced rows, so
``pytest benchmarks/ --benchmark-only -s`` doubles as the reproduction
report.  Heavy experiments run a single round; substrate
micro-benchmarks use pytest-benchmark's default calibration.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The fit and predict benchmarks compare against ``tests.oracles``.
_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def report(text: str) -> None:
    """Print a reproduced table under the benchmark output."""
    print("\n" + text + "\n")


@pytest.fixture(scope="session")
def once():
    """Pedantic single-round settings for heavy experiment benchmarks."""
    return dict(rounds=1, iterations=1, warmup_rounds=0)
