"""The declared runtime dependencies are exactly what ``src/`` imports.

``pyproject.toml`` is the single source of dependencies: CI installs the
package from it, so an import it does not declare breaks a clean
install, and a declared package nothing imports is dead weight.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _declared() -> set:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
        for spec in project["dependencies"]
    }


def _imported() -> set:
    """Top-level packages of every absolute import anywhere in ``src/``
    (lazy imports inside functions included), minus the standard library
    and the package itself."""
    found = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top not in sys.stdlib_module_names and top not in (
                    "repro",
                    "__future__",
                ):
                    found.add(top.lower())
    return found


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names needs 3.10"
)
def test_imports_match_declared_dependencies():
    assert _imported() == _declared()


def test_cli_import_loads_no_dropped_dependency():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = (
        "import sys, repro.cli.main; "
        "print(','.join(m for m in ('networkx', 'numba') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == ""
