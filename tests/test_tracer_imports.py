"""Imports kept only for the benchmark's tracer must be ones that the tracer rebinds.

A module of ``dqdcycle`` may import a name it never calls, marked
``# noqa: F401``, so that ``perfbench/spans.py`` can rebind that name in the
module and time the calls that reach it. An import kept that way which no
span patches is dead code, and this test fails on it.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402


def kept_imports() -> set[tuple[str, str]]:
    """(module, name) of every import marked ``# noqa: F401`` under ``src/dqdcycle``."""
    kept = set()
    for path in sorted((ROOT / "src" / "dqdcycle").glob("*.py")):
        module = "dqdcycle" if path.stem == "__init__" else f"dqdcycle.{path.stem}"
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                kept |= {(module, alias.asname or alias.name.split(".")[0])
                         for alias in node.names}
    return kept


def test_every_import_kept_for_the_tracer_is_rebound_by_it():
    tracer = spans.Tracer()
    tracer.install()
    try:
        rebound = {(module.__name__, attr) for module, attr, _ in tracer._saved}
    finally:
        tracer.uninstall()
    kept = kept_imports()
    assert ("dqdcycle.sweep", "ThreadPoolExecutor") in kept  # the scan sees them
    assert sorted(kept - rebound) == []
