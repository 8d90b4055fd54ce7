"""Every import of ``dqdcycle`` is used, or kept for the benchmark's tracer, and
none reaches into another module's private names.

A module of ``dqdcycle`` may import a name it never calls, marked
``# noqa: F401``, so that ``perfbench/spans.py`` can rebind that name in the
module and time the calls that reach it. An import kept that way which no
span patches is dead code, and so is an unmarked import that the module
never uses; these tests fail on either. A name with a leading underscore
belongs to its module: another module of the package that imports it, or
reads it off an imported module, fails too. So does the tests' scalar
oracle, ``tests/reference.py``: it shares the package's public data and
formulas, never a private helper of the kernels it checks. No linter is
needed: the scans read each module's syntax tree.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402


def marked(lines: list[str], node: ast.stmt) -> bool:
    """Whether an import statement carries ``# noqa: F401`` on one of its lines."""
    return any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])


def kept_imports() -> set[tuple[str, str]]:
    """(module, name) of every import marked ``# noqa: F401`` under ``src/dqdcycle``."""
    kept = set()
    for path in sorted((ROOT / "src" / "dqdcycle").glob("*.py")):
        module = "dqdcycle" if path.stem == "__init__" else f"dqdcycle.{path.stem}"
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if marked(lines, node):
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


def unused_imports(path: Path) -> list[str]:
    """The names that the module at ``path`` imports without a ``# noqa: F401`` mark and
    never reads: not as a name, as the base of an attribute, nor in ``__all__``."""
    source = path.read_text(encoding="utf-8")
    lines, tree = source.splitlines(), ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and not marked(lines, node)
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_every_unmarked_import_is_used():
    paths = sorted((ROOT / "src" / "dqdcycle").glob("*.py"))
    assert paths
    assert [(path.name, name) for path in paths for name in unused_imports(path)] == []


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_names(source: str) -> list[str]:
    """The private names that a module of the package, given by its ``source``, takes
    from another of its modules: by ``from`` import, or as an attribute of an imported
    module."""
    tree = ast.parse(source)
    ours = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "dqdcycle")]
    modules = {alias.asname or alias.name for node in ours for alias in node.names
               if node.module in (None, "dqdcycle")}  # the package's own modules
    modules |= {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names
                if alias.name.split(".")[0] == "dqdcycle"}
    imported = [alias.name for node in ours for alias in node.names if private(alias.name)]
    read = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and private(node.attr)]
    return imported + read


def test_no_module_takes_another_modules_private_name():
    sample = ("from .regimes import _row, kappa\nfrom . import verify as v\n"
              "import dqdcycle.qdot\nimport numpy as np\n"
              "v._x, np._y, dqdcycle._z, v.__doc__, kappa._w\n")
    assert foreign_private_names(sample) == ["_row", "v._x", "dqdcycle._z"]  # the scan sees them
    paths = sorted((ROOT / "src" / "dqdcycle").glob("*.py"))
    assert paths
    paths.append(ROOT / "tests" / "reference.py")
    assert [(path.name, name) for path in paths
            for name in foreign_private_names(path.read_text(encoding="utf-8"))] == []
