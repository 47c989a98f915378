"""Packaging metadata: every console script declared in pyproject.toml names
an importable callable, and no module under src/ keeps an import it does not
use."""

import ast
import importlib
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} = {target!r} is not callable"


SRC = PYPROJECT.parent / "src"


def unused_imports(path):
    """Names bound by the module's top-level imports that nothing in it reads;
    imports on a line marked `# noqa` and `from __future__` are exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: ".".join(p.relative_to(SRC).with_suffix("").parts),
)
def test_module_imports_are_used(path):
    assert unused_imports(path) == []
