"""Packaging metadata: every console script declared in pyproject.toml names
an importable callable, every module under src/ imports first in a fresh
interpreter, no module under src/ keeps an import it does not use or imports
inside a function, no module of the learned-agent stack imports an
environment, and every top-level function and class under src/, every
method of those classes and every field of its dataclasses is referenced by
the program or kept for a stated reason."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
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


FRESH_IMPORTS = """
import importlib, sys
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.startswith("graphexplore")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except (ImportError, AttributeError) as e:
        print(f"{name}: {e!r}")
"""


def test_every_module_imports_first_in_a_fresh_interpreter():
    # An import cycle fails whichever of its modules a caller imports first,
    # so each module is imported with no module of the package loaded.
    modules = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", FRESH_IMPORTS, *modules], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""


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


def function_imports(path):
    """Import statements inside the module's functions. An import belongs at
    the top of its module, where unused_imports sees it."""
    module = path.relative_to(SRC)
    return sorted({f"{module} line {node.lineno}: {ast.unparse(node)}"
                   for func in ast.walk(ast.parse(path.read_text()))
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_no_import_inside_a_function():
    assert [found for path in sorted(SRC.rglob("*.py")) for found in function_imports(path)] == []


# The learned agent's modules (packages and modules under graphexplore/):
# they read an environment only through the env contract of episode.py, so
# none of them imports from graphexplore.envs.
AGENT_STACK = ("tensor", "graphnet", "episode", "agents", "trainer")


def imported_modules(package, node):
    """Absolute names of the modules an import statement may read, for a
    module of `package` (dotted): the imported module, and module.name for
    each name a `from` import binds, since that name may be a submodule."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    module = node.module
    if node.level:
        parts = package.split(".")
        module = ".".join(parts[:len(parts) - node.level + 1] + ([module] if module else []))
    return {module} | {f"{module}.{alias.name}" for alias in node.names}


def env_imports(root):
    """The imports from graphexplore.envs in the AGENT_STACK modules of the
    tree under `root` (the directory holding graphexplore/)."""
    found = []
    for path in sorted((root / "graphexplore").rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[1] not in AGENT_STACK:
            continue
        package = ".".join(parts[:-1])
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    name == "graphexplore.envs" or name.startswith("graphexplore.envs.")
                    for name in imported_modules(package, node)):
                found.append(f"{'.'.join(parts)} line {node.lineno}: {ast.unparse(node)}")
    return found


def test_the_learned_agent_stack_imports_no_environment():
    assert env_imports(SRC) == []


PLANTED_TREE = {
    "__init__.py": "",
    "episode.py": "from .envs.karel.lang import sample_program\nfrom .graphnet import GraphNet\n",
    "agents/__init__.py": "from .policy import Head\n",
    "agents/policy.py": "from .. import envs\nfrom ..episode import run\n",
    "tensor/core.py": "import numpy as np\nimport graphexplore.envs.maze\n",
    "trainer.py": "from graphexplore.envs import appgraph\nfrom .environment import x\n",
    "benchmarks.py": "from .envs import maze\n",
}


def test_an_environment_import_planted_in_the_agent_stack_is_found(tmp_path):
    # benchmarks is outside the stack, and `.environment` is not `.envs`.
    for name, text in PLANTED_TREE.items():
        path = tmp_path / "graphexplore" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert env_imports(tmp_path) == [
        "graphexplore.agents.policy line 1: from .. import envs",
        "graphexplore.episode line 1: from .envs.karel.lang import sample_program",
        "graphexplore.tensor.core line 2: import graphexplore.envs.maze",
        "graphexplore.trainer line 1: from graphexplore.envs import appgraph",
    ]


PERFBENCH = PYPROJECT.parent / "perfbench"

# Top-level functions, classes, methods and dataclass fields under src/ that
# nothing in src/ or in perfbench's modules references, each kept for the
# reason given. Anything else without a reference is dead code: delete it with
# its tests.
KEPT = {
    "trainer.train": "the training loop that ROADMAP items 1, 5, 11 and 12 extend",
    "envs.karel.machine.CoverageReport.steps": (
        "the fuel count that test_execute_matches_the_reference_interpreter compares"),
    "episode.HistoryEncoderConfig.temporal_mode": (
        "validated only; perfbench's build_agent passes it (ROADMAP item 14)"),
    "episode.HistoryEncoderConfig.conditioning": (
        "validated only; perfbench's build_agent passes it (ROADMAP item 14)"),
}


def program_imports(tree):
    """Names the tree's imports bind to modules or objects of the program:
    relative imports (src/) and imports from graphexplore (perfbench)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "graphexplore"):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or "graphexplore" for alias in node.names
                         if alias.name.split(".")[0] == "graphexplore")
    return names


def referenced_names(tree, imports, strings=False):
    """Counts of the names a tree reads, keyed (name, kind). kind is "name"
    for a bare name, "attribute" for any attribute read, "method" too for an
    attribute that is called (`x.m(...)`) or read through self or cls, and
    "program" too for an attribute read of a name in `imports` (see
    program_imports), such as `core.log`, but not `np.log`. With strings,
    its string constants (perfbench patches by name) count as all four.
    Import statements bind names without reading them, so re-exports do not
    count."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id, "name"] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr, "attribute"] += 1
            if id(node) in called or (isinstance(node.value, ast.Name)
                                      and node.value.id in ("self", "cls")):
                names[node.attr, "method"] += 1
            if isinstance(node.value, ast.Name) and node.value.id in imports:
                names[node.attr, "program"] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            for kind in ("name", "attribute", "method", "program"):
                names[node.value, kind] += 1
    return names


def definitions(module, tree):
    """(qualified name, node, reads that reference it) of the module's
    top-level functions and classes, which bare names and attribute reads of
    program imports reference, and of its classes' methods, which calls and
    self/cls reads reference (a property: any attribute read); dunders are
    exempt, since Python calls them by protocol rather than by name."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield f"{module}.{node.name}", node, ((node.name, "name"), (node.name, "program"))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    prop = any(isinstance(d, ast.Name) and d.id == "property"
                               for d in item.decorator_list)
                    kind = "attribute" if prop else "method"
                    yield f"{module}.{node.name}.{item.name}", item, ((item.name, kind),)


def program_trees():
    """(module name, tree) of every module under src/graphexplore, and the
    trees of perfbench's non-test modules."""
    package = SRC / "graphexplore"
    modules = [(".".join(path.relative_to(package).with_suffix("").parts),
                ast.parse(path.read_text())) for path in sorted(package.rglob("*.py"))]
    perfbench = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))
                 if not path.name.startswith("test_")]
    return modules, perfbench


def unreferenced_definitions(modules, perfbench):
    """Definitions of `modules` (see definitions) that no code references
    outside their own bodies: not in `modules`, not in the `perfbench`
    trees. A top-level definition counts as referenced by a bare name or by
    an attribute read of a program import (`core.log`, not `np.log`). A
    method counts as referenced when it is called (`x.m(...)`), read as
    `self.m` or `cls.m`, or named by a perfbench string; a property by any
    attribute read. Reading `config.m` alone, or a bare name of the same
    spelling (a local or a function), does not reference a method."""
    references = Counter()
    found = []
    for module, tree in modules:
        imports = program_imports(tree)
        references.update(referenced_names(tree, imports))
        found.extend((name, node, reads, imports) for name, node, reads in definitions(module, tree))
    for tree in perfbench:
        references.update(referenced_names(tree, program_imports(tree), strings=True))
    unreferenced = []
    for name, node, reads, imports in found:
        own = referenced_names(node, imports)
        if sum(references[r] for r in reads) <= sum(own[r] for r in reads):
            unreferenced.append(name)
    return sorted(unreferenced)


def dataclass_fields(module, tree):
    """(qualified name, field name) of the fields of the module's top-level
    dataclasses: the annotated names in the body of a class decorated
    @dataclass, @dataclass(...) or @dataclasses.dataclass(...)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                for d in (dec.func if isinstance(dec, ast.Call) else dec
                          for dec in node.decorator_list)):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{module}.{node.name}.{item.target.id}", item.target.id


def unread_fields(modules, perfbench):
    """Fields of the dataclasses of `modules` (see dataclass_fields) whose
    name no attribute load (`x.name`, not `x.name = ...`) in `modules` or
    in the `perfbench` trees reads."""
    trees = [tree for _, tree in modules] + list(perfbench)
    loads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(name for module, tree in modules
                  for name, field in dataclass_fields(module, tree) if field not in loads)


def test_every_definition_is_referenced_or_kept_for_a_reason():
    modules, perfbench = program_trees()
    unreferenced = unreferenced_definitions(modules, perfbench) + unread_fields(modules, perfbench)
    assert [name for name in unreferenced if name not in KEPT] == []
    assert [name for name in KEPT if name not in unreferenced] == [], "stale KEPT entries"


PLANTED = """
class Env:
    def feature_width(self):
        return 1

    def step(self):
        return self._advance()

    def _advance(self):
        return 2

    @property
    def size(self):
        return 3

    def by_name(self):
        return 4


def run(config, env):
    return config.feature_width, env.step(), env.size


run(None, Env())
"""


def test_a_method_read_only_as_an_attribute_of_something_else_is_unreferenced():
    # step is called, _advance read through self, size a property and by_name
    # named by a perfbench string; config.feature_width reads a config
    # field, not the method.
    perfbench = [ast.parse('PATCHED = ("by_name",)')]
    found = unreferenced_definitions([("planted", ast.parse(PLANTED))], perfbench)
    assert found == ["planted.Env.feature_width"]


PLANTED_FIELDS = """
from dataclasses import dataclass
import dataclasses


@dataclass
class Config:
    width: int
    depth: int = 2
    label: str = ""

    def total(self):
        return self.width * 2


@dataclasses.dataclass(frozen=True)
class Record:
    steps: int


class Plain:
    size: int


def run(config, record):
    config.label = "run"
    return config.total(), Plain.size
"""


def test_a_dataclass_field_that_is_only_written_is_unread():
    # width is read through self and size is not a dataclass field; label is
    # only written, and depth and steps are never touched.
    found = unread_fields([("planted", ast.parse(PLANTED_FIELDS))], [])
    assert found == ["planted.Config.depth", "planted.Config.label", "planted.Record.steps"]
    # An attribute load in perfbench counts as a read.
    found = unread_fields([("planted", ast.parse(PLANTED_FIELDS))], [ast.parse("cfg.depth")])
    assert found == ["planted.Config.label", "planted.Record.steps"]
