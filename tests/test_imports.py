"""Every import in the package and its tests is used, only forked.py
forks, and every dotted name and backticked CamelCase name the README
gives resolves.

No linter ships with the test dependencies, so these are small stdlib
`ast` checks.  A name bound by an import must be read somewhere in its
module; `__init__.py` re-exports by importing, and `from __future__`
imports are directives, so both are left out.  No package module but
forked.py may call os.fork, reach the OpenBLAS thread control or read a
private name of forked: the policy of who forks lives in one place.
cli.py calls no run and reads no name of forked: every run is library
logic, and so is whether it forks.  In analysis.py only run_tables
calls run: run and bounds, and each run of the stability pair, step
through its one lockstep path.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "crowdflow").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _imported(tree: ast.AST) -> dict[str, int]:
    """Name bound by each import -> line of the import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read_names(tree: ast.AST) -> set[str]:
    """Names read in the module, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _read_names(ast.parse(ann.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _read_names(tree)
    return sorted((name, line) for name, line in _imported(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unused_and_skips_used():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "from typing import Sequence\n"
              "@dataclass\n"
              "class A:\n"
              "    x: 'Sequence[int]'\n"
              "print(np.pi)\n")
    assert unused_imports(source) == [("field", 4), ("os", 2)]


# os.fork, a private name of forked, an OpenBLAS thread-control name, or
# the mmap module (shared memory)
FORKING = re.compile(r"(^|\.)os\.fork$|(^|\.)forked\._|openblas|num_threads"
                     r"|(^|\.)mmap(\.|$)", re.I)


def _dotted(node: ast.AST) -> str:
    """a.b.c for a chain of attributes on a name; "" for anything else."""
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def forking_names(source: str) -> list[tuple[str, int]]:
    """Names read or imported in source that only forked.py may use."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Attribute, ast.Name)):
            names = [_dotted(node)]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(name, node.lineno) for name in names
                  if FORKING.search(name)]
    return sorted(found)


@pytest.mark.parametrize("path", [
    p for p in SOURCES if p.parent.name == "crowdflow"
    and p.name != "forked.py"], ids=lambda p: p.name)
def test_only_forked_forks(path):
    assert forking_names(path.read_text()) == []


def test_forking_checker_finds_each_kind():
    source = ("import os\n"
              "from . import forked\n"
              "from crowdflow.forked import _usable_cpus, sharing\n"
              "from os import fork\n"
              "pid = os.fork()\n"
              "get, put = forked._openblas_threads()\n"
              "lib.openblas_set_num_threads(1)\n"
              "with forked.sharing(2) as (procs, start):\n"
              "    forked.Lockstep([start(job)]).share(rows)\n"
              "import mmap\n"
              "buf = mmap.mmap(-1, 8)\n"
              "from mmap import mmap as shared\n"
              "G = forked.shared_array((2, 3))\n"
              "summary = mmapped + immap\n")
    assert forking_names(source) == [
        ("crowdflow.forked._usable_cpus", 3),
        ("forked._openblas_threads", 6),
        ("lib.openblas_set_num_threads", 7), ("mmap", 10), ("mmap", 11),
        ("mmap.mmap", 11), ("mmap.mmap", 12), ("os.fork", 4), ("os.fork", 5)]


def forked_reads(source: str) -> list[str]:
    """forked, and each module named forked, that source imports or reads."""
    tree = ast.parse(source)
    modules = [node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module]
    modules += [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    found = {"forked"} & (_read_names(tree) | set(_imported(tree)))
    found |= {m for m in modules if m.split(".")[-1] == "forked"}
    return sorted(found)


def test_cli_forks_nothing():
    # whether a command forks is decided in the library (run_tables,
    # gateaux_residual), not by the command
    source = (ROOT / "src" / "crowdflow" / "cli.py").read_text()
    assert forked_reads(source) == []


def test_forked_reads_checker_finds_each_kind():
    assert forked_reads("from . import forked\n") == ["forked"]
    assert forked_reads("from .forked import sharing\n") == ["forked"]
    assert forked_reads("import crowdflow.forked\n") == ["crowdflow.forked"]
    assert forked_reads("x = forked.Lockstep\n") == ["forked"]
    assert forked_reads("from . import forking\nforks = 1\n") == []


def run_callers(source: str) -> list[str]:
    """The top-level definition ("<module>" outside any) around each call
    of run, or of an attribute named run, in source."""
    found = []
    for stmt in ast.parse(source).body:
        name = getattr(stmt, "name", "<module>")
        found += [name for node in ast.walk(stmt)
                  if isinstance(node, ast.Call)
                  and _dotted(node.func).split(".")[-1] == "run"]
    return found


def test_cli_calls_no_run():
    source = (ROOT / "src" / "crowdflow" / "cli.py").read_text()
    assert run_callers(source) == []


def test_analysis_runs_only_in_run_tables():
    # one stepping path in analysis.py: stability_table's pair, like run
    # and bounds, steps through run_tables' lockstep core
    source = (ROOT / "src" / "crowdflow" / "analysis.py").read_text()
    assert run_callers(source) == ["run_tables"]


def test_run_caller_checker_finds_each_kind():
    source = ("from .solver import run\n"
              "def a(m, d):\n    return run(m, d)\n"
              "def b(m, d):\n    return solver.run(m, d)\n"
              "class C:\n    def c(self):\n        f = lambda: run(1, 2)\n"
              "def d(m):\n    return runner(m), m.run\n"
              "run(m, d)\n")
    assert run_callers(source) == ["a", "b", "C", "<module>"]


def readme_names(text: str) -> list[str]:
    """Dotted crowdflow.<module>[.<name>...] references in the text."""
    return sorted(set(re.findall(r"\bcrowdflow(?:\.\w+)+", text)))


def resolve(dotted: str) -> object:
    """Import crowdflow.<module>, then look up each further name on it."""
    top, module, *names = dotted.split(".")
    obj = importlib.import_module(f"{top}.{module}")
    for name in names:
        obj = getattr(obj, name)
    return obj


def readme_classes(text: str) -> list[str]:
    """Backticked CamelCase names in the text, such as `ModelSpec` or
    `GradientAvoidance(eps)`: each names crowdflow.<Name>."""
    return sorted(set(re.findall(r"`([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)\b",
                                 text)))


README_TEXT = (ROOT / "README.md").read_text()
README_NAMES = readme_names(README_TEXT)
README_CLASSES = readme_classes(README_TEXT)


@pytest.mark.parametrize("dotted", README_NAMES)
def test_readme_name_resolves(dotted):
    resolve(dotted)


@pytest.mark.parametrize("name", README_CLASSES)
def test_readme_class_resolves(name):
    getattr(importlib.import_module("crowdflow"), name)


def test_readme_names_found_and_checked():
    assert "crowdflow.analysis.RunningEnvelope" in README_NAMES
    assert readme_names("`crowdflow.grid.norms(x)`, crowdflow.cli.") \
        == ["crowdflow.cli", "crowdflow.grid.norms"]
    with pytest.raises(AttributeError):
        resolve("crowdflow.analysis.no_such_name")
    with pytest.raises(ModuleNotFoundError):
        resolve("crowdflow.invariance")


def test_readme_classes_found_and_checked():
    assert {"ModelSpec", "GradientAvoidance", "RunResult"} \
        <= set(README_CLASSES)
    assert readme_classes("`ModelSpec`, `GradientAvoidance(eps, k)`, "
                          "`ModelSpec.dirs`, `V_i`, `OMP_NUM_THREADS`, "
                          "`P = 1`, `Sigma_t sigma0`, ModelSpec2") \
        == ["GradientAvoidance", "ModelSpec"]
    with pytest.raises(AttributeError):
        getattr(importlib.import_module("crowdflow"), "DirectionField")
