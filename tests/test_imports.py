"""Every import in the package and its tests is used, only forked.py
forks, and every dotted name the README gives resolves.

No linter ships with the test dependencies, so these are small stdlib
`ast` checks.  A name bound by an import must be read somewhere in its
module; `__init__.py` re-exports by importing, and `from __future__`
imports are directives, so both are left out.  No package module but
forked.py may call os.fork, reach the OpenBLAS thread control or read a
private name of forked: the policy of who forks lives in one place.
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


# os.fork, a private name of forked, or an OpenBLAS thread-control name
FORKING = re.compile(r"(^|\.)os\.fork$|(^|\.)forked\._|openblas|num_threads",
                     re.I)


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
              "    start(job).send(forked.END)\n")
    assert forking_names(source) == [
        ("crowdflow.forked._usable_cpus", 3),
        ("forked._openblas_threads", 6),
        ("lib.openblas_set_num_threads", 7), ("os.fork", 4), ("os.fork", 5)]


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


README_NAMES = readme_names((ROOT / "README.md").read_text())


@pytest.mark.parametrize("dotted", README_NAMES)
def test_readme_name_resolves(dotted):
    resolve(dotted)


def test_readme_names_found_and_checked():
    assert "crowdflow.analysis.RunningEnvelope" in README_NAMES
    assert readme_names("`crowdflow.grid.norms(x)`, crowdflow.cli.") \
        == ["crowdflow.cli", "crowdflow.grid.norms"]
    with pytest.raises(AttributeError):
        resolve("crowdflow.analysis.no_such_name")
    with pytest.raises(ModuleNotFoundError):
        resolve("crowdflow.invariance")
