"""The benchmark's expected spans still name public crowdflow functions.

`bench/run.py --trace 1` wraps every public function and public method
defined in the package and aborts when an expected span of a workload
records no calls.  A span resolves to the wrapped name itself or, when
the binding moved, to the one wrapped name with the same qualified name
in another module.  This test applies that rule without running the
benchmark, so a rename fails here first.
"""

import importlib
import inspect
import pkgutil
import runpy
from pathlib import Path

import pytest

import crowdflow

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _wrapped_names() -> set[str]:
    """Span names the benchmark's tracer gives the package's public
    functions and methods: <module>.<function>, <module>.<Class>.<method>."""
    names = set()
    for info in pkgutil.iter_modules(crowdflow.__path__):
        mod = importlib.import_module(f"crowdflow.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj):
                names.add(f"{info.name}.{name}")
            elif inspect.isclass(obj):
                for meth, attr in vars(obj).items():
                    if meth.startswith("_"):
                        continue
                    if isinstance(attr, (classmethod, staticmethod)) or (
                            inspect.isfunction(attr) and attr.__qualname__
                            == f"{obj.__qualname__}.{meth}"):
                        names.add(f"{info.name}.{name}.{meth}")
    return names


def _resolve(span: str, wrapped: set[str]) -> str | None:
    if span in wrapped:
        return span
    qual = span.split(".", 1)[1]
    moved = [n for n in wrapped if n.split(".", 1)[1] == qual]
    return moved[0] if len(moved) == 1 else None


# run_path compiles the file without writing bytecode next to it
_workloads = runpy.run_path(str(WORKLOADS))["WORKLOADS"]


@pytest.mark.parametrize("name", sorted(_workloads))
def test_expected_spans_resolve(name):
    wrapped = _wrapped_names()
    spans = _workloads[name].expected_spans
    assert spans
    missing = [s for s in spans if _resolve(s, wrapped) is None]
    assert not missing, f"{name}: no public function for {missing}"


def test_resolve_rule():
    wrapped = {"analysis.bound_inputs_for", "solver.run", "a.f", "b.f"}
    assert _resolve("solver.run", wrapped) == "solver.run"
    assert _resolve("cli.bound_inputs_for", wrapped) \
        == "analysis.bound_inputs_for"
    assert _resolve("c.f", wrapped) is None  # ambiguous
    assert _resolve("solver.gone", wrapped) is None
