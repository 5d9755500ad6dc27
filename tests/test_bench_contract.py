"""The benchmark's expected spans still name, and reach, public functions.

`bench/run.py --trace 1` wraps every public function and public method
defined in the package and aborts when an expected span of a workload
records no calls.  A span resolves to the wrapped name itself or, when
the binding moved, to the one wrapped name with the same qualified name
in another module.  These tests apply that rule without running the
benchmark, so a rename, or a call path that no longer reaches a span,
fails here first.  The benchmark's other two child modes are guarded
the same way: `setup` must still print its JSON record, and the calls
that `micro` times must still take their positional arguments.
"""

import importlib
import inspect
import json
import os
import pkgutil
import runpy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crowdflow
from crowdflow import cli, kernel, solver
from crowdflow.config import preset
from crowdflow.grid import make_grid

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = BENCH / "workloads.py"
# Each workload's command on a coarse mesh and a short time
COARSE_ARGS = {
    "gateaux-fine": ["gateaux", "--mesh", "0.03125", "--tmax", "0.05"],
    "crossing-fine": ["run", "--preset", "crossing", "--mesh", "0.4",
                      "--tmax", "0.05"],
    "evacuation-io": ["bounds", "--preset", "evacuation", "--mesh", "0.4",
                      "--tmax", "0.05"],
}


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


@pytest.mark.parametrize("name", sorted(_workloads))
def test_expected_spans_called(name, tmp_path):
    # the benchmark's own tracer, in a fresh process as the benchmark runs it
    assert _workloads[name].command == COARSE_ARGS[name][0]
    spans_path = tmp_path / "spans.json"
    src = os.path.dirname(os.path.dirname(crowdflow.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "trace",
                           str(spans_path), *COARSE_ARGS[name],
                           "--out", str(tmp_path / "out")],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    trace = json.loads(spans_path.read_text())
    wrapped = set(trace["wrapped"])
    called = {span[0] for span in trace["spans"]}
    missing = [s for s in _workloads[name].expected_spans
               if _resolve(s, wrapped) not in called]
    assert not missing, f"{name}: no call recorded for {missing}"


@pytest.mark.parametrize("name", sorted(_workloads))
def test_setup_mode_reports_setup_time(name, tmp_path):
    # `setup_s` comes from `child.py setup` on the workload's command line
    src = os.path.dirname(os.path.dirname(crowdflow.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "setup",
                           *COARSE_ARGS[name]],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(proc.stdout)
    assert isinstance(record, dict)
    assert record["setup_s"] > 0


def test_micro_mode_calls_keep_their_signatures(tmp_path):
    # the public calls `child.py micro` times, with its positional arguments
    model, datum = preset("crossing").with_mesh(0.4).build()
    W = solver.advection_field(datum, model)
    dt = solver.cfl_dt(datum, W, model.laws, model.cfl)
    solver.split_step(datum, model, dt, W)
    state = solver.run(replace(model, t_max=0.1, snapshot_times=()),
                       datum).state
    paths = cli.write_snapshot(state, 0.1, str(tmp_path))
    assert len(paths) == model.n
    assert all(os.path.getsize(p) > 0 for p in paths)

    grid = make_grid((0.0, 0.0, 1.0, 1.0), 1 / 16, 1 / 16)
    k = kernel.sample_kernel(kernel.bump_kernel(0.25), grid)
    f = np.random.default_rng(0).random((grid.nx, grid.ny))
    assert kernel.convolve(f, k).shape == f.shape
    assert kernel.convolve_gradient(f, k).shape == (2, *f.shape)


def test_resolve_rule():
    wrapped = {"analysis.bound_inputs_for", "solver.run", "a.f", "b.f"}
    assert _resolve("solver.run", wrapped) == "solver.run"
    assert _resolve("cli.bound_inputs_for", wrapped) \
        == "analysis.bound_inputs_for"
    assert _resolve("c.f", wrapped) is None  # ambiguous
    assert _resolve("solver.gone", wrapped) is None
