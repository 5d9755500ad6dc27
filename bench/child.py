"""Code the benchmark runs in fresh child processes.

    python3 bench/child.py setup  <crowdflow args...>
    python3 bench/child.py trace  <spans.json> <crowdflow args...>
    python3 bench/child.py micro  <work dir>

`setup` times importing crowdflow, loading the configuration and building
the model and datum, then prints one JSON object with that time and the
machine record.  `trace` wraps the public functions of every crowdflow
module at every name they are looked up by, runs the CLI, and writes the
recorded spans.  `micro` prints warm single-call timings as JSON.  The
parent sets PYTHONPATH and the BLAS thread variables before numpy loads.
"""

import time

_T0 = time.perf_counter()   # before crowdflow (and numpy) is imported

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


# ---------------------------------------------------------------------------
# setup


def setup_main(argv: list[str]) -> None:
    from crowdflow import cli
    args = cli.build_parser().parse_args(argv)
    if args.command == "gateaux":
        _gateaux_model(args.mesh)
    else:
        cli.load_config(args).build()
    setup_s = time.perf_counter() - _T0
    print(json.dumps({"setup_s": setup_s, "machine": machine_record()}))


def _gateaux_model(mesh: float) -> None:
    # The model `crowdflow gateaux` builds, through public names only; its
    # datum is two elementwise humps and is left out.
    from crowdflow import (DIFFERENTIABLE, ModelSpec, bump_kernel,
                           constant_direction, linear_speed_law, make_grid,
                           sample_kernel)
    grid = make_grid((0.0, 0.0, 1.0, 1.0), mesh, mesh)
    kern = sample_kernel(bump_kernel(0.25), grid)
    law = linear_speed_law(1.0, 1.0)
    ModelSpec(family=DIFFERENTIABLE, grid=grid, laws=(law, law),
              dirs=(constant_direction(grid, 1.0, 0.0, 0.0,
                                       restrict_to_room=False),
                    constant_direction(grid, 0.0, 1.0, 0.0,
                                       restrict_to_room=False)),
              kernels=(kern, kern), t_max=0.2)


def machine_record() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "cpu": platform.processor() or platform.machine()}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# trace


class Tracer:
    """Spans (name, start, end, parent index) kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.wrapped: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        self.wrapped.append(name)
        return traced

    def install(self, package: str = "crowdflow") -> None:
        """Wrap every public function and public method defined in the
        package, and rebind each module-level name that refers to one."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == package or n.startswith(package + ".")]
        replace = {}
        for mod in mods:
            short = mod.__name__[len(package) + 1:] or package
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{short}.{name}", obj)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replace:
                    setattr(mod, name, replace[id(obj)])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self.wrap(f"{prefix}.{name}",
                                               attr.__func__))
            elif inspect.isfunction(attr) and \
                    attr.__qualname__ == f"{cls.__qualname__}.{name}":
                wrapped = self.wrap(f"{prefix}.{name}", attr)
            else:
                continue
            setattr(cls, name, wrapped)


def trace_main(out_path: str, argv: list[str]) -> None:
    from crowdflow import cli
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"wrapped": tracer.wrapped, "spans": tracer.spans}, fh)
    sys.exit(code)


# ---------------------------------------------------------------------------
# micro


def steady_ms(fn, warm_s: float = 1.0, window_s: float = 0.25,
              window_calls: int = 5,
              limit_s: float = 4.0) -> tuple[float, bool]:
    """Median call time once two consecutive windows agree within 5%.

    Windows start after warm_s of calls, because a fresh process can sit
    on a flat plateau several times slower than steady state for most of
    a second.  Returns (median ms of the two agreeing windows, steady).
    """
    start = time.perf_counter()
    prev: list[float] = []
    while True:
        win: list[float] = []
        w0 = time.perf_counter()
        while len(win) < window_calls or time.perf_counter() - w0 < window_s:
            t0 = time.perf_counter()
            fn()
            win.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed >= warm_s and prev:
            a, b = statistics.median(prev), statistics.median(win)
            if abs(b - a) <= 0.05 * a:
                return statistics.median(prev + win) * 1e3, True
            if elapsed > limit_s:
                return statistics.median(prev + win) * 1e3, False
        if elapsed >= warm_s:
            prev = win


def _pair_gflop(nx: int, ny: int) -> float:
    """Dense-equivalent flops of one A @ F @ B product pair, in GFLOP."""
    return (2 * nx * nx * ny + 2 * nx * ny * ny) / 1e9


def micro_main(work_dir: str) -> None:
    import numpy as np
    from dataclasses import replace
    from crowdflow import cli, kernel, solver
    from crowdflow.config import preset
    from crowdflow.grid import make_grid

    single = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    sfx = ".1t" if single else ""
    rng = np.random.default_rng(0)
    out: dict[str, float] = {}
    unsteady: list[str] = []

    def record(name, fn):
        ms, steady = steady_ms(fn)
        out[name] = ms
        if not steady:
            unsteady.append(name)
        return ms

    for mesh in (0.05, 0.025, 0.0125):
        grid = make_grid((-8.0, -4.0, 8.0, 4.0), mesh, mesh)
        k = kernel.sample_kernel(kernel.bump_kernel(0.5), grid)
        f = rng.random((grid.nx, grid.ny))
        size = f"{grid.nx}x{grid.ny}"
        ms = record(f"kernel.convolve_gradient.ms.{size}{sfx}",
                    lambda: kernel.convolve_gradient(f, k))
        gflop = 2 * _pair_gflop(grid.nx, grid.ny)
        out[f"kernel.convolve_gradient.gflop.{size}"] = gflop
        out[f"kernel.convolve_gradient.gflops.{size}{sfx}"] = gflop / ms * 1e3

    grid = make_grid((0.0, 0.0, 1.0, 1.0), 1 / 256, 1 / 256)
    k = kernel.sample_kernel(kernel.bump_kernel(0.25), grid)
    f = rng.random((grid.nx, grid.ny))
    size = f"{grid.nx}x{grid.ny}"
    ms = record(f"kernel.convolve.ms.{size}{sfx}",
                lambda: kernel.convolve(f, k))
    gflop = _pair_gflop(grid.nx, grid.ny)
    out[f"kernel.convolve.gflop.{size}"] = gflop
    out[f"kernel.convolve.gflops.{size}{sfx}"] = gflop / ms * 1e3

    if not single:
        model, datum = preset("crossing").build()       # 640x320
        size = f"{model.grid.nx}x{model.grid.ny}"
        W = solver.advection_field(datum, model)
        dt = solver.cfl_dt(datum, W, model.laws, model.cfl)
        record(f"solver.split_step.ms.{size}",
               lambda: solver.split_step(datum, model, dt, W))
        record(f"solver.cfl_dt.ms.{size}",
               lambda: solver.cfl_dt(datum, W, model.laws, model.cfl))

        model, datum = preset("evacuation").with_mesh(0.05).build()
        size = f"{model.grid.nx}x{model.grid.ny}"
        state = solver.run(replace(model, t_max=0.1, snapshot_times=()),
                           datum).state
        paths = cli.write_snapshot(state, 0.1, work_dir)
        mb = sum(os.path.getsize(p) for p in paths) / 1e6
        ms = record(f"cli.write_snapshot.ms.{size}",
                    lambda: cli.write_snapshot(state, 0.1, work_dir))
        out[f"cli.write_snapshot.mb.{size}"] = mb
        out[f"cli.write_snapshot.mb_per_s.{size}"] = mb / ms * 1e3

    print(json.dumps({"metrics": out, "unsteady": unsteady,
                      "machine": machine_record()}))


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup_main(rest)
    elif mode == "trace":
        trace_main(rest[0], rest[1:])
    elif mode == "micro":
        micro_main(rest[0])
    else:
        sys.exit(f"unknown mode {mode!r}")
