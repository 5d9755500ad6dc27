"""Linearized semigroup of the differentiable model and cost functionals.

The directional derivative of the solution map is obtained by evolving a
(signed) perturbation with the formally linearized flux in lockstep with
the nonlinear run: each linearized step takes the base step's dt, its
pre-step state and its advection field, through the same split
Lax-Friedrichs sweep and boundary rule, so that exact cancellations
survive discretization.  Only the current base state is held, never the
whole run.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import pickle
from dataclasses import dataclass, replace
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .errors import ConfigurationError, UnsupportedModelError
from .grid import PopulationField, make_grid
from .kernel import bump_kernel, sample_kernel
from .solver import (DIFFERENTIABLE, ModelSpec, RunResult, _face_buffers,
                     _linear_flux, _sweep_xy, _velocity_field, run,
                     split_step)
from .velocity import (clamped_speed_arg, constant_direction,
                       linear_speed_law, smoothed_total_density)


@dataclass
class CostSpec:
    """Integral cost at time t: J = sum f(rho(t)) psi dx dy.

    f maps the (n, nx, ny) density stack to an (nx, ny) array; fprime
    returns its gradient with respect to each population, (n, nx, ny).
    psi is a scalar or an (nx, ny) weight array.
    """

    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    psi: np.ndarray | float
    t: float


def _linearized_step(sigma: PopulationField, rho: PopulationField,
                     W: np.ndarray, model: ModelSpec, dt: float,
                     arg: np.ndarray,
                     faces: tuple[np.ndarray, np.ndarray] = (None, None),
                     ) -> PopulationField:
    """One split LxF step of the linearized system with frozen rho.

    arg is the clamped total smoothed density of rho, the speed argument
    the base step used, and W its field v_i(arg) dir_i.  The flux of
    sigma_i is sigma_i W_i plus the sigma-independent rho_i v_i'(arg)
    (sigma conv) dir_i: a linear flux with an additive part, through the
    base step's sweep.  Only sigma is smoothed; the additive part of
    each population is built in one (2, nx, ny) buffer, and faces are
    face-flux buffers for the sweeps (_face_buffers), as in split_step.
    """
    sconv = smoothed_total_density(sigma, model.kernels)
    new = np.zeros_like(sigma.data)
    e = np.empty((2, model.grid.nx, model.grid.ny))
    for i in range(model.n):
        # e_k = ((rho_i v_i'(arg)) sconv) dir_i[k]; this order fixes e's bits
        s = np.multiply(rho.data[i], model.laws[i].dv(arg), out=e[0])
        s *= sconv
        np.multiply(s, model.dirs[i].total[1], out=e[1])
        s *= model.dirs[i].total[0]
        _sweep_xy(sigma.data[i], W[i], _linear_flux, model.grid, dt, new[i],
                  e, faces)
    return PopulationField(model.grid, new)


def solve_linearized(model: ModelSpec, rho0: PopulationField,
                     sigma0: PopulationField,
                     t: float) -> tuple[RunResult, PopulationField]:
    """Run the model from rho0 to time t and evolve sigma0 beside it.

    Returns the base run and Sigma_t sigma0.  Each step of the
    linearized system is taken with the base step's dt, frozen at the
    base state before that step, and reuses the speed argument the base
    step computed for its field.  A negative t raises ConfigurationError.
    """
    _require_differentiable(model)
    sigma, before, arg = sigma0.copy(), rho0, None
    faces = _face_buffers(model.grid)

    def field(state, model):
        nonlocal arg
        arg = clamped_speed_arg(smoothed_total_density(state, model.kernels))
        return _velocity_field(arg, model)

    def advance(report, state, W):
        nonlocal sigma, before
        sigma = _linearized_step(sigma, before, W, model, report.dt, arg,
                                 faces)
        before = state

    result = run(_until(model, t), rho0, on_step=advance, field=field)
    return result, sigma


def check_steps(hs: Sequence[float]) -> None:
    """Raise ConfigurationError unless hs is a nonempty list of finite
    positive perturbation sizes."""
    if not hs or not all(0 < h < math.inf for h in hs):
        raise ConfigurationError(
            f"need finite positive perturbation sizes, got {hs}")


def gateaux_residual(model: ModelSpec, rho0: PopulationField,
                     sigma0: PopulationField, t: float,
                     hs: Sequence[float]) -> list[float]:
    """L1 defect of the first-order expansion at each step h in hs.

    r(h) = || S_t(rho0 + h sigma0) - S_t rho0 - h Sigma_t sigma0 ||_L1.
    The base run and Sigma_t sigma0 do not depend on h and are computed
    once; each perturbed datum is then advanced with the base run's dt
    sequence.  Those replays go through _map_forked, which runs them in
    forked processes where it can; the result is the same, bit for bit.
    """
    _require_differentiable(model)
    check_steps(hs)
    base, sigma_t = solve_linearized(model, rho0, sigma0, t)
    dts = [r.dt for r in base.reports]
    faces = _face_buffers(model.grid)  # shared by every replay

    def replay(h):
        state = PopulationField(rho0.grid, rho0.data + h * sigma0.data)
        for dt in dts:
            state, _ = split_step(state, model, dt, faces=faces)
        defect = state.data - base.state.data - h * sigma_t.data
        return float(np.abs(defect).sum()) * rho0.grid.cell_area

    return _map_forked(replay, list(hs))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or
    None where no such library (or no /proc/self/maps) is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, (ctypes.c_int,)
                return get, put
    return None


def _map_forked(fn: Callable[[float], float],
                items: list[float]) -> list[float]:
    """[fn(x) for x in items], with the items split among processes.

    items is cut into min(len(items), usable CPUs) contiguous chunks:
    this process maps the first, and a forked worker maps each other
    one and sends back only its floats, or the exception it stopped at,
    which is raised here.  For the length of the map every process runs
    OpenBLAS with cpus // processes threads, never more than before:
    two BLAS threads in each of two processes ran several times slower
    than one chunk after the other.  No worker outlives the call: an
    error here kills and reaps them.  The plain loop runs where there is
    one chunk, or no os.fork or OpenBLAS thread control.
    """
    cpus = _usable_cpus()
    procs = min(len(items), cpus)
    blas = _openblas_threads()
    if procs < 2 or blas is None or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    import signal  # here: at import time it cost 1.2 ms of set-up
    cuts = [i * len(items) // procs for i in range(procs + 1)]
    chunks = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    get, put = blas
    threads = get()
    workers = []  # (pid, read end of its pipe), not yet reaped
    put(min(threads, cpus // procs))
    try:
        for chunk in chunks[1:]:
            workers.append(_fork_worker(fn, chunk))
        out = [fn(x) for x in chunks[0]]
        while workers:
            pid, pipe = workers[0]
            reply = pipe.read()
            pipe.close()
            workers.pop(0)
            _, status = os.waitpid(pid, 0)
            if not reply:
                raise RuntimeError(f"replay worker ended with wait status "
                                   f"{status} and no result")
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            out.extend(value)
        return out
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        put(threads)


def _fork_worker(fn: Callable[[float], float],
                 chunk: list[float]) -> tuple[int, BinaryIO]:
    """Fork a process that maps fn over chunk, writes the pickled
    (True, floats) or (False, exception) to a pipe and leaves through
    os._exit, with status 1 and nothing written if that fails; returns
    its pid and the pipe's read end."""
    fd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(fd)
            try:
                reply = (True, [fn(x) for x in chunk])
            except Exception as exc:
                reply = (False, exc)
            with os.fdopen(wfd, "wb") as fh:
                fh.write(pickle.dumps(reply))
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, os.fdopen(fd, "rb")


def _until(model: ModelSpec, t: float) -> ModelSpec:
    if abs(t - model.t_max) <= 1e-12:
        return model
    return replace(model, t_max=t, snapshot_times=())


def cost_and_gradient(model: ModelSpec, rho0: PopulationField,
                      cost: CostSpec,
                      sigma0: PopulationField) -> tuple[float, float]:
    """The cost J of the run from rho0 and its derivative along sigma0.

    Runs the model to cost.t beside the linearized system; a negative
    cost.t raises ConfigurationError.
    """
    base, sigma_t = solve_linearized(model, rho0, sigma0, cost.t)
    rho_t = base.state
    area = model.grid.cell_area
    psi = np.asarray(cost.psi)
    fval = cost.f(rho_t.data)
    if not np.all(np.isfinite(fval)):
        raise ConfigurationError("cost integrand not finite on attained range")
    J = float((fval * psi).sum()) * area
    fp = cost.fprime(rho_t.data)
    if not np.all(np.isfinite(fp)):
        raise ConfigurationError("cost derivative not finite on attained range")
    DJ = float((fp * sigma_t.data * psi).sum()) * area
    return J, DJ


def gateaux_benchmark(mesh: float = 1.0 / 64.0, t_max: float = 0.2,
                      ) -> tuple[ModelSpec, PopulationField, PopulationField]:
    """Smooth two-population differentiable setup on the unit square.

    Returns (model, rho0, sigma0): the model, the datum and the
    perturbation direction the `crowdflow gateaux` command sweeps.
    sigma0's negative hump lies inside rho0's second hump, so the
    perturbed data rho0 + h sigma0 stay nonnegative for h <= 2 and the
    residual never meets the speed-argument clamp.
    """
    grid = make_grid((0.0, 0.0, 1.0, 1.0), mesh, mesh)
    kern = sample_kernel(bump_kernel(0.25), grid)
    laws = (linear_speed_law(1.0, 1.0), linear_speed_law(1.0, 1.0))
    dirs = (constant_direction(grid, 1.0, 0.0, 0.0, restrict_to_room=False),
            constant_direction(grid, 0.0, 1.0, 0.0, restrict_to_room=False))
    model = ModelSpec(family=DIFFERENTIABLE, grid=grid, laws=laws, dirs=dirs,
                      kernels=(kern, kern), t_max=t_max)
    X = grid.xc[:, None]
    Y = grid.yc[None, :]

    def hump(cx, cy, r, amp):
        d2 = ((X - cx) ** 2 + (Y - cy) ** 2) / r ** 2
        return amp * np.where(d2 < 1, np.cos(0.5 * np.pi * np.sqrt(d2)) ** 2,
                              0.0)

    rho0 = PopulationField.from_arrays(grid, hump(0.35, 0.5, 0.25, 0.4),
                                       hump(0.6, 0.4, 0.2, 0.3))
    sigma0 = PopulationField.from_arrays(grid, hump(0.45, 0.55, 0.3, 0.2),
                                         hump(0.6, 0.4, 0.2, -0.15))
    return model, rho0, sigma0


def _require_differentiable(model: ModelSpec) -> None:
    if model.family != DIFFERENTIABLE:
        raise UnsupportedModelError(
            "linearization is only available for the differentiable family")
