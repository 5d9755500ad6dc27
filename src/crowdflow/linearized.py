"""Linearized semigroup of the differentiable model and cost functionals.

The directional derivative of the solution map is obtained by evolving a
(signed) perturbation with the formally linearized flux in lockstep with
the nonlinear run: each linearized step takes the base step's dt, its
pre-step state and its advection field, through the same split
Lax-Friedrichs sweep and boundary rule, so that exact cancellations
survive discretization.  Only the current base state is held, never the
whole run.

gateaux_residual checks that derivative against replays of perturbed
data on the base run's dt sequence.  Where it can, it forks its replay
workers before the base run and streams each base dt to them as it is
taken, so the replays advance beside the base and linearized solve
rather than after it.  That solve costs about two replays, so of the H
replays shared among P processes the caller takes the first
max(0, ceil((H + 2) / P) - 2), after its solve, and P - 1 workers take
the rest in contiguous chunks.  An end marker closes each stream.  A
stream that ends without it means the caller is gone: the worker then
exits at once, without stepping on or writing a result.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import pickle
import struct
import sys
import warnings
from dataclasses import dataclass, replace
from typing import BinaryIO, Callable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import ConfigurationError, UnsupportedModelError
from .grid import PopulationField, has_live_cell, make_grid
from .kernel import bump_kernel, sample_kernel
from .solver import (DIFFERENTIABLE, ModelSpec, RunResult, StepReport,
                     _face_buffers, _linear_flux, _sweep_xy, _velocity_field,
                     run, split_step)
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
                     sigma0: PopulationField, t: float, *,
                     on_step: Callable[[StepReport], None] | None = None,
                     ) -> tuple[RunResult, PopulationField]:
    """Run the model from rho0 to time t and evolve sigma0 beside it.

    Returns the base run and Sigma_t sigma0.  Each step of the
    linearized system is taken with the base step's dt, frozen at the
    base state before that step, and reuses the speed argument the base
    step computed for its field.  on_step(report), where given, receives
    each base step's report as soon as the step is taken, before its
    linearized step.  A negative t raises ConfigurationError, and a
    population that sigma0 moves but rho0 leaves empty raises
    UnsupportedModelError: the base run's dt does not cover it.
    """
    _require_linearizable(model, rho0, sigma0)
    sigma, before, arg = sigma0.copy(), rho0, None
    faces = _face_buffers(model.grid)

    def field(state, model):
        nonlocal arg
        arg = clamped_speed_arg(smoothed_total_density(state, model.kernels))
        return _velocity_field(arg, model)

    def advance(report, state, W):
        nonlocal sigma, before
        if on_step is not None:
            on_step(report)
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


# The base and linearized solve costs about two replays, and counts as
# two in the split of the work: 0.37-0.49 against 0.17-0.20 s at 256x256
# on one BLAS thread (2-vCPU VM, numpy 2.4.6, OpenBLAS).
_SOLVE_IN_REPLAYS = 2
_END = struct.pack("d", -1.0)  # closes a dt stream: no dt is negative


def gateaux_residual(model: ModelSpec, rho0: PopulationField,
                     sigma0: PopulationField, t: float,
                     hs: Sequence[float]) -> list[float]:
    """L1 defect of the first-order expansion at each step h in hs.

    r(h) = || S_t(rho0 + h sigma0) - S_t rho0 - h Sigma_t sigma0 ||_L1.
    The base run and Sigma_t sigma0 do not depend on h and are computed
    once; each perturbed datum is then advanced with the base run's dt
    sequence.  Where os.fork, OpenBLAS thread control and a second
    usable CPU exist, P = min(len(hs) + 1, CPUs) processes share the
    work, each running BLAS on CPUs // P threads (never more than
    before).  P - 1 workers, forked before the solve, take all but the
    first max(0, ceil((len(hs) + 2) / P) - 2) replays in contiguous
    chunks: each advances its chunk side by side, one split_step per
    base dt written to its pipe, and after the end marker receives the
    base run's final state and Sigma_t sigma0 and sends back only its
    floats.  The caller replays the first ones after its solve.  The
    result is that of the one-h-at-a-time loop, bit for bit; so are the
    warnings, which each worker records and the caller re-issues through
    its own filters and registries.  A worker's error is raised here
    with its type and message, at the caller's next write to it or when
    its result is read.  An error here kills and reaps every worker, and
    a worker whose caller is gone exits at once, so none outlives the
    call.
    """
    _require_linearizable(model, rho0, sigma0)
    check_steps(hs)
    hs = list(hs)

    def replay(chunk: list[float], dts, faces) -> list[PopulationField]:
        """rho0 + h sigma0 for each h in chunk, advanced side by side by
        one split_step per dt in dts, all sweeping with faces."""
        states = [PopulationField(rho0.grid, rho0.data + h * sigma0.data)
                  for h in chunk]
        for dt in dts:
            states = [split_step(s, model, dt, faces=faces)[0]
                      for s in states]
        return states

    def residual(h, state, rho_t, sigma_t) -> float:
        defect = state.data - rho_t - h * sigma_t
        return float(np.abs(defect).sum()) * rho0.grid.cell_area

    def one_at_a_time(chunk, base, sigma_t) -> list[float]:
        dts = [r.dt for r in base.reports]
        faces = _face_buffers(model.grid)  # shared by every replay
        return [residual(h, replay([h], dts, faces)[0], base.state.data,
                         sigma_t.data) for h in chunk]

    def work(chunk: list[float], stream: BinaryIO) -> list[float]:
        """A worker's job: its chunk in lockstep with the stream."""
        states = replay(chunk, _dts(stream), _face_buffers(model.grid))
        rho_t = _read_array(stream, rho0.data.shape)
        sigma_t = _read_array(stream, rho0.data.shape)
        return [residual(h, s, rho_t, sigma_t) for h, s in zip(chunk, states)]

    cpus = _usable_cpus()
    procs = min(len(hs) + 1, cpus)
    blas = _openblas_threads()
    if procs < 2 or blas is None or not hasattr(os, "fork"):
        return one_at_a_time(hs, *solve_linearized(model, rho0, sigma0, t))
    own = max(0, math.ceil((len(hs) + _SOLVE_IN_REPLAYS) / procs)
              - _SOLVE_IN_REPLAYS)
    cuts = [own + i * (len(hs) - own) // (procs - 1) for i in range(procs)]
    get, put = blas
    threads = get()
    workers: list[_Worker] = []
    put(min(threads, cpus // procs))
    try:
        for a, b in zip(cuts, cuts[1:]):
            workers.append(_Worker(functools.partial(work, hs[a:b]),
                                   workers))

        def stream(report):
            word = struct.pack("d", report.dt)
            for w in workers:
                w.send(word)

        base, sigma_t = solve_linearized(model, rho0, sigma0, t,
                                         on_step=stream)
        for w in workers:
            w.send(_END)
        out = one_at_a_time(hs[:own], base, sigma_t)
        for w in workers:
            w.send(np.ascontiguousarray(base.state.data))
            w.send(np.ascontiguousarray(sigma_t.data))
        for w in workers:
            out.extend(w.finish())
        return out
    finally:
        for w in workers:
            w.kill()
        put(threads)


def _dts(stream: BinaryIO) -> Iterator[float]:
    """The dts written to stream, up to the end marker."""
    while (word := _read(stream, len(_END))) != _END:
        yield struct.unpack("d", word)[0]


def _read_array(stream: BinaryIO, shape: tuple[int, ...]) -> np.ndarray:
    return np.frombuffer(_read(stream, 8 * math.prod(shape))).reshape(shape)


def _read(stream: BinaryIO, n: int) -> bytes:
    data = stream.read(n)
    if len(data) < n:
        raise _CallerGone
    return data


class _CallerGone(BaseException):
    """A worker's stream ended before the end marker or the arrays after
    it: the caller is gone.  A BaseException, so that no handler of the
    job's errors sends it back."""


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


class _Worker:
    """A forked process that runs job(stream) on what the caller writes
    to it with send() and sends back the floats job returns.

    The worker records its warnings.  finish() re-issues them here and
    returns its floats, or raises the exception it stopped at, or
    RuntimeError if it ended without a result; send() does the same
    once the worker has closed its end.  The worker closes every pipe
    end it inherited from earlier workers, so each stream ends with the
    caller, and leaves through os._exit: with status 1 and nothing
    written if sending its reply fails or its stream ends early.
    """

    def __init__(self, job: Callable[[BinaryIO], list[float]],
                 earlier: list[_Worker]):
        rfd, self._fd = os.pipe()          # caller -> worker
        self._reply, wfd = os.pipe()       # worker -> caller
        inherited = [self._fd, self._reply,
                     *(fd for w in earlier for fd in (w._fd, w._reply))]
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (rfd, self._fd, self._reply, wfd):
                os.close(fd)
            raise
        if self.pid == 0:
            _serve(job, rfd, wfd, inherited)
        os.close(rfd)
        os.close(wfd)

    def send(self, data) -> None:
        """Write bytes, or a C-contiguous array's bytes, to the stream."""
        view = memoryview(data).cast("B")
        try:
            while view:
                view = view[os.write(self._fd, view):]
        except BrokenPipeError:
            self.finish()  # raises what stopped the worker
            raise

    def finish(self) -> list[float]:
        """Wait for the worker and reap it: its floats, or its error."""
        os.close(self._fd)
        self._fd = None
        with open(self._reply, "rb") as fh:
            self._reply = None
            reply = fh.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        if not reply:
            raise RuntimeError(f"replay worker ended with wait status "
                               f"{status} and no result")
        ok, value, warned = pickle.loads(reply)
        _reissue(warned)
        if not ok:
            raise value
        return value

    def kill(self) -> None:
        """Close what finish() has not, and kill and reap the worker
        unless finish() has reaped it."""
        for fd in (self._fd, self._reply):
            if fd is not None:
                os.close(fd)
        if self.pid:
            import signal  # here: at import time it cost 1.2 ms of set-up
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def _serve(job: Callable[[BinaryIO], list[float]], rfd: int, wfd: int,
           inherited: list[int]) -> NoReturn:
    """A worker's whole life: run job on the stream read from rfd, then
    write the pickled (True, floats, warnings) or (False, exception,
    warnings) to wfd.  The stream is closed first, so a caller still
    writing to it stops at once."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with warnings.catch_warnings(record=True) as caught:
            with open(rfd, "rb") as stream:
                try:
                    reply = (True, job(stream))
                except Exception as exc:
                    reply = (False, exc)
        warned = [(w.message, w.category, w.filename, w.lineno)
                  for w in caught]
        with open(wfd, "wb") as fh:
            fh.write(pickle.dumps(reply + (warned,)))
        code = 0
    finally:
        os._exit(code)


def _reissue(warned: list[tuple]) -> None:
    """Issue warnings a worker recorded as if they arose here, so that
    this process's filters and once-per-site registries decide which
    show: a warning the caller or an earlier worker already showed at
    the same site stays silent, as in the one-h-at-a-time loop."""
    if not warned:
        return
    files = {getattr(m, "__file__", None): m
             for m in list(sys.modules.values())}
    for message, category, filename, lineno in warned:
        module = files.get(filename)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
            continue
        globs = vars(module)
        warnings.warn_explicit(
            message, category, filename, lineno, module=module.__name__,
            registry=globs.setdefault("__warningregistry__", {}),
            module_globals=globs)



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


def _require_linearizable(model: ModelSpec, rho0: PopulationField,
                          sigma0: PopulationField) -> None:
    """Raise UnsupportedModelError unless the model is differentiable and
    every population that sigma0 moves has a live cell in rho0.

    The base run's dt covers only the populations it sweeps (cfl_dt), and
    an empty population stays empty; sigma_i's sweep, and the replays of
    rho0 + h sigma0, move population i at its own speed."""
    if model.family != DIFFERENTIABLE:
        raise UnsupportedModelError(
            "linearization is only available for the differentiable family")
    for i in range(model.n):
        if has_live_cell(sigma0.data[i]) and not has_live_cell(rho0.data[i]):
            raise UnsupportedModelError(
                f"population {i} is empty in rho0 but not in sigma0: the "
                f"base run's time step does not cover its sweep")
