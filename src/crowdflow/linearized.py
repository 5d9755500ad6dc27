"""Linearized semigroup of the differentiable model and cost functionals.

The directional derivative of the solution map is obtained by evolving a
(signed) perturbation with the formally linearized flux in lockstep with
the nonlinear run: each linearized step takes the base step's dt, its
pre-step state and its advection field, through the same split
Lax-Friedrichs sweep and boundary rule, so that exact cancellations
survive discretization.  Only the current base state is held, never the
whole run.

gateaux_residual checks that derivative against replays of perturbed
data on the base run's dt sequence, shared among the processes of a
forked.sharing scope.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import forked
from .errors import ConfigurationError, UnsupportedModelError
from .grid import PopulationField, has_live_cell, make_grid
from .kernel import bump_kernel, sample_kernel
from .solver import (DIFFERENTIABLE, TIME_TOL, ModelSpec, RunResult,
                     StepReport, _face_buffers, _linear_flux, _sweep_xy,
                     _velocity_field, run, split_step)
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
    Where rho_i is +0.0 the additive part is +0.0 too, so that the sweep
    runs on the live box of rho_i and sigma_i (_sweep_xy's window).
    """
    sconv = smoothed_total_density(sigma, model.kernels)
    new = np.zeros_like(sigma.data)
    e = np.empty((2, model.grid.nx, model.grid.ny))
    for i in range(model.n):
        # e_k = ((rho_i v_i'(arg)) sconv) dir_i[k]; this order fixes e's bits
        s = np.multiply(rho.data[i], model.laws[i].dv(arg), out=e[0])
        s *= sconv
        np.multiply(s, model.dirs[i][1], out=e[1])
        s *= model.dirs[i][0]
        e += 0.0  # v' < 0 made -0.0 where rho_i is +0.0: -0.0 is live
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


def gateaux_residual(model: ModelSpec, rho0: PopulationField,
                     sigma0: PopulationField, t: float,
                     hs: Sequence[float]) -> list[float]:
    """L1 defect of the first-order expansion at each step h in hs.

    r(h) = || S_t(rho0 + h sigma0) - S_t rho0 - h Sigma_t sigma0 ||_L1.
    The base run and Sigma_t sigma0 do not depend on h and are computed
    once; each perturbed datum is then advanced with the base run's dt
    sequence.  P processes of a forked.sharing(len(hs) + 1) scope share
    the replays: the caller takes the first
    max(0, ceil((len(hs) + 2) / P) - 2), after its solve, and P - 1
    workers, forked before the solve, the rest in contiguous chunks.
    Each worker advances its chunk side by side, one split_step per base
    dt posted to it as a one-float array, and after the empty array that
    ends them receives the base run's final state and Sigma_t sigma0 and
    posts its chunk's residuals as one array.
    With P = 1 the caller replays every h.  The result is that of the
    one-h-at-a-time loop, bit for bit, for every P; so are the warnings,
    which each worker records and the caller re-issues through its own
    filters and registries.  A worker's error is raised here with its
    type and message, at the caller's next write to it or when its
    result is read.
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

    def work(chunk: list[float], channel: forked.Channel) -> None:
        """A worker's job: its chunk in lockstep with the posted dts."""
        def dts():
            while (dt := channel.receive()).size:
                yield float(dt[0])

        states = replay(chunk, dts(), _face_buffers(model.grid))
        rho_t, sigma_t = (channel.receive().reshape(rho0.data.shape)
                          for _ in range(2))
        channel.post(np.array([residual(h, s, rho_t, sigma_t)
                               for h, s in zip(chunk, states)]))

    with forked.sharing(len(hs) + 1) as (procs, start):
        own = max(0, math.ceil((len(hs) + _SOLVE_IN_REPLAYS) / procs)
                  - _SOLVE_IN_REPLAYS)
        cuts = [own + i * (len(hs) - own) // max(1, procs - 1)
                for i in range(procs)]
        workers = [start(functools.partial(work, hs[a:b]))
                   for a, b in zip(cuts, cuts[1:])]

        def post_dt(report):
            for w in workers:
                w.post(np.array([report.dt]))

        base, sigma_t = solve_linearized(model, rho0, sigma0, t,
                                         on_step=post_dt)
        for w in workers:
            w.post(np.empty(0))
        dts = [r.dt for r in base.reports]
        faces = _face_buffers(model.grid)  # shared by the caller's replays
        out = [residual(h, replay([h], dts, faces)[0], base.state.data,
                        sigma_t.data) for h in hs[:own]]
        for w in workers:
            w.post(base.state.data)
            w.post(sigma_t.data)
        for w in workers:
            out.extend(w.receive().tolist())
            w.finish()
        return out


def _until(model: ModelSpec, t: float) -> ModelSpec:
    if abs(t - model.t_max) <= TIME_TOL:
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
        # +0.0 outside, whatever amp's sign: -0.0 would be a live cell
        return np.where(d2 < 1, amp * np.cos(0.5 * np.pi * np.sqrt(d2)) ** 2,
                        0.0)

    rho0 = PopulationField.from_arrays(grid, hump(0.35, 0.5, 0.25, 0.4),
                                       hump(0.6, 0.4, 0.2, 0.3))
    sigma0 = PopulationField.from_arrays(grid, hump(0.45, 0.55, 0.3, 0.2),
                                         hump(0.6, 0.4, 0.2, -0.15))
    return model, rho0, sigma0


def _require_linearizable(model: ModelSpec, rho0: PopulationField,
                          sigma0: PopulationField) -> None:
    """Raise UnsupportedModelError unless the model is differentiable,
    ConfigurationError unless sigma0 is finite, and UnsupportedModelError
    unless every population that sigma0 moves has a live cell in rho0.

    The base run's dt covers only the populations it sweeps (cfl_dt), and
    an empty population stays empty; sigma_i's sweep, and the replays of
    rho0 + h sigma0, move population i at its own speed."""
    if model.family != DIFFERENTIABLE:
        raise UnsupportedModelError(
            "linearization is only available for the differentiable family")
    if not np.isfinite(sigma0.data).all():
        raise ConfigurationError("sigma0 has a non-finite cell")
    for i in range(model.n):
        if has_live_cell(sigma0.data[i]) and not has_live_cell(rho0.data[i]):
            raise UnsupportedModelError(
                f"population {i} is empty in rho0 but not in sigma0: the "
                f"base run's time step does not cover its sweep")
