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

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, UnsupportedModelError
from .grid import PopulationField, make_grid
from .kernel import bump_kernel, sample_kernel
from .solver import (DIFFERENTIABLE, ModelSpec, RunResult, _linear_flux,
                     _sweep_xy, run, split_step)
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
                     ) -> PopulationField:
    """One split LxF step of the linearized system with frozen rho.

    W is rho's advection field v_i(arg) dir_i, arg the total smoothed
    density of rho.  The flux of sigma_i is sigma_i W_i plus the
    sigma-independent rho_i v_i'(arg) (sigma conv) dir_i: a linear flux
    with an additive part, through the base step's sweep.
    """
    arg = clamped_speed_arg(smoothed_total_density(rho, model.kernels))
    sconv = smoothed_total_density(sigma, model.kernels)
    new = np.empty_like(sigma.data)
    for i in range(model.n):
        e = ((rho.data[i] * model.laws[i].dv(arg) * sconv)[None, :, :]
             * model.dirs[i].total)
        new[i], _ = _sweep_xy(sigma.data[i], W[i], _linear_flux, model.grid,
                              dt, e)
    return PopulationField(model.grid, new)


def solve_linearized(model: ModelSpec, rho0: PopulationField,
                     sigma0: PopulationField,
                     t: float) -> tuple[RunResult, PopulationField]:
    """Run the model from rho0 to time t and evolve sigma0 beside it.

    Returns the base run and Sigma_t sigma0.  Each step of the
    linearized system is taken with the base step's dt, frozen at the
    base state before that step.  A negative t raises ConfigurationError.
    """
    _require_differentiable(model)
    sigma, before = sigma0.copy(), rho0

    def advance(report, state, W):
        nonlocal sigma, before
        sigma = _linearized_step(sigma, before, W, model, report.dt)
        before = state

    result = run(_until(model, t), rho0, on_step=advance)
    return result, sigma


def gateaux_residual(model: ModelSpec, rho0: PopulationField,
                     sigma0: PopulationField, t: float,
                     hs: Sequence[float]) -> list[float]:
    """L1 defect of the first-order expansion at each step h in hs.

    r(h) = || S_t(rho0 + h sigma0) - S_t rho0 - h Sigma_t sigma0 ||_L1.
    The base run and Sigma_t sigma0 do not depend on h and are computed
    once; each perturbed datum is then advanced, one h at a time, with
    the base run's dt sequence.
    """
    _require_differentiable(model)
    if not hs or not all(h > 0 for h in hs):
        raise ConfigurationError(f"need positive perturbation sizes, got {hs}")
    base, sigma_t = solve_linearized(model, rho0, sigma0, t)
    dts = [r.dt for r in base.reports]
    rs = []
    for h in hs:
        state = PopulationField(rho0.grid, rho0.data + h * sigma0.data)
        for dt in dts:
            state, _ = split_step(state, model, dt)
        defect = state.data - base.state.data - h * sigma_t.data
        rs.append(float(np.abs(defect).sum()) * rho0.grid.cell_area)
    return rs


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
