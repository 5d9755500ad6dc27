"""Linearized semigroup of the differentiable model and cost functionals.

The directional derivative of the solution map is obtained by evolving a
(signed) perturbation with the formally linearized flux along a stored
trajectory of the nonlinear run, using the same split Lax-Friedrichs
scheme and the recorded time-step sequence so that exact cancellations
survive discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, UnsupportedModelError
from .grid import PopulationField, make_grid
from .kernel import bump_kernel, sample_kernel
from .solver import (DIFFERENTIABLE, ModelSpec, Trajectory, _linear_flux,
                     _sweep_xy, run)
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
                     model: ModelSpec, dt: float) -> PopulationField:
    """One split LxF step of the linearized system with frozen rho.

    The flux of sigma_i is sigma_i v_i(arg) dir_i plus the
    sigma-independent term rho_i v_i'(arg) (sigma conv) dir_i, with arg
    the total smoothed density of rho: a linear flux with an additive
    part, carried through the same face average.
    """
    arg = clamped_speed_arg(smoothed_total_density(rho, model.kernels))
    sconv = smoothed_total_density(sigma, model.kernels)
    new = np.empty_like(sigma.data)
    for i in range(model.n):
        total = model.dirs[i].total
        a = model.laws[i].v(arg)[None, :, :] * total
        e = (rho.data[i] * model.laws[i].dv(arg) * sconv)[None, :, :] * total
        new[i], _ = _sweep_xy(sigma.data[i], a, _linear_flux, model.grid,
                              dt, e)
    return PopulationField(model.grid, new)


def solve_linearized(traj: Trajectory, sigma0: PopulationField,
                     t: float) -> PopulationField:
    """Evolve a perturbation to time t along the stored trajectory."""
    model = traj.model
    _require_differentiable(model)
    if t < -1e-12 or t > traj.t_final + 1e-12:
        raise ConfigurationError(
            f"time {t} outside trajectory span [0, {traj.t_final}]")
    sigma = sigma0.copy()
    elapsed = 0.0
    for k, dt in enumerate(traj.dts):
        if elapsed >= t - 1e-12:
            break
        step_dt = min(dt, t - elapsed)
        sigma = _linearized_step(sigma, traj.states[k], model, step_dt)
        elapsed += step_dt
    return sigma


def gateaux_residual(model: ModelSpec, rho0: PopulationField,
                     sigma0: PopulationField, t: float, h: float,
                     base_traj: Trajectory | None = None) -> float:
    """L1 defect of the first-order expansion at step h.

    r(h) = || S_t(rho0 + h sigma0) - S_t rho0 - h Sigma_t sigma0 ||_L1,
    with the perturbed run replaying the base run's dt sequence.
    """
    _require_differentiable(model)
    if h <= 0:
        raise ConfigurationError("h must be positive")
    m = _until(model, t)
    if base_traj is None:
        base_traj = run(m, rho0, record=True).trajectory
    perturbed = PopulationField(rho0.grid, rho0.data + h * sigma0.data)
    res_h = run(m, perturbed, forced_dts=base_traj.dts)
    sigma_t = solve_linearized(base_traj, sigma0, t)
    defect = res_h.state.data - base_traj.states[-1].data - h * sigma_t.data
    return float(np.abs(defect).sum()) * rho0.grid.cell_area


def _until(model: ModelSpec, t: float) -> ModelSpec:
    if abs(t - model.t_max) <= 1e-12:
        return model
    from dataclasses import replace
    return replace(model, t_max=t, snapshot_times=())


def cost_and_gradient(traj: Trajectory, cost: CostSpec,
                      sigma0: PopulationField) -> tuple[float, float]:
    """Evaluate the cost and its directional derivative along sigma0."""
    model = traj.model
    _require_differentiable(model)
    if cost.t < -1e-12 or cost.t > traj.t_final + 1e-12:
        raise ConfigurationError("cost time outside trajectory span")
    rho_t = _state_at(traj, cost.t)
    area = model.grid.cell_area
    psi = np.asarray(cost.psi)
    fval = cost.f(rho_t.data)
    if not np.all(np.isfinite(fval)):
        raise ConfigurationError("cost integrand not finite on attained range")
    J = float((fval * psi).sum()) * area
    sigma_t = solve_linearized(traj, sigma0, cost.t)
    fp = cost.fprime(rho_t.data)
    if not np.all(np.isfinite(fp)):
        raise ConfigurationError("cost derivative not finite on attained range")
    DJ = float((fp * sigma_t.data * psi).sum()) * area
    return J, DJ


def _state_at(traj: Trajectory, t: float) -> PopulationField:
    times = np.asarray(traj.times)
    k = int(np.argmin(np.abs(times - t)))
    if abs(times[k] - t) > 1e-9:
        raise ConfigurationError(
            f"time {t} not recorded in trajectory (nearest {times[k]})")
    return traj.states[k]


def gateaux_benchmark(mesh: float = 1.0 / 64.0, t_max: float = 0.2,
                      ) -> tuple[ModelSpec, PopulationField, PopulationField]:
    """Smooth two-population differentiable setup on the unit square.

    Returns (model, rho0, sigma0): the model, the datum and the
    perturbation direction the `crowdflow gateaux` command sweeps.
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
                                         hump(0.5, 0.45, 0.25, -0.15))
    return model, rho0, sigma0


def _require_differentiable(model: ModelSpec) -> None:
    if model.family != DIFFERENTIABLE:
        raise UnsupportedModelError(
            "linearization is only available for the differentiable family")
