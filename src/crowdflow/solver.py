"""Explicit time integration: Lax-Friedrichs with dimensional splitting.

Each step freezes the nonlocal quantities computed from the pre-step
state, then performs an x sweep followed by a y sweep of conservative
Lax-Friedrichs for every population.  For the deviation family the flux
is q(rho) * (dir + I) with the speed law inside the flux; for the
differentiable family the speed is folded into the advection field and
the flux is linear in rho.  Walls are closed, the domain edge is empty
outside and an exit passes flux outward only, so mass only leaves; it is
accounted per step so that conservation is an exact identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (BoundViolationError, ConfigurationError, NumericError)
from .grid import GridSpec, PopulationField
from .kernel import SampledKernel
from .nonlocal_ops import NonlocalOperator
from .velocity import (DirectionField, SpeedLaw, clamped_speed_arg,
                       smoothed_total_density)

DIFFERENTIABLE = "differentiable"
DEVIATION = "deviation"

MAX_PRINCIPLE_TOL = 1e-6


@dataclass
class ModelSpec:
    family: str
    grid: GridSpec
    laws: tuple[SpeedLaw, ...]
    dirs: tuple[DirectionField, ...]
    kernels: tuple[SampledKernel, ...] = ()
    deviation: NonlocalOperator | None = None
    R: float = 1.0
    cfl: float = 0.9
    t_max: float = 1.0
    snapshot_times: tuple[float, ...] = ()
    strict: bool = False

    def __post_init__(self):
        if self.family not in (DIFFERENTIABLE, DEVIATION):
            raise ConfigurationError(f"unknown model family {self.family!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigurationError("CFL number must be in (0, 1]")
        if self.t_max < 0:
            raise ConfigurationError("t_max must be nonnegative")
        if self.family == DIFFERENTIABLE and len(self.kernels) != self.n:
            raise ConfigurationError("differentiable family needs one kernel "
                                     "per population")
        if self.family == DEVIATION and self.deviation is None:
            raise ConfigurationError("deviation family needs a nonlocal "
                                     "deviation operator")
        if any(t < 0 or t > self.t_max + 1e-12 for t in self.snapshot_times):
            raise ConfigurationError("snapshot times must lie in [0, t_max]")

    @property
    def n(self) -> int:
        return len(self.laws)


@dataclass(frozen=True)
class StepReport:
    step: int               # steps taken, counted from 1
    t: float
    dt: float
    mass: np.ndarray
    min: np.ndarray
    max: np.ndarray
    outflow: np.ndarray     # mass out across the boundary in this step, >= 0
    escaped: np.ndarray     # mass out across the boundary since t = 0


@dataclass
class RunResult:
    state: PopulationField
    reports: list[StepReport]
    escaped: np.ndarray


@lru_cache(maxsize=32)
def _boundary_layout(grid: GridSpec):
    """(exit_lo, exit_hi, wall_faces) per sweep: x, then y transposed."""
    tol = 1e-9 * max(grid.width, grid.height)
    exits = {s: np.zeros(grid.ny if s in ("left", "right") else grid.nx,
                         dtype=bool) for s in ("left", "right", "bottom", "top")}
    for side, lo, hi in grid.exits:
        coords = grid.yc if side in ("left", "right") else grid.xc
        exits[side] |= (coords > lo - tol) & (coords < hi + tol)
    # wall faces: room edges strictly inside the domain
    xwall = np.zeros((grid.nx + 1, grid.ny), dtype=bool)
    ywall = np.zeros((grid.nx, grid.ny + 1), dtype=bool)
    rx0, ry0, rx1, ry1 = grid.room
    inx = (grid.xc > rx0 - tol) & (grid.xc < rx1 + tol)
    iny = (grid.yc > ry0 - tol) & (grid.yc < ry1 + tol)
    for xe in (rx0, rx1):
        if grid.x0 + tol < xe < grid.x1 - tol:
            i = int(round((xe - grid.x0) / grid.dx))
            if abs(grid.x0 + i * grid.dx - xe) <= tol:
                xwall[i, iny] = True
    for ye in (ry0, ry1):
        if grid.y0 + tol < ye < grid.y1 - tol:
            j = int(round((ye - grid.y0) / grid.dy))
            if abs(grid.y0 + j * grid.dy - ye) <= tol:
                ywall[inx, j] = True
    return ((exits["left"], exits["right"], xwall),
            (exits["bottom"], exits["top"], ywall.T))


def advection_field(state: PopulationField, model: ModelSpec) -> np.ndarray:
    """Frozen per-step field multiplying the scalar flux, shape (n, 2, nx, ny).

    Differentiable family: the full velocity v_i(smoothed total) * dir_i
    (the flux is then linear in rho).  Deviation family: dir_i + I_i(rho)
    (the flux is q_i(rho) times this field).
    """
    if model.family == DEVIATION:
        W = model.deviation(state)  # a new array, completed in place
        for i, d in enumerate(model.dirs):
            W[i] += d.total
        return W
    n, g = model.n, model.grid
    W = np.empty((n, 2, g.nx, g.ny))
    arg = clamped_speed_arg(smoothed_total_density(state, model.kernels))
    for i in range(n):
        W[i] = model.laws[i].v(arg)[None, :, :] * model.dirs[i].total
    return W


def _flux_is_linear(model: ModelSpec) -> bool:
    return model.family == DIFFERENTIABLE


def cfl_dt(state: PopulationField, V: np.ndarray, laws: Sequence[SpeedLaw],
           cfl: float, dt_cap: float = np.inf,
           linear_flux: bool = False) -> float:
    """Stable time step for the split Lax-Friedrichs sweeps.

    V is the advection field of `advection_field`.  Population i's wave
    speed is S_i max|V_i|, with S_i the law's sup of |q_i'| over [0, R]
    (1 when the flux is linear), not |q_i'| at the cell values: every
    sweep is then monotone for any state in [0, R], and the deviation
    family keeps its maximum principle.  dt = cfl * min(dx, dy) /
    max_i speed, capped at dt_cap (which is returned when no wave
    moves).  A non-finite speed has no stable step and raises
    NumericError.
    """
    g = state.grid
    smax = 0.0
    for i in range(state.n):
        slope = 1.0 if linear_flux else laws[i].dq_sup
        s = slope * float(np.abs(V[i]).max())
        if not np.isfinite(s):
            raise NumericError(f"non-finite wave speed in population {i}")
        smax = max(smax, s)
    if smax <= 0.0:
        if not np.isfinite(dt_cap):
            raise ConfigurationError("zero maximal speed and no time-step cap")
        return dt_cap
    return float(min(cfl * min(g.dx, g.dy) / smax, dt_cap))


def _linear_flux(rho: np.ndarray) -> np.ndarray:
    return rho


def _sweep(rho: np.ndarray, a: np.ndarray, qfun, lam: float,
           exit_lo: np.ndarray, exit_hi: np.ndarray,
           wall_faces: np.ndarray,
           e: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """One conservative LxF sweep along axis 0 of the flux f = q(rho) a + e.

    Interior faces take the LxF flux of their two cells.  An edge face on
    an exit where a points out passes the edge cell's own f; any other
    edge face sees an empty outside, f/2 -+ lam rho/2 (low/high edge),
    which under the CFL condition only lets mass out.  Wall faces carry
    nothing.  Returns the new field and the net outgoing boundary flux
    (per unit time and unit transverse length).  A population whose flux
    vanishes identically is left untouched: LxF diffusion alone would
    still spread it.
    """
    if not a.any() and (e is None or not e.any()):
        return rho, 0.0
    f = qfun(rho) * a
    if e is not None:
        f += e
    F = np.empty((rho.shape[0] + 1, rho.shape[1]))
    F[1:-1] = 0.5 * (f[:-1] + f[1:]) - 0.5 * lam * (rho[1:] - rho[:-1])
    F[0] = np.where(exit_lo & (a[0] < 0), f[0],
                    0.5 * f[0] - 0.5 * lam * rho[0])
    F[-1] = np.where(exit_hi & (a[-1] > 0), f[-1],
                     0.5 * f[-1] + 0.5 * lam * rho[-1])
    F[wall_faces] = 0.0
    new = rho - (1.0 / lam) * (F[1:] - F[:-1])
    out = float(F[-1].sum() - F[0].sum())
    return new, out


def _sweep_xy(rho: np.ndarray, w: np.ndarray, qfun, grid: GridSpec,
              dt: float, e: np.ndarray | None = None,
              ) -> tuple[np.ndarray, float]:
    """x sweep then y sweep of one population with the frozen field w
    (and additive flux e), both (2, nx, ny).

    Returns the new density and the mass that crossed the domain
    boundary during the step.
    """
    x_edges, y_edges = _boundary_layout(grid)
    r, out_x = _sweep(rho, w[0], qfun, grid.dx / dt, *x_edges,
                      None if e is None else e[0])
    r, out_y = _sweep(r.T, w[1].T, qfun, grid.dy / dt, *y_edges,
                      None if e is None else e[1].T)
    return r.T, dt * (grid.dy * out_x + grid.dx * out_y)


def split_step(state: PopulationField, model: ModelSpec, dt: float,
               W: np.ndarray | None = None,
               ) -> tuple[PopulationField, np.ndarray]:
    """Advance all populations by dt: x sweep then y sweep, frozen W.

    Returns the new state and the per-population mass that crossed the
    domain boundary during the step (positive means outflow).
    """
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    if W is None:
        W = advection_field(state, model)
    g = state.grid
    linear = _flux_is_linear(model)
    new = np.empty_like(state.data)
    outflow = np.zeros(state.n)
    for i in range(state.n):
        qfun = _linear_flux if linear else model.laws[i].q
        new[i], outflow[i] = _sweep_xy(state.data[i], W[i], qfun, g, dt)
        if not np.all(np.isfinite(new[i])):
            bad = np.argwhere(~np.isfinite(new[i]))[0]
            raise NumericError(
                f"non-finite density in population {i} at cell "
                f"({g.xc[bad[0]]:.4g}, {g.yc[bad[1]]:.4g})")
    return PopulationField(g, new), outflow


def run(model: ModelSpec, datum: PopulationField,
        on_snapshot: Callable[[float, PopulationField], None] | None = None,
        on_step: Callable[[StepReport, PopulationField, np.ndarray], None] | None = None,
        ) -> RunResult:
    """Integrate the model from the datum to t_max.

    Snapshot times are hit exactly (dt truncated at them).  on_step
    receives (report, state, frozen advection field) after every step:
    the post-step state, and the field the step used, computed from the
    pre-step state.  Work that advances beside the run, such as the
    linearized solve, takes the step's dt from the report.
    """
    if datum.grid is not model.grid and datum.grid != model.grid:
        raise ConfigurationError("datum grid does not match model grid")
    state = datum.copy()
    if model.family == DEVIATION:
        lo, hi = state.data.min(), state.data.max()
        if lo < -MAX_PRINCIPLE_TOL or hi > model.R + MAX_PRINCIPLE_TOL:
            raise ConfigurationError(
                f"deviation-family datum must lie in [0, R]; got [{lo}, {hi}]")
    events = sorted({float(s) for s in model.snapshot_times} | {model.t_max})
    reports: list[StepReport] = []
    escaped = np.zeros(model.n)

    t = 0.0
    if on_snapshot is not None and any(abs(e) <= 1e-12 for e in events):
        on_snapshot(0.0, state)
    events = [e for e in events if e > 1e-12]
    step = 0
    linear = _flux_is_linear(model)
    while t < model.t_max - 1e-12:
        W = advection_field(state, model)
        dt = cfl_dt(state, W, model.laws, model.cfl,
                    dt_cap=events[0] - t, linear_flux=linear)
        state, outflow = split_step(state, model, dt, W)
        escaped += outflow
        t += dt
        step += 1
        report = StepReport(
            step=step, t=t, dt=dt, mass=state.mass(),
            min=state.data.min(axis=(1, 2)), max=state.data.max(axis=(1, 2)),
            outflow=outflow, escaped=escaped.copy())
        reports.append(report)
        if model.strict and model.family == DEVIATION:
            if (report.min.min() < -MAX_PRINCIPLE_TOL
                    or report.max.max() > model.R + MAX_PRINCIPLE_TOL):
                raise BoundViolationError(
                    f"maximum principle violated at t={t:.6g}: "
                    f"range [{report.min.min():.3e}, {report.max.max():.6f}]")
        if on_step is not None:
            on_step(report, state, W)
        while events and t >= events[0] - 1e-12:
            if on_snapshot is not None:
                on_snapshot(events[0], state)
            events.pop(0)
    return RunResult(state=state, reports=reports, escaped=escaped)
