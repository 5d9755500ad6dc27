"""Explicit time integration: Lax-Friedrichs with dimensional splitting.

Each step freezes the nonlocal quantities computed from the pre-step
state, then performs an x sweep followed by a y sweep of conservative
Lax-Friedrichs for every population.  For the deviation family the flux
is q(rho) * (dir + I) with the speed law inside the flux; for the
differentiable family the speed is folded into the advection field and
the flux is linear in rho.  Walls (grid.boundary) are closed, the domain
edge is empty outside and an exit passes flux outward only, so mass only
leaves; it is accounted per step so that conservation is an exact
identity.  The three-cell LxF stencil moves mass by at most one cell per
sweep, so a step sweeps each population only on the box of its live
cells widened by one cell, and the result is bit for bit that of the
whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (BoundViolationError, ConfigurationError, NumericError)
from .grid import GridSpec, PopulationField, boundary, has_live_cell, live_box
from .kernel import SampledKernel
from .nonlocal_ops import NonlocalOperator
from .velocity import SpeedLaw, clamped_speed_arg, smoothed_total_density

DIFFERENTIABLE = "differentiable"
DEVIATION = "deviation"

MAX_PRINCIPLE_TOL = 1e-6
TIME_TOL = 1e-12  # times closer than this are one time


@dataclass
class ModelSpec:
    family: str
    grid: GridSpec
    laws: tuple[SpeedLaw, ...]
    dirs: tuple[np.ndarray, ...]  # preferred directions, (2, nx, ny) each
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
        if not 0 < self.R < math.inf:
            raise ConfigurationError(
                f"R must be positive and finite, got {self.R}")
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigurationError("CFL number must be in (0, 1]")
        if not 0 <= self.t_max < math.inf:
            raise ConfigurationError("t_max must be finite and nonnegative")
        if self.family == DIFFERENTIABLE and len(self.kernels) != self.n:
            raise ConfigurationError("differentiable family needs one kernel "
                                     "per population")
        if self.family == DEVIATION and self.deviation is None:
            raise ConfigurationError("deviation family needs a nonlocal "
                                     "deviation operator")
        if not all(0 <= t <= self.t_max + TIME_TOL for t in self.snapshot_times):
            raise ConfigurationError("snapshot times must lie in [0, t_max]")

    @property
    def n(self) -> int:
        return len(self.laws)


@dataclass(frozen=True)
class StepReport:
    step: int               # steps taken, counted from 1
    t: float
    dt: float
    min: np.ndarray
    max: np.ndarray
    outflow: np.ndarray     # mass out across the boundary in this step, >= 0
    escaped: np.ndarray     # mass out across the boundary since t = 0


@dataclass
class RunResult:
    state: PopulationField
    reports: list[StepReport]
    escaped: np.ndarray


def advection_field(state: PopulationField, model: ModelSpec) -> np.ndarray:
    """Frozen per-step field multiplying the scalar flux, shape (n, 2, nx, ny).

    Differentiable family: the full velocity v_i(smoothed total) * dir_i
    (the flux is then linear in rho).  Deviation family: dir_i + I_i(rho)
    (the flux is q_i(rho) times this field).
    """
    if model.family == DEVIATION:
        W = model.deviation(state)  # a new array, completed in place
        for i, d in enumerate(model.dirs):
            W[i] += d
        return W
    arg = clamped_speed_arg(smoothed_total_density(state, model.kernels))
    return _velocity_field(arg, model)


def _velocity_field(arg: np.ndarray, model: ModelSpec) -> np.ndarray:
    """The differentiable family's field v_i(arg) dir_i, (n, 2, nx, ny),
    from the clamped speed argument arg, each product written into W."""
    g = model.grid
    W = np.empty((model.n, 2, g.nx, g.ny))
    for i in range(model.n):
        np.multiply(model.laws[i].v(arg)[None, :, :], model.dirs[i],
                    out=W[i])
    return W


def cfl_dt(state: PopulationField, V: np.ndarray, laws: Sequence[SpeedLaw],
           cfl: float, dt_cap: float = np.inf,
           linear_flux: bool = False) -> float:
    """Stable time step for the split Lax-Friedrichs sweeps.

    V is the advection field of `advection_field`.  Population i's wave
    speed is S_i max|V_i|, with S_i the law's sup of |q_i'| over [0, R]
    (1 when the flux is linear), not |q_i'| at the cell values: every
    sweep is then monotone for any state in [0, R], and the deviation
    family keeps its maximum principle.  A population with no live cell
    (grid.live_box's bit-pattern rule) is skipped, as _sweep_xy skips
    it: its sweep moves nothing, so its field does not limit dt.
    dt = cfl * min(dx, dy) / max_i speed, capped at dt_cap (which is
    returned when no wave moves).  A non-finite speed has no stable step
    and raises NumericError.
    """
    g = state.grid
    smax = 0.0
    for i in range(state.n):
        if not has_live_cell(state.data[i]):
            continue
        slope = 1.0 if linear_flux else laws[i].dq_sup
        # max|V_i| without a |V_i| array; np.maximum keeps a NaN
        s = slope * float(np.maximum(V[i].max(), -V[i].min()))
        if not np.isfinite(s):
            raise NumericError(
                f"non-finite wave speed in population {state.first + i}")
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
           wall_faces: np.ndarray, e: np.ndarray | None = None,
           F: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One conservative LxF sweep along axis 0 of the flux f = q(rho) a + e.

    Interior faces take the LxF flux of their two cells.  An edge face on
    an exit where a points out passes the edge cell's own f; any other
    edge face sees an empty outside, f/2 -+ lam rho/2 (low/high edge),
    which under the CFL condition only lets mass out.  Wall faces carry
    nothing.  Returns the new field and the face fluxes, written into F
    when given; _outflow of them is the net outgoing boundary flux (per
    unit time and unit transverse length).
    """
    f = qfun(rho) * a
    if e is not None:
        f += e
    if F is None:  # in rho's own layout, as _face_buffers gives it
        F = np.empty_like(rho, shape=(rho.shape[0] + 1, rho.shape[1]))
    # interior faces: 0.5 (f[:-1] + f[1:]) - 0.5 lam (rho[1:] - rho[:-1])
    mid = F[1:-1]
    np.add(f[:-1], f[1:], out=mid)
    mid *= 0.5
    F[0] = np.where(exit_lo & (a[0] < 0), f[0],
                    0.5 * f[0] - 0.5 * lam * rho[0])
    F[-1] = np.where(exit_hi & (a[-1] > 0), f[-1],
                     0.5 * f[-1] + 0.5 * lam * rho[-1])
    jump = np.subtract(rho[1:], rho[:-1], out=f[:-1])  # f is read no more
    jump *= 0.5 * lam
    mid -= jump
    F[wall_faces] = 0.0
    # rho - (1 / lam) (F[1:] - F[:-1]), in f's memory
    new = np.subtract(F[1:], F[:-1], out=f)
    new *= 1.0 / lam
    np.subtract(rho, new, out=new)
    return new, F


def _outflow(F: np.ndarray) -> float:
    """Net outgoing flux through the two edge rows of face fluxes F."""
    return float(F[-1].sum() - F[0].sum())


def _face_buffers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Face-flux buffers of the x and the y sweep, each in the memory
    layout of the density it sweeps: the y sweep works on transposes."""
    return (np.empty((grid.nx + 1, grid.ny)),
            np.empty((grid.nx, grid.ny + 1)).T)


def _window_sweep(rho: np.ndarray, a: np.ndarray, qfun, lam: float,
                  edges: tuple[np.ndarray, np.ndarray, np.ndarray],
                  F: np.ndarray | None, along: slice, across: slice,
                  e: np.ndarray | None) -> tuple[np.ndarray, float]:
    """_sweep of the window rho = cells [along, across] of a sweep's frame,
    with the edge masks and face buffer F of the whole grid cut to it
    (a new F, laid out as the wall mask, when None).

    The outflow sums F's two whole edge rows, zeroed first, so that it
    adds the same numbers in the same grouping as a whole-grid sweep.
    """
    exit_lo, exit_hi, walls = edges
    if F is None:
        F = np.empty_like(walls, dtype=float)
    faces = slice(along.start, along.stop + 1)
    F[0] = 0.0
    F[-1] = 0.0
    new, _ = _sweep(rho, a, qfun, lam, exit_lo[across], exit_hi[across],
                    walls[faces, across], e, F[faces, across])
    return new, _outflow(F)


def _sweep_xy(rho: np.ndarray, w: np.ndarray, qfun, grid: GridSpec,
              dt: float, out: np.ndarray, e: np.ndarray | None = None,
              faces: tuple[np.ndarray, np.ndarray] = (None, None),
              ) -> tuple[float, tuple[slice, slice]]:
    """x sweep then y sweep of one population with the frozen field w
    (and additive flux e), both (2, nx, ny), into out, which must hold
    zeros.

    Both sweeps run on one window: the box of the live cells of rho and
    e (grid.live_box) widened by one cell on each side.  The LxF stencil
    spans three cells, so the whole-grid sweeps leave exactly +0.0
    outside the window; a window edge inside the domain lies between two
    empty cells, where either rule of _sweep gives a zero face flux.  A
    sweep whose flux vanishes identically on the whole grid is skipped:
    LxF diffusion alone would still spread the population.

    faces are the face-flux buffers from _face_buffers; without them
    each sweep makes its own.  Returns the mass that crossed the domain
    boundary during the step and the window outside which out is +0.0.
    """
    rows, cols = live_box(rho, *(() if e is None else (e,)), pad=(1, 1))
    if rows.start == rows.stop:  # nothing to move
        return 0.0, (rows, cols)
    x_edges, y_edges = boundary(grid).sweeps
    ex = ey = None
    if e is not None:
        ex, ey = e[0, rows, cols], e[1, rows, cols].T
    win = out[rows, cols]
    win[...] = rho[rows, cols]
    out_x = out_y = 0.0
    if w[0].any() or (e is not None and e[0].any()):
        new, out_x = _window_sweep(win, w[0, rows, cols], qfun, grid.dx / dt,
                                   x_edges, faces[0], rows, cols, ex)
        win[...] = new
    if w[1].any() or (e is not None and e[1].any()):
        new, out_y = _window_sweep(win.T, w[1, rows, cols].T, qfun,
                                   grid.dy / dt, y_edges, faces[1], cols,
                                   rows, ey)
        win[...] = new.T
    return dt * (grid.dy * out_x + grid.dx * out_y), (rows, cols)


def split_step(state: PopulationField, model: ModelSpec, dt: float,
               W: np.ndarray | None = None,
               faces: tuple[np.ndarray, np.ndarray] = (None, None),
               ) -> tuple[PopulationField, np.ndarray]:
    """Advance all populations by dt: x sweep then y sweep, frozen W.

    Returns the new state and the per-population mass that crossed the
    domain boundary during the step (positive means outflow).  faces
    are face-flux buffers for the sweeps to reuse, as run passes them.
    Each population is swept on its window (_sweep_xy), and only the
    window is checked for non-finite cells: outside it the new density
    is +0.0.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    if W is None:
        W = advection_field(state, model)
    g = state.grid
    linear = model.family == DIFFERENTIABLE
    new = np.zeros_like(state.data)
    outflow = np.zeros(state.n)
    for i in range(state.n):
        qfun = _linear_flux if linear else model.laws[i].q
        outflow[i], (rows, cols) = _sweep_xy(state.data[i], W[i], qfun, g,
                                             dt, new[i], faces=faces)
        window = new[i, rows, cols]
        if not np.all(np.isfinite(window)):
            bad = np.argwhere(~np.isfinite(window))[0]
            raise NumericError(
                f"non-finite density in population {state.first + i} at cell "
                f"({g.xc[rows.start + bad[0]]:.4g}, "
                f"{g.yc[cols.start + bad[1]]:.4g})")
    return PopulationField(g, new, state.first), outflow


def check_datum(model: ModelSpec, datum: PopulationField) -> None:
    """Raise ConfigurationError unless run can start from datum: it lies
    on the model's grid, is finite, lies in [0, R] in the deviation
    family and holds no mass in a cell outside the room (grid.boundary).
    """
    if datum.grid is not model.grid and datum.grid != model.grid:
        raise ConfigurationError("datum grid does not match model grid")
    data = datum.data
    if not np.isfinite(data).all():
        raise ConfigurationError("datum has a non-finite cell")
    if model.family == DEVIATION:
        lo, hi = data.min(), data.max()
        if not (lo >= -MAX_PRINCIPLE_TOL and hi <= model.R + MAX_PRINCIPLE_TOL):
            raise ConfigurationError(
                f"deviation-family datum must lie in [0, R]; got [{lo}, {hi}]")
    # -0.0 carries no mass: a negative datum value leaves it in every cell
    # outside its rectangle
    held = (data[:, ~boundary(model.grid).room] != 0.0).any(axis=1)
    if held.any():
        raise ConfigurationError(
            f"datum puts mass outside the room in population "
            f"{datum.first + int(held.argmax())}")


def check_range(model: ModelSpec, report: StepReport) -> None:
    """Under model.strict, raise BoundViolationError where a deviation-
    family step left [0, R] by more than MAX_PRINCIPLE_TOL."""
    if model.strict and model.family == DEVIATION:
        if (report.min.min() < -MAX_PRINCIPLE_TOL
                or report.max.max() > model.R + MAX_PRINCIPLE_TOL):
            raise BoundViolationError(
                f"maximum principle violated at t={report.t:.6g}: "
                f"range [{report.min.min():.3e}, {report.max.max():.6f}]")


def output_times(snapshot_times: Sequence[float], t_max: float) -> list[float]:
    """run's output times in order; one within TIME_TOL of 0 is 0."""
    return sorted({0.0 if abs(t) <= TIME_TOL else float(t)
                   for t in (*snapshot_times, t_max)})


def run(model: ModelSpec, datum: PopulationField,
        on_snapshot: Callable[[float, PopulationField], None] | None = None,
        on_step: Callable[[StepReport, PopulationField, np.ndarray], None] | None = None,
        *, field: Callable[[PopulationField, ModelSpec], np.ndarray] | None = None,
        agree: Callable[[float], float] | None = None) -> RunResult:
    """Integrate the model from the datum to t_max.

    Snapshot times are hit exactly (dt truncated at them).  on_step
    receives (report, state, frozen advection field) after every step:
    the post-step state, and the field the step used, computed from the
    pre-step state.  Work that advances beside the run, such as the
    linearized solve, takes the step's dt from the report.  field(state,
    model) computes each step's frozen field from the pre-step state
    (advection_field when None, looked up at the call); a hook that
    returns advection_field's value can keep what it computed on the
    way, as the linearized solve keeps the speed argument.  agree(dt)
    gives the dt each step takes from cfl_dt's: the least one of the
    runs that step the parts of one model's populations side by side
    (analysis.run_tables).  The datum must pass check_datum.
    """
    if field is None:
        field = advection_field
    check_datum(model, datum)
    state = datum.copy()
    events = output_times(model.snapshot_times, model.t_max)
    reports: list[StepReport] = []
    escaped = np.zeros(model.n)

    t = 0.0
    if on_snapshot is not None and events[0] == 0.0:
        on_snapshot(0.0, state)
    events = [e for e in events if e > 0.0]
    step = 0
    linear = model.family == DIFFERENTIABLE
    faces = _face_buffers(model.grid)  # the run's, reused by every sweep
    while t < model.t_max - TIME_TOL:
        W = field(state, model)
        dt = cfl_dt(state, W, model.laws, model.cfl,
                    dt_cap=events[0] - t, linear_flux=linear)
        if agree is not None:
            dt = agree(dt)
        state, outflow = split_step(state, model, dt, W, faces)
        escaped += outflow
        t += dt
        step += 1
        report = StepReport(
            step=step, t=t, dt=dt, min=state.data.min(axis=(1, 2)),
            max=state.data.max(axis=(1, 2)), outflow=outflow, escaped=escaped.copy())
        reports.append(report)
        check_range(model, report)
        if on_step is not None:
            on_step(report, state, W)
        while events and t >= events[0] - TIME_TOL:
            if on_snapshot is not None:
                on_snapshot(events[0], state)
            events.pop(0)
        del W  # the next field is computed without this one alive
    return RunResult(state=state, reports=reports, escaped=escaped)
