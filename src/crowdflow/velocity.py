"""Speed laws, preferred-direction fields and the smoothed total density.

The two model families share the same ingredients: a scalar speed law
v(rho), a preferred direction g + delta (geodesic plus wall discomfort),
and per-population convolution kernels.  The differentiable family
evaluates the speed law on the total smoothed density; the deviation
family evaluates it on the local density and adds a nonlocal deviation
to the direction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec, PopulationField, boundary
from .kernel import SampledKernel, convolve

UNDERSHOOT_TOL = 1e-10


@dataclass(frozen=True)
class SpeedLaw:
    """Scalar speed law v with derivative, certified on [0, R].

    q_sup and dq_sup, the sup norms of q and q', are set at construction
    by a dense scan of [0, R].  The deviation family's envelopes read
    both, and `solver.cfl_dt` takes dq_sup, the sup of |q'|, as the
    wave-speed factor of every step.  dv is the linearized step's.
    """

    v: Callable[[np.ndarray], np.ndarray]
    dv: Callable[[np.ndarray], np.ndarray]
    R: float
    q_sup: float = field(init=False, compare=False)
    dq_sup: float = field(init=False, compare=False)

    def __post_init__(self):
        if not 0 < self.R < math.inf:
            raise ConfigurationError(
                f"maximal density R must be positive and finite, got {self.R}")
        s = np.linspace(0.0, self.R, 10001)
        object.__setattr__(self, "q_sup", float(np.abs(self.q(s)).max()))
        object.__setattr__(self, "dq_sup", float(np.abs(self.dq(s)).max()))

    def q(self, rho):
        return rho * self.v(rho)

    def dq(self, rho):
        return self.v(rho) + rho * self.dv(rho)


def _check_speed(value: float, what: str) -> None:
    if not 0 <= value < math.inf:
        raise ConfigurationError(
            f"{what} must be nonnegative and finite, got {value}")


@dataclass(frozen=True)
class LinearSpeedLaw(SpeedLaw):
    """v(rho) = vmax (1 - rho / R); vanishes at the maximal density R.

    v and dv are built from the law's own vmax and R, so a law with a
    replaced vmax or R (dataclasses.replace) is the law built from the
    new data, and two laws are equal when their vmax and R are.
    """

    v: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False,
                                                  compare=False)
    dv: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False,
                                                   compare=False)
    R: float = 1.0
    vmax: float = 4.0

    def __post_init__(self):
        _check_speed(self.vmax, "vmax")
        vmax, R = self.vmax, self.R
        object.__setattr__(self, "v", lambda r: vmax * (
            1.0 - np.asarray(r, dtype=float) / R))
        object.__setattr__(self, "dv", lambda r: np.full_like(
            np.asarray(r, dtype=float), -vmax / R))
        super().__post_init__()


def linear_speed_law(vmax: float = 4.0, R: float = 1.0) -> SpeedLaw:
    """v(rho) = vmax (1 - rho / R); vanishes at the maximal density R."""
    return LinearSpeedLaw(R=R, vmax=vmax)


def constant_speed_law(c: float, R: float = 1.0) -> SpeedLaw:
    _check_speed(c, "constant speed")
    return SpeedLaw(
        v=lambda r: np.full_like(np.asarray(r, dtype=float), c),
        dv=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        R=R)


def discomfort(grid: GridSpec, delta_max: float, delta_r: float) -> np.ndarray:
    """Wall-repulsion field, shape (2, nx, ny).

    Perpendicular to the room walls, pointing inward, magnitude delta_max
    at wall-adjacent cells and delta_max * max(0, 1 - dist/delta_r)
    further in (dist from the room edge); zero outside the room.  A side
    pushes only if it has wall faces (grid.boundary): if its outermost
    cells hold no room cell.  Elsewhere the exit list governs the edge.
    """
    if not 0 < delta_r < math.inf:
        raise ConfigurationError(
            f"delta_r must be positive and finite, got {delta_r}")
    out = np.zeros((2, grid.nx, grid.ny))
    mask = boundary(grid).room
    rx0, ry0, rx1, ry1 = grid.room
    X, Y = grid.xc[:, None], grid.yc[None, :]

    def profile(dist, step):
        mag = delta_max * np.clip(1.0 - dist / delta_r, 0.0, None)
        return np.where(dist <= step * (1.0 + 1e-9), delta_max, mag)

    if not mask[:, 0].any():  # bottom wall, pushes up
        out[1] += profile(Y - ry0, grid.dy)
    if not mask[:, -1].any():  # top wall, pushes down
        out[1] -= profile(ry1 - Y, grid.dy)
    if not mask[0].any():  # left wall, pushes right
        out[0] += profile(X - rx0, grid.dx)
    if not mask[-1].any():  # right wall, pushes left
        out[0] -= profile(rx1 - X, grid.dx)
    out *= mask[None, :, :]
    return out


def constant_direction(grid: GridSpec, gx: float, gy: float,
                       delta_max: float = 0.0, delta_r: float = 0.75,
                       restrict_to_room: bool = True) -> np.ndarray:
    """The constant geodesic field (gx, gy), inside the room under
    restrict_to_room, plus discomfort: g + delta, shape (2, nx, ny).
    gx and gy must be finite, delta_max nonnegative and finite and
    delta_r positive and finite, or ConfigurationError is raised.
    """
    if not (math.isfinite(gx) and math.isfinite(gy)):
        raise ConfigurationError(
            f"geodesic direction must be finite, got ({gx}, {gy})")
    if not 0 <= delta_max < math.inf:
        raise ConfigurationError(
            f"delta_max must be nonnegative and finite, got {delta_max}")
    if not 0 < delta_r < math.inf:
        raise ConfigurationError(
            f"delta_r must be positive and finite, got {delta_r}")
    g = np.empty((2, grid.nx, grid.ny))
    g[0], g[1] = gx, gy
    if restrict_to_room:
        g *= boundary(grid).room[None, :, :]
    d = (discomfort(grid, delta_max, delta_r) if delta_max > 0
         else np.zeros_like(g))
    return g + d


def clamped_speed_arg(arg: np.ndarray) -> np.ndarray:
    """Clamp scheme undershoots to 0 before feeding the speed law."""
    lo = arg.min()
    if lo < -UNDERSHOOT_TOL:
        # fixed message so the default warning filter reports it once per site
        warnings.warn("negative convolved density clamped to 0 "
                      "(scheme undershoot)", RuntimeWarning, stacklevel=2)
    return np.maximum(arg, 0.0)


def smoothed_total_density(state: PopulationField,
                           kernels: Sequence[SampledKernel]) -> np.ndarray:
    """sum_j conv(rho_j, eta_j), the argument of the differentiable speed law.

    The sum is linear in rho, so the populations that share a kernel
    object (by identity) are added, in population order, and convolved
    once: one convolution per distinct kernel, in order of first
    appearance.  A kernel of one population convolves its density
    directly, so with all-distinct kernels this is the per-population
    sum bit for bit; a shared kernel may differ from it in the last bits.
    """
    groups: dict[int, list[int]] = {}  # id(kernel) -> populations
    for j in range(state.n):
        groups.setdefault(id(kernels[j]), []).append(j)
    out = np.zeros((state.grid.nx, state.grid.ny))
    for members in groups.values():
        total = state.data[members[0]]
        for j in members[1:]:
            total = total + state.data[j]
        out += convolve(total, kernels[members[0]])
    return out
