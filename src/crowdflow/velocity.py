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
from dataclasses import InitVar, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec, PopulationField, room_mask
from .kernel import SampledKernel, convolve

UNDERSHOOT_TOL = 1e-10


@dataclass(frozen=True)
class SpeedLaw:
    """Scalar speed law v with derivative, certified on [0, R].

    Sup norms of v, v', q and q' are computed once by a dense scan of
    [0, R].  The bound evaluators read them, and `solver.cfl_dt` takes
    dq_sup, the sup of |q'|, as the wave-speed factor of every step.
    """

    v: Callable[[np.ndarray], np.ndarray]
    dv: Callable[[np.ndarray], np.ndarray]
    R: float
    _scan: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not 0 < self.R < math.inf:
            raise ConfigurationError(
                f"maximal density R must be positive and finite, got {self.R}")

    def q(self, rho):
        return rho * self.v(rho)

    def dq(self, rho):
        return self.v(rho) + rho * self.dv(rho)

    def _norms(self) -> dict:
        if not self._scan:
            s = np.linspace(0.0, self.R, 10001)
            self._scan.update(
                v_sup=float(np.abs(self.v(s)).max()),
                dv_sup=float(np.abs(self.dv(s)).max()),
                q_sup=float(np.abs(self.q(s)).max()),
                dq_sup=float(np.abs(self.dq(s)).max()),
            )
        return self._scan

    @property
    def v_sup(self) -> float:
        return self._norms()["v_sup"]

    @property
    def dv_sup(self) -> float:
        return self._norms()["dv_sup"]

    @property
    def q_sup(self) -> float:
        return self._norms()["q_sup"]

    @property
    def dq_sup(self) -> float:
        return self._norms()["dq_sup"]


def _check_speed(value: float, what: str) -> None:
    if not 0 <= value < math.inf:
        raise ConfigurationError(
            f"{what} must be nonnegative and finite, got {value}")


def linear_speed_law(vmax: float = 4.0, R: float = 1.0) -> SpeedLaw:
    """v(rho) = vmax (1 - rho / R); vanishes at the maximal density R."""
    _check_speed(vmax, "vmax")
    return SpeedLaw(
        v=lambda r: vmax * (1.0 - np.asarray(r, dtype=float) / R),
        dv=lambda r: np.full_like(np.asarray(r, dtype=float), -vmax / R),
        R=R)


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
    mask = room_mask(grid)
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


@dataclass
class DirectionField:
    """Preferred direction of one population: the sum g + delta of a
    geodesic field and a wall discomfort, (2, nx, ny) each.  Only the
    sum, `total`, is kept."""

    g: InitVar[np.ndarray]
    delta: InitVar[np.ndarray]
    total: np.ndarray = field(init=False)

    def __post_init__(self, g: np.ndarray, delta: np.ndarray):
        self.total = g + delta


def constant_direction(grid: GridSpec, gx: float, gy: float,
                       delta_max: float = 0.0, delta_r: float = 0.75,
                       restrict_to_room: bool = True) -> DirectionField:
    """Constant geodesic field (gx, gy) inside the room plus discomfort.

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
    g = np.zeros((2, grid.nx, grid.ny))
    g[0] = gx
    g[1] = gy
    if restrict_to_room:
        g *= room_mask(grid)[None, :, :]
    d = (discomfort(grid, delta_max, delta_r) if delta_max > 0
         else np.zeros_like(g))
    return DirectionField(g=g, delta=d)


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
