"""Uniform 2D grid, multi-population density fields and discrete norms.

Densities live on a cell-centered finite-volume grid.  A field stores one
scalar array per population; index order is data[pop, i, j] with i the
x index and j the y index, so separable convolutions read A @ data @ B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NumericError

Rect = tuple[float, float, float, float]  # x0, y0, x1, y1

# An exit is a segment of the numerical-domain boundary: (side, lo, hi)
# with side in {"left", "right", "bottom", "top"} and lo/hi the span in
# the coordinate running along that side.
Exit = tuple[str, float, float]

_SIDES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class GridSpec:
    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int
    room: Rect
    exits: tuple[Exit, ...] = ()

    def __post_init__(self):
        if not (0 < self.dx < math.inf and 0 < self.dy < math.inf):
            raise ConfigurationError("cell sizes must be positive and finite")
        if self.nx < 1 or self.ny < 1:
            raise ConfigurationError("need at least one cell per axis")
        if not all(map(math.isfinite, (self.x0, self.y0, *self.room))):
            raise ConfigurationError("grid origin and room must be finite")
        rx0, ry0, rx1, ry1 = self.room
        eps = 1e-9 * max(self.width, self.height)
        if rx0 < self.x0 - eps or ry0 < self.y0 - eps \
                or rx1 > self.x1 + eps or ry1 > self.y1 + eps:
            raise ConfigurationError("room must lie inside the numerical domain")
        for side, lo, hi in self.exits:
            if side not in _SIDES:
                raise ConfigurationError(f"unknown boundary side {side!r}")
            if not hi > lo:
                raise ConfigurationError("empty exit segment")
        if not boundary(self).room.any():
            raise ConfigurationError("room holds no cell center")

    @property
    def x1(self) -> float:
        return self.x0 + self.nx * self.dx

    @property
    def y1(self) -> float:
        return self.y0 + self.ny * self.dy

    @property
    def width(self) -> float:
        return self.nx * self.dx

    @property
    def height(self) -> float:
        return self.ny * self.dy

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def xc(self) -> np.ndarray:
        """x coordinates of cell centers, shape (nx,)."""
        return self.x0 + (np.arange(self.nx) + 0.5) * self.dx

    @property
    def yc(self) -> np.ndarray:
        """y coordinates of cell centers, shape (ny,)."""
        return self.y0 + (np.arange(self.ny) + 0.5) * self.dy


class Boundary(NamedTuple):
    """The room and its boundary on one grid; every array is read-only."""

    room: np.ndarray    # (nx, ny): cells whose center lies strictly inside
    xwall: np.ndarray   # (nx + 1, ny): x faces between a room and another cell
    ywall: np.ndarray   # (nx, ny + 1): y faces between a room and another cell
    exits: tuple[np.ndarray, ...]  # exit cells of the left, right, bottom, top

    @property
    def sweeps(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(exit_lo, exit_hi, walls) of the x sweep, then of the transposed y."""
        return (*self.exits[:2], self.xwall), (*self.exits[2:], self.ywall.T)


@lru_cache(maxsize=32)
def boundary(grid: GridSpec) -> Boundary:
    """The one boundary rule: room cells, wall faces and exit cells.

    A cell belongs to the room when its center lies strictly inside the
    room rectangle, so a room edge that falls inside a cell rounds to
    cell centers.  Walls are the interior faces where the room mask
    changes.  An exit holds the room cells on the edge of its side whose
    center lies in its span, widened by 1e-9 of the domain size.
    """
    rx0, ry0, rx1, ry1 = grid.room
    room = np.outer((grid.xc > rx0) & (grid.xc < rx1),
                    (grid.yc > ry0) & (grid.yc < ry1))
    xwall = np.pad(np.not_equal(room[1:], room[:-1]), ((1, 1), (0, 0)))
    ywall = np.pad(np.not_equal(room[:, 1:], room[:, :-1]), ((0, 0), (1, 1)))
    tol = 1e-9 * max(grid.width, grid.height)
    # per side (in _SIDES order): centers along it, its edge room cells
    edges = {"left": (grid.yc, room[0]), "right": (grid.yc, room[-1]),
             "bottom": (grid.xc, room[:, 0]), "top": (grid.xc, room[:, -1])}
    exits = {s: np.zeros(c.shape, dtype=bool) for s, (c, _) in edges.items()}
    for side, lo, hi in grid.exits:
        along, in_room = edges[side]
        exits[side] |= (along > lo - tol) & (along < hi + tol) & in_room
    for a in (room, xwall, ywall, *exits.values()):
        a.flags.writeable = False
    return Boundary(room, xwall, ywall, tuple(exits.values()))


def room_mask(grid: GridSpec) -> np.ndarray:
    """Read-only (nx, ny) mask of the room cells (see boundary)."""
    return boundary(grid).room


def make_grid(bounds: Rect, dx: float, dy: float,
              room: Rect | None = None,
              exits: tuple[Exit, ...] = ()) -> GridSpec:
    """Build a uniform grid tiling `bounds` exactly with dx-by-dy cells.

    Raises ConfigurationError if an extent is not an integer multiple of
    the cell size (relative tolerance 1e-9).
    """
    x0, y0, x1, y1 = bounds
    if not (all(map(math.isfinite, bounds)) and x1 > x0 and y1 > y0):
        raise ConfigurationError("bounds must be a finite nonempty rectangle")
    nx = _divide_extent(x1 - x0, dx, "x")
    ny = _divide_extent(y1 - y0, dy, "y")
    if room is None:
        room = bounds
    return GridSpec(x0=x0, y0=y0, dx=dx, dy=dy, nx=nx, ny=ny,
                    room=room, exits=tuple(exits))


def _divide_extent(length: float, h: float, axis: str) -> int:
    if not 0 < h < math.inf:
        raise ConfigurationError(
            f"cell size on axis {axis} must be positive and finite, got {h}")
    n = length / h
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ConfigurationError(
            f"extent not divisible by cell size on axis {axis}: "
            f"{length} / {h} = {n}")
    return int(round(n))


@dataclass
class PopulationField:
    """Densities of n populations on one grid; data shape (n, nx, ny)."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3 or self.data.shape[1:] != (self.grid.nx, self.grid.ny):
            raise ConfigurationError(
                f"field shape {self.data.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def copy(self) -> "PopulationField":
        return PopulationField(self.grid, self.data.copy())

    @classmethod
    def zeros(cls, grid: GridSpec, n: int) -> "PopulationField":
        return cls(grid, np.zeros((n, grid.nx, grid.ny)))

    @classmethod
    def from_arrays(cls, grid: GridSpec, *arrays: np.ndarray) -> "PopulationField":
        return cls(grid, np.stack([np.asarray(a, dtype=float) for a in arrays]))

    def mass(self) -> np.ndarray:
        """Per-population mass, sum of density times cell area."""
        return self.data.sum(axis=(1, 2)) * self.grid.cell_area


@dataclass(frozen=True)
class NormRecord:
    l1: np.ndarray
    linf: np.ndarray
    tv: np.ndarray

    @property
    def l1_total(self) -> float:
        return float(self.l1.sum())


def indicator_datum(grid: GridSpec, value: float, rect: Rect) -> np.ndarray:
    """Cell averages of value * indicator(rect); exact partial-cell overlap.

    The returned array integrates to value * area(rect) for any grid
    alignment of the rectangle.  A non-finite value, or a rectangle that
    is not finite with x0 < x1 and y0 < y1, raises ConfigurationError.
    """
    if not math.isfinite(value):
        raise ConfigurationError(f"datum value must be finite, got {value}")
    rx0, ry0, rx1, ry1 = rect
    if not (all(map(math.isfinite, rect)) and rx0 < rx1 and ry0 < ry1):
        raise ConfigurationError("datum rectangle must be finite with x0 < x1 "
                                 f"and y0 < y1, got {tuple(rect)}")
    eps = 1e-9 * max(grid.width, grid.height)
    if rx0 < grid.x0 - eps or ry0 < grid.y0 - eps \
            or rx1 > grid.x1 + eps or ry1 > grid.y1 + eps:
        raise ConfigurationError("indicator rectangle lies outside the grid bounds")
    xl = grid.x0 + np.arange(grid.nx) * grid.dx
    yl = grid.y0 + np.arange(grid.ny) * grid.dy
    ox = np.clip(np.minimum(rx1, xl + grid.dx) - np.maximum(rx0, xl), 0.0, grid.dx)
    oy = np.clip(np.minimum(ry1, yl + grid.dy) - np.maximum(ry0, yl), 0.0, grid.dy)
    return value * np.outer(ox, oy) / grid.cell_area


def live_box(*fields: np.ndarray,
             pad: tuple[int, int] = (0, 0)) -> tuple[slice, slice]:
    """Index box (x slice, y slice) of the live cells of float64 fields.

    A cell is live when its bit pattern is nonzero, the test of
    cli._write_rows: -0.0, NaN and inf are live, only +0.0 is not.  Each
    field has shape (..., nx, ny), and the box holds the live cells of
    all of them.  It is widened by pad = (rows, columns) on each side
    and clipped to the grid.  With no live cell both slices are empty.
    """
    nx, ny = fields[0].shape[-2:]
    rows = np.zeros(nx, dtype=bool)
    cols = np.zeros(ny, dtype=bool)
    for f in fields:
        live = (f.view(np.int64) != 0).reshape(-1, nx, ny)
        rows |= live.any(axis=(0, 2))
        cols |= live.any(axis=(0, 1))
    r, c = np.flatnonzero(rows), np.flatnonzero(cols)
    if r.size == 0:
        return slice(0, 0), slice(0, 0)
    pr, pc = pad
    return (slice(max(int(r[0]) - pr, 0), min(int(r[-1]) + 1 + pr, nx)),
            slice(max(int(c[0]) - pc, 0), min(int(c[-1]) + 1 + pc, ny)))


def has_live_cell(f: np.ndarray) -> bool:
    """Whether the float64 field f has a live cell, by live_box's rule."""
    return bool(f.view(np.int64).any())


def norms(fld: PopulationField) -> NormRecord:
    """Discrete L1, Linf and TV per population, deterministic order.

    TV uses forward differences: sum |r[i+1,j]-r[i,j]| dy + |r[i,j+1]-r[i,j]| dx.
    """
    g = fld.grid
    finite = np.isfinite(fld.data).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(
            f"non-finite value in population {int(finite.argmin())}")
    # one stack-sized temporary at a time, each |.| taken in place
    absolute = np.abs(fld.data)
    l1 = absolute.sum(axis=(1, 2)) * g.cell_area
    linf = absolute.max(axis=(1, 2))
    del absolute
    d = np.diff(fld.data, axis=1)
    dxdiff = np.abs(d, out=d).sum(axis=(1, 2)) * g.dy
    d = np.diff(fld.data, axis=2)
    dydiff = np.abs(d, out=d).sum(axis=(1, 2)) * g.dx
    return NormRecord(l1=l1, linf=linf, tv=dxdiff + dydiff)
