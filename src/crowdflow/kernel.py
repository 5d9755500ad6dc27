"""Separable smoothing kernels and matrix-product convolution.

A kernel eta(x, y) = a(x) b(y) with compact support is sampled at cell
center offsets into banded Toeplitz matrices A (x axis) and B (y axis),
so that the discrete convolution of a field F is A @ F @ B.  Derivative
matrices built from a' and b' give the gradient of the convolution
without differencing the convolved field.

An entry more than the bandwidth b off the diagonal is zero, so the
products are taken in row blocks: rows [i0, i1) of A @ F read only the
columns [i0 - b, i1 + b) of A and the same rows of F, one dense product
per block.  The right factor is applied the same way to the transposes,
F @ B = (B^T F^T)^T.  A grid of at most one block is one dense product.
Only these blocks are stored, built from the per-axis taps: no (n, n)
matrix is ever made.  A gradient wanted only on a box of cells skips
the blocks whose output rows miss the box; every product it keeps has
the shape and data of the whole-grid one, so the box keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec

Profile = Callable[[np.ndarray], np.ndarray]


def _bump(x: np.ndarray) -> np.ndarray:
    u = 1.0 - (2.0 * x) ** 2
    return np.where(u > 0.0, np.maximum(u, 0.0) ** 3, 0.0)


def _bump_deriv(x: np.ndarray) -> np.ndarray:
    u = 1.0 - (2.0 * x) ** 2
    return np.where(u > 0.0, -24.0 * x * np.maximum(u, 0.0) ** 2, 0.0)


@dataclass(frozen=True)
class KernelSpec:
    """Separable kernel description: per-axis profile, derivative, half-width."""

    fx: Profile
    dfx: Profile
    fy: Profile
    dfy: Profile
    half_width_x: float
    half_width_y: float
    normalize: bool = False

    def __post_init__(self):
        for hw in (self.half_width_x, self.half_width_y):
            if not 0 < hw < math.inf:
                raise ConfigurationError(
                    f"kernel half width must be positive and finite, got {hw}")


def bump_kernel(half_width: float = 0.5, normalize: bool = False) -> KernelSpec:
    """Polynomial bump [1-(2x/w)^2]_+^3 per axis, support [-w/2, w/2]^2.

    With half_width 0.5 this is the experiments' kernel; its continuum
    1D mass is 16/35 per axis.
    """
    # the scale 0.5 / w is taken at each call, so that KernelSpec, not a
    # division here, rejects a zero width

    def f(x, _w=half_width):
        return _bump(0.5 / _w * x)

    def df(x, _w=half_width):
        return 0.5 / _w * _bump_deriv(0.5 / _w * x)

    return KernelSpec(fx=f, dfx=df, fy=f, dfy=df,
                      half_width_x=half_width, half_width_y=half_width,
                      normalize=normalize)


@dataclass(frozen=True)
class SampledKernel:
    """Kernel sampled on a grid, stored as the row blocks of its banded
    convolution and derivative matrices.

    A[i, h] = a(x_i - x_h) dx          (nx, nx)
    B[k, j] = b(y_j - y_k) dy          (ny, ny)
    Ax, By: same with a', b'.

    A_blocks and Ax_blocks hold the row blocks of A and Ax, Bt_blocks
    and Byt_blocks those of B^T and By^T, the factors of the transposed
    right product.  Block q of an (n, n) matrix is its rows [i0, i1) =
    [q _BLOCK, min((q + 1) _BLOCK, n)) and columns [max(0, i0 - band),
    min(n, i1 + band)), read-only and C-contiguous; full interior blocks
    of one matrix are one array.
    """

    A_blocks: tuple[np.ndarray, ...]
    Ax_blocks: tuple[np.ndarray, ...]
    Bt_blocks: tuple[np.ndarray, ...]
    Byt_blocks: tuple[np.ndarray, ...]
    mass: float
    bandwidth_x: int
    bandwidth_y: int
    spec: KernelSpec
    grid: GridSpec


_BLOCK = 32  # rows per block of a banded product


def _block_bounds(n: int, band: int):
    """(i0, i1, lo, hi) of each row block of a banded (n, n) product."""
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        yield i0, i1, max(0, i0 - band), min(n, i1 + band)


def _band_blocks(taps: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Row blocks of the (n, n) matrix M[i, h] = taps[band + i - h] where
    |i - h| <= band (taps has 2 band + 1 entries) and +0.0 elsewhere."""
    band = (len(taps) - 1) // 2
    rows = min(_BLOCK, n)
    # block q is a window of the block whose columns start at i0 - band:
    # its row r holds the taps backwards from column r
    full = np.zeros((rows, rows + 2 * band))
    for r in range(rows):
        full[r, r:r + 2 * band + 1] = taps[::-1]
    blocks = tuple(np.ascontiguousarray(full[:i1 - i0, lo - i0 + band:
                                             hi - i0 + band])
                   for i0, i1, lo, hi in _block_bounds(n, band))
    for blk in blocks:
        blk.flags.writeable = False
    return blocks


def _axis_taps(profile: Profile, deriv: Profile, h: float,
               half_width: float) -> tuple[np.ndarray, np.ndarray, float, int]:
    # offsets between cell centers are integer multiples of h, so the
    # profile is evaluated once per offset within the band
    band = int(np.ceil(half_width / h))
    ks = np.arange(-band, band + 1) * h
    inside = np.abs(ks) <= half_width + 1e-12 * half_width
    vals = np.where(inside, profile(ks), 0.0)
    dvals = np.where(inside, deriv(ks), 0.0)
    return vals * h, dvals * h, float(np.sum(vals) * h), band


def sample_kernel(spec: KernelSpec, grid: GridSpec) -> SampledKernel:
    if spec.half_width_x < grid.dx or spec.half_width_y < grid.dy:
        raise ConfigurationError("kernel support smaller than one cell")
    if 2 * spec.half_width_x > grid.width or 2 * spec.half_width_y > grid.height:
        raise ConfigurationError("kernel support does not fit inside the grid")
    a, da, mx, band_x = _axis_taps(spec.fx, spec.dfx, grid.dx,
                                   spec.half_width_x)
    b, db, my, band_y = _axis_taps(spec.fy, spec.dfy, grid.dy,
                                   spec.half_width_y)
    # B acts from the right: B[k, j] = b(y_j - y_k) dy, so B^T, the factor
    # of the transposed product, is sampled on (y_k - y_j) like A
    if spec.normalize:
        if mx <= 0 or my <= 0:
            raise ConfigurationError("cannot normalize a kernel with zero mass")
        a, da, b, db = a / mx, da / mx, b / my, db / my
        mass = 1.0
    else:
        mass = mx * my
    if mass <= 0:
        raise ConfigurationError("kernel mass must be positive")
    return SampledKernel(
        A_blocks=_band_blocks(a, grid.nx), Ax_blocks=_band_blocks(da, grid.nx),
        Bt_blocks=_band_blocks(b, grid.ny), Byt_blocks=_band_blocks(db, grid.ny),
        mass=mass, bandwidth_x=band_x, bandwidth_y=band_y, spec=spec,
        grid=grid)


def convolve(field: np.ndarray, k: SampledKernel) -> np.ndarray:
    """Discrete 2D convolution of a (nx, ny) field with the sampled kernel.

    Equals sum_{h,l} eta(x_i - x_h, y_j - y_l) field[h, l] dx dy with the
    field extended by zero outside the domain.
    """
    _check_shape(field, k)
    return _sandwich(k.A_blocks, field, k.Bt_blocks, k, np.empty(field.shape))


def convolve_gradient(field: np.ndarray, k: SampledKernel,
                      out: np.ndarray | None = None,
                      left: np.ndarray | None = None,
                      box: tuple[slice, slice] | None = None) -> np.ndarray:
    """Gradient of the convolved field, shape (2, nx, ny).

    Computed as field * grad(eta) with analytically differentiated kernel
    factors: x component uses (Ax, B), y component uses (A, By).  The
    result goes into out and the left products into left, when given:
    arrays of shape (2, nx, ny) and (nx, ny).  With box, an (x slice,
    y slice) pair, only the row blocks whose outputs meet the box are
    multiplied: x blocks of the left products, which write +0.0 into the
    rows they skip, and y blocks of the right ones.  out then holds the
    whole-grid result, bit for bit, on the box; outside it, out is
    unspecified.
    """
    _check_shape(field, k)
    if out is None:
        out = np.empty((2,) + field.shape)
    _sandwich(k.Ax_blocks, field, k.Bt_blocks, k, out[0], left, box)
    _sandwich(k.A_blocks, field, k.Byt_blocks, k, out[1], left, box)
    return out


def _band_left(blocks: tuple[np.ndarray, ...], X: np.ndarray, b: int,
               out: np.ndarray, rows: slice,
               clear: bool = False) -> np.ndarray:
    """M @ X for the (n, n) matrix M stored as the row blocks of a band
    of width b, one dense product per block.  Only the blocks that meet
    rows are multiplied; with clear, the rows of the others are +0.0,
    and otherwise they keep what out held."""
    n = X.shape[0]
    r0, r1, _ = rows.indices(n)
    for blk, (i0, i1, lo, hi) in zip(blocks, _block_bounds(n, b)):
        if i0 < r1 and i1 > r0:
            np.matmul(blk, X[lo:hi], out=out[i0:i1])
        elif clear:
            out[i0:i1] = 0.0
    return out


def _sandwich(L: tuple[np.ndarray, ...], field: np.ndarray,
              Rt: tuple[np.ndarray, ...], k: SampledKernel, out: np.ndarray,
              left: np.ndarray | None = None,
              box: tuple[slice, slice] | None = None) -> np.ndarray:
    """out = (L @ field) @ R for the blocks L of an x-axis matrix and Rt
    of a transposed y-axis matrix R of the kernel k, with L @ field in
    left when given, on box when given (see convolve_gradient)."""
    rows, cols = box if box is not None else (slice(None), slice(None))
    if left is None:
        left = np.empty(field.shape)
    _band_left(L, field, k.bandwidth_x, left, rows, clear=True)
    _band_left(Rt, left.T, k.bandwidth_y, out.T, cols)
    return out


def _check_shape(field: np.ndarray, k: SampledKernel) -> None:
    if field.shape != (k.grid.nx, k.grid.ny):
        raise ConfigurationError(
            f"field shape {field.shape} does not match kernel grid "
            f"({k.grid.nx}, {k.grid.ny})")
