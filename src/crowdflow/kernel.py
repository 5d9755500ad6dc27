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

    def __call__(self, x, y):
        return self.fx(np.asarray(x, dtype=float)) * self.fy(np.asarray(y, dtype=float))


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
    """Kernel sampled on a grid: convolution and derivative matrices.

    A[i, h] = a(x_i - x_h) dx          (nx, nx)
    B[k, j] = b(y_j - y_k) dy          (ny, ny)
    Ax, By: same with a', b'.
    """

    A: np.ndarray
    B: np.ndarray
    Ax: np.ndarray
    By: np.ndarray
    mass: float
    bandwidth_x: int
    bandwidth_y: int
    spec: KernelSpec
    grid: GridSpec


def _toeplitz(taps: np.ndarray, n: int) -> np.ndarray:
    """(n, n) matrix with M[i, h] = taps[band + i - h] where |i - h| <= band
    (taps has 2 band + 1 entries, band < n) and 0 elsewhere, written
    diagonal by diagonal."""
    band = (len(taps) - 1) // 2
    m = np.zeros((n, n))
    flat = m.reshape(-1)
    for d in range(-band, band + 1):
        start = d * n if d >= 0 else -d  # first entry of diagonal i - h = d
        flat[start::n + 1][:n - abs(d)] = taps[band + d]
    return m


def _axis_matrices(profile: Profile, deriv: Profile, n: int, h: float,
                   half_width: float) -> tuple[np.ndarray, np.ndarray, float, int]:
    # offsets between cell centers are integer multiples of h, so the
    # profile is evaluated once per offset within the band
    band = int(np.ceil(half_width / h))
    ks = np.arange(-band, band + 1) * h
    inside = np.abs(ks) <= half_width + 1e-12 * half_width
    vals = np.where(inside, profile(ks), 0.0)
    dvals = np.where(inside, deriv(ks), 0.0)
    return (_toeplitz(vals * h, n), _toeplitz(dvals * h, n),
            float(np.sum(vals) * h), band)


def sample_kernel(spec: KernelSpec, grid: GridSpec) -> SampledKernel:
    if spec.half_width_x < grid.dx or spec.half_width_y < grid.dy:
        raise ConfigurationError("kernel support smaller than one cell")
    if 2 * spec.half_width_x > grid.width or 2 * spec.half_width_y > grid.height:
        raise ConfigurationError("kernel support does not fit inside the grid")
    A, Ax, mx, bx = _axis_matrices(spec.fx, spec.dfx, grid.nx, grid.dx,
                                   spec.half_width_x)
    By_base, By, my, by = _axis_matrices(spec.fy, spec.dfy, grid.ny, grid.dy,
                                         spec.half_width_y)
    # B acts from the right: B[k, j] = b(y_j - y_k) dy.  The profile b is
    # sampled on (y_k - y_j), so transpose; for even b this is a no-op but
    # the derivative matrix changes sign under it.
    B = By_base.T
    By = By.T
    if spec.normalize:
        if mx <= 0 or my <= 0:
            raise ConfigurationError("cannot normalize a kernel with zero mass")
        A, Ax = A / mx, Ax / mx
        B, By = B / my, By / my
        mass = 1.0
    else:
        mass = mx * my
    if mass <= 0:
        raise ConfigurationError("kernel mass must be positive")
    return SampledKernel(A=A, B=B, Ax=Ax, By=By, mass=mass,
                         bandwidth_x=bx, bandwidth_y=by, spec=spec, grid=grid)


def convolve(field: np.ndarray, k: SampledKernel) -> np.ndarray:
    """Discrete 2D convolution of a (nx, ny) field with the sampled kernel.

    Equals sum_{h,l} eta(x_i - x_h, y_j - y_l) field[h, l] dx dy with the
    field extended by zero outside the domain.
    """
    _check_shape(field, k)
    return _sandwich(k.A, field, k.B, k, np.empty(field.shape))


def convolve_gradient(field: np.ndarray, k: SampledKernel,
                      out: np.ndarray | None = None,
                      left: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the convolved field, shape (2, nx, ny).

    Computed as field * grad(eta) with analytically differentiated kernel
    factors: x component uses (Ax, B), y component uses (A, By).  The
    result goes into out and the left products into left, when given:
    arrays of shape (2, nx, ny) and (nx, ny).
    """
    _check_shape(field, k)
    if out is None:
        out = np.empty((2,) + field.shape)
    _sandwich(k.Ax, field, k.B, k, out[0], left)
    _sandwich(k.A, field, k.By, k, out[1], left)
    return out


_BLOCK = 32  # rows per block of a banded product


def _band_left(M: np.ndarray, X: np.ndarray, b: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """M @ X for a square M whose entries vanish more than b off the
    diagonal, one dense product per block of _BLOCK rows."""
    n = M.shape[0]
    if out is None:
        out = np.empty((n,) + X.shape[1:])
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        lo, hi = max(0, i0 - b), min(n, i1 + b)
        np.matmul(M[i0:i1, lo:hi], X[lo:hi], out=out[i0:i1])
    return out


def _sandwich(L: np.ndarray, field: np.ndarray, R: np.ndarray,
              k: SampledKernel, out: np.ndarray,
              left: np.ndarray | None = None) -> np.ndarray:
    """out = (L @ field) @ R for x-axis L and y-axis R of the kernel k,
    with L @ field in left when given."""
    left = _band_left(L, field, k.bandwidth_x, out=left)
    _band_left(R.T, left.T, k.bandwidth_y, out=out.T)
    return out


def _check_shape(field: np.ndarray, k: SampledKernel) -> None:
    if field.shape != (k.A.shape[0], k.B.shape[0]):
        raise ConfigurationError(
            f"field shape {field.shape} does not match kernel grid "
            f"({k.A.shape[0]}, {k.B.shape[0]})")
