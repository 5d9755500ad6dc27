"""Nonlocal deviation operators.

A deviation operator maps the whole multi-population density field to
one 2-vector field per population and cell: a new float array of shape
(n, 2, nx, ny), which the solver completes in place.  The
built-in one is gradient avoidance, I_i = -sum_j eps_ij N(grad(rho_j
conv eta)): population i steers away from increasing smoothed density
of every population j, with the saturation N keeping the Lipschitz
hypothesis that controls all deviation-model bounds.  It computes,
saturates and sums each term only on rho_j's live box (grid.live_box)
widened by the kernel's bandwidths, where the smoothed gradient can be
nonzero.
Custom operators are any callables of the same signature.  The module
holds operators only; the sampled Lipschitz constant of an operator is
analysis.estimate_ci.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .grid import PopulationField, live_box
from .kernel import SampledKernel, convolve_gradient

NonlocalOperator = Callable[[PopulationField], np.ndarray]


def saturate(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cellwise u / sqrt(1 + |u|^2); output magnitude strictly below 1.

    out may be u itself.
    """
    mag2 = u[0] ** 2
    mag2 += u[1] ** 2
    mag2 += 1.0
    return np.divide(u, np.sqrt(mag2, out=mag2)[None, :, :], out=out)


def gradient_avoidance(state: PopulationField, eps: np.ndarray,
                       k: SampledKernel) -> np.ndarray:
    """I_i = -sum_j eps_ij N(grad(rho_j conv eta)), shape (n, 2, nx, ny).

    Each saturated gradient is computed once, and only for a nonzero
    column of the (n, n) matrix eps; the terms are summed in j order.
    |I_i| is at most sum_j |eps_ij|.  The kernel's matrices vanish more
    than their bandwidth off the diagonal, so the gradient of rho_j is
    zero outside rho_j's live box widened by the bandwidths: it is
    computed (convolve_gradient's box), saturated and its eps terms are
    subtracted only there, and not at all for an empty rho_j, which
    leaves every bit of I as the whole grid gives it for finite data and
    eps.  The call reuses one gradient buffer, saturated in place, and
    one grid-sized scratch for the left products and every eps term.
    """
    n, g = state.n, state.grid
    if eps.shape != (n, n):
        raise ConfigurationError(
            f"avoidance matrix of shape {eps.shape} for {n} populations")
    out = np.zeros((n, 2, g.nx, g.ny))
    G = np.empty((2, g.nx, g.ny))
    scratch = np.empty((g.nx, g.ny))
    for j in range(n):
        if not eps[:, j].any():
            continue
        rows, cols = live_box(state.data[j],
                              pad=(k.bandwidth_x, k.bandwidth_y))
        if rows.start == rows.stop:
            continue
        convolve_gradient(state.data[j], k, G, scratch, box=(rows, cols))
        Gw = G[:, rows, cols]
        saturate(Gw, out=Gw)
        term = scratch[rows, cols]
        for i in range(n):
            for c in (0, 1):
                out[i, c, rows, cols] -= np.multiply(eps[i, j], Gw[c],
                                                     out=term)
    return out


@dataclass(frozen=True)
class GradientAvoidance:
    """The gradient-avoidance deviation operator with coefficient matrix
    eps (row i, column j: avoidance of population j by population i)."""

    eps: np.ndarray
    kernel: SampledKernel

    def __post_init__(self):
        eps = np.array(self.eps, dtype=float)
        if eps.ndim != 2 or eps.shape[0] != eps.shape[1]:
            raise ConfigurationError(
                f"avoidance matrix must be square, got shape {eps.shape}")
        if not np.isfinite(eps).all():
            raise ConfigurationError("avoidance matrix has a non-finite entry")
        eps.flags.writeable = False
        object.__setattr__(self, "eps", eps)

    def __call__(self, state: PopulationField) -> np.ndarray:
        return gradient_avoidance(state, self.eps, self.kernel)
