"""Nonlocal deviation operators.

A deviation operator maps the whole multi-population density field to
one 2-vector field per population and cell: a new float array of shape
(n, 2, nx, ny), which the solver completes in place.  The
built-in one is gradient avoidance, I_i = -sum_j eps_ij N(grad(rho_j
conv eta)): population i steers away from increasing smoothed density
of every population j, with the saturation N keeping the Lipschitz
hypothesis that controls all deviation-model bounds.  Flux push (get
dragged by another population's smoothed flux) is a single-term leaf
for custom operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, EstimationError
from .grid import GridSpec, PopulationField
from .kernel import SampledKernel, convolve, convolve_gradient
from .velocity import DirectionField, SpeedLaw

NonlocalOperator = Callable[[PopulationField], np.ndarray]


def saturate(u: np.ndarray) -> np.ndarray:
    """Cellwise u / sqrt(1 + |u|^2); output magnitude strictly below 1."""
    mag2 = u[0] ** 2 + u[1] ** 2
    return u / np.sqrt(1.0 + mag2)[None, :, :]


def gradient_avoidance(state: PopulationField, eps: np.ndarray,
                       k: SampledKernel) -> np.ndarray:
    """I_i = -sum_j eps_ij N(grad(rho_j conv eta)), shape (n, 2, nx, ny).

    Each saturated gradient is computed once, and only for a nonzero
    column of the (n, n) matrix eps; the terms are summed in j order.
    |I_i| is at most sum_j |eps_ij|.
    """
    n, g = state.n, state.grid
    if eps.shape != (n, n):
        raise ConfigurationError(
            f"avoidance matrix of shape {eps.shape} for {n} populations")
    out = np.zeros((n, 2, g.nx, g.ny))
    for j in range(n):
        if eps[:, j].any():
            G = saturate(convolve_gradient(state.data[j], k))
            for i in range(n):
                out[i] -= eps[i, j] * G
    return out


def flux_push(state: PopulationField, j: int, law: SpeedLaw,
              direction: DirectionField, k: SampledKernel) -> np.ndarray:
    """N of the componentwise convolution of rho_j v(rho_j) dir_j."""
    q = law.q(state.data[j])
    flux = q[None, :, :] * direction.total
    conv = np.stack([convolve(flux[0], k), convolve(flux[1], k)])
    return saturate(conv)


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
        eps.flags.writeable = False
        object.__setattr__(self, "eps", eps)

    def __call__(self, state: PopulationField) -> np.ndarray:
        return gradient_avoidance(state, self.eps, self.kernel)


def _cd_gradient(f: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    gx = np.gradient(f, grid.dx, axis=0)
    gy = np.gradient(f, grid.dy, axis=1)
    return gx, gy


def _divergence(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    return np.gradient(u[0], grid.dx, axis=0) + np.gradient(u[1], grid.dy, axis=1)


def estimate_ci(op: NonlocalOperator,
                samples: Sequence[PopulationField]) -> np.ndarray:
    """Empirical lower bound for the Lipschitz constant of each
    population's deviation I_i, shape (n,).

    Evaluates the operator once per sample and, for each population,
    maximizes the four defining ratios over sample pairs (sup and L1-of-
    divergence Lipschitz quotients) and single samples (sup of gradient
    and L1 of gradient-of-divergence against the L1 norm of the density).
    Divergences and gradients use second-order central differences.
    """
    if len(samples) < 2:
        raise EstimationError("need at least two density samples")
    grid = samples[0].grid
    area = grid.cell_area
    vals = [op(s) for s in samples]
    l1s = [float(np.abs(s.data).sum()) * area for s in samples]
    pairs = []
    for (s1, I1), (s2, I2) in combinations(zip(samples, vals), 2):
        dl1 = float(np.abs(s1.data - s2.data).sum()) * area
        if dl1 != 0.0:
            pairs.append((dl1, I1, I2))
    if not pairs:
        raise EstimationError("all sample pairs are identical")
    best = np.zeros(samples[0].n)
    for i in range(len(best)):
        # single-sample ratios
        for l1, I in zip(l1s, vals):
            if l1 == 0.0:
                continue
            grad_sup = 0.0
            for comp in I[i]:
                gx, gy = _cd_gradient(comp, grid)
                grad_sup = max(grad_sup, float((np.abs(gx) + np.abs(gy)).max()))
            div = _divergence(I[i], grid)
            dgx, dgy = _cd_gradient(div, grid)
            graddiv_l1 = float((np.abs(dgx) + np.abs(dgy)).sum()) * area
            best[i] = max(best[i], grad_sup / l1, graddiv_l1 / l1)
        # pair ratios
        for dl1, I1, I2 in pairs:
            dI = I1[i] - I2[i]
            sup = float((np.abs(dI[0]) + np.abs(dI[1])).max())
            ddiv_l1 = float(np.abs(_divergence(dI, grid)).sum()) * area
            best[i] = max(best[i], sup / dl1, ddiv_l1 / dl1)
    return best
