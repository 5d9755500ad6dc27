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
Given a shared gradient array G and an exchange of boxes, the same
function gives the rows of some populations only: those that one of
the processes stepping a field's populations in parallel holds
(analysis.run_tables).
Custom operators are any callables of the same signature.  The module
holds operators only; the sampled Lipschitz constant of an operator is
analysis.estimate_ci.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

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
                       k: SampledKernel, G: np.ndarray | None = None,
                       share: Callable[[np.ndarray], np.ndarray] | None = None,
                       ) -> np.ndarray:
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

    With G and share, state holds populations first, first + 1, ... of
    the len(G) that processes step side by side: the call saturates its
    own gradients into G[j], an (n, 2, nx, ny) array in memory they
    share, share(boxes) exchanges the boxes (all four bounds 0 where j
    is skipped), and it returns state's rows of the one-process call,
    bit for bit.  The caller shares a value, such as its time step,
    before any process computes the next gradients, so that no process
    overwrites a G_j that another still reads.
    """
    g = state.grid
    _check_eps(eps, state.n if G is None else len(G))
    first = 0 if G is None else state.first
    out = np.zeros((state.n, 2, g.nx, g.ny))
    scratch = np.empty((g.nx, g.ny))
    for j, Gj, box in _gradients(state, eps, k, scratch, G, share):
        for i, out_i in enumerate(out, first):
            _subtract_term(out_i, eps[i, j], Gj, box, scratch)
    return out


def _gradients(state: PopulationField, eps: np.ndarray, k: SampledKernel,
               scratch: np.ndarray, G: np.ndarray | None,
               share: Callable[[np.ndarray], np.ndarray] | None,
               ) -> Iterator[tuple[int, np.ndarray, tuple[slice, slice]]]:
    """(j, N(grad(rho_j conv eta)), its box) for each population j whose
    term gradient_avoidance subtracts, in j order.  Without G, each is
    computed into one (2, nx, ny) buffer as it is taken; with G, state's
    own are saturated into G and every process's boxes are shared first.
    """
    if G is None:
        buf = np.empty((2, state.grid.nx, state.grid.ny))
        for j, rho in enumerate(state.data):
            if eps[:, j].any():
                box = _saturated_gradient(rho, k, buf, scratch)
                if box[0].start < box[0].stop:
                    yield j, buf, box
        return
    boxes = np.zeros((state.n, 4))
    for b, rho in enumerate(state.data):
        j = state.first + b
        if eps[:, j].any():
            rows, cols = _saturated_gradient(rho, k, G[j], scratch)
            boxes[b] = rows.start, rows.stop, cols.start, cols.stop
    for j, (r0, r1, c0, c1) in enumerate(share(boxes).reshape(-1, 4)
                                         .astype(int)):
        if r0 < r1:
            yield j, G[j], (slice(r0, r1), slice(c0, c1))


def _check_eps(eps: np.ndarray, n: int) -> None:
    if eps.shape != (n, n):
        raise ConfigurationError(
            f"avoidance matrix of shape {eps.shape} for {n} populations")


def _saturated_gradient(rho: np.ndarray, k: SampledKernel, G: np.ndarray,
                        scratch: np.ndarray) -> tuple[slice, slice]:
    """N(grad(rho conv eta)) into G, (2, nx, ny), on rho's live box
    widened by the kernel's bandwidths, which it returns (empty, and G
    untouched, for an empty rho); scratch takes the left products."""
    rows, cols = live_box(rho, pad=(k.bandwidth_x, k.bandwidth_y))
    if rows.start < rows.stop:
        convolve_gradient(rho, k, G, scratch, box=(rows, cols))
        Gw = G[:, rows, cols]
        saturate(Gw, out=Gw)
    return rows, cols


def _subtract_term(out: np.ndarray, e: float, G: np.ndarray,
                   box: tuple[slice, slice], scratch: np.ndarray) -> None:
    """out -= e G on box, for (2, nx, ny) out and G, with each product
    in scratch."""
    rows, cols = box
    term = scratch[rows, cols]
    for c in (0, 1):
        out[c, rows, cols] -= np.multiply(e, G[c, rows, cols], out=term)


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
