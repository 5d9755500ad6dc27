"""A-priori bound evaluators of the deviation family.

All estimates are worst-case envelopes: comparisons assert domination
only, never tightness, and slack factors of several orders of magnitude
are normal.  Exponents can exceed float range for rough data; the
stability evaluator therefore also reports the bound in log space.
The differentiable family's L-infinity, TV and stability estimates are
the paper's and are not evaluated: their factor exp(k1 t) overflows
before the first output time.
The envelope inputs are measured here too: the sup of grad V, the
direction-field norms and the sampled C_I (estimate_ci) all differentiate
on the grid by one central-difference rule.  RunningEnvelope keeps the
running sup of grad V along a run and evaluates from it every envelope
the commands write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, EstimationError
from .grid import GridSpec, PopulationField, norms
from .kernel import KernelSpec
from .nonlocal_ops import NonlocalOperator
from .solver import DEVIATION, ModelSpec, StepReport
from .velocity import DirectionField

LOG_MAX = 700.0  # exp argument beyond which float64 overflows


def wd(d: int) -> float:
    """int_0^{pi/2} cos(theta)^d dtheta, by the Wallis recursion
    W_0 = pi/2, W_1 = 1, W_d = (d - 1)/d W_{d-2}."""
    if d < 0 or int(d) != d:
        raise ConfigurationError("dimension must be a nonnegative integer")
    d = int(d)
    val = math.pi / 2 if d % 2 == 0 else 1.0
    for k in range(2 + d % 2, d + 1, 2):
        val *= (k - 1) / k
    return val


@dataclass
class BoundInputs:
    """Norms feeding the deviation family's envelopes; every field is read
    by tv_bound_deviation or stability_bound_deviation, so one left NaN
    gives a NaN envelope, which counts as violated.

    tv0 is the total variation of the initial datum; speed-law norms are
    over the certified density range; direction norms are discrete sup/L1
    norms (direction_norms); ci is the sampled Lipschitz constant of the
    deviation (estimate_ci).  grad_v_sup is the measured running sup of
    the gradient of the assembled advection field.
    """

    d: int = 2
    tv0: float = math.nan
    q_sup: float = math.nan
    dq_sup: float = math.nan
    vec_sup: float = math.nan
    div_sup: float = math.nan
    divvec_l1: float = math.nan
    graddiv_l1: float = math.nan
    ci: float = math.nan
    grad_v_sup: float = math.nan


def kappa0(inputs: BoundInputs) -> float:
    """(2d + 1) sup|q'| sup|grad V|."""
    return (2 * inputs.d + 1) * inputs.dq_sup * inputs.grad_v_sup


def tv_bound_deviation(t: float, inputs: BoundInputs) -> float:
    """TV envelope of the deviation model at time t."""
    k0 = kappa0(inputs)
    cd = inputs.d * wd(inputs.d)
    growth = _exp(k0 * t)
    return (_prod(inputs.tv0, growth)
            + _prod(cd, growth, inputs.q_sup, inputs.ci + inputs.div_sup, t))


@dataclass
class ParameterDeltas:
    """Norms of the differences between two deviation-family models."""

    drho0_l1: float = 0.0
    dq_sup: float = 0.0       # sup |q1 - q2|
    ddq_sup: float = 0.0      # sup |q1' - q2'|
    dvec_sup: float = 0.0     # sup |vec v1 - vec v2|
    ddivvec_l1: float = 0.0   # L1 of div(vec v1 - vec v2)


@dataclass(frozen=True)
class StabilityBound:
    value: float       # inf when the bound exceeds the float range
    log_value: float   # log of the bound: finite when it fits in a float,
                       # +inf when it does not, -inf for a zero bound
    a: float
    b: float


def stability_bound_deviation(t: float, inputs1: BoundInputs,
                              inputs2: BoundInputs,
                              deltas: ParameterDeltas) -> StabilityBound:
    """Gronwall-type L1 distance envelope for two deviation-model runs.

    Evaluates the growth functions a(t) (parameter-difference forcing)
    and b(t) (Lipschitz feedback rate) and returns
    (1 + t exp(t b)) (||rho0 difference||_L1 + a(t)).
    """
    ci = inputs1.ci
    k0 = kappa0(inputs1)
    cd = inputs1.d * wd(inputs1.d)
    tv_growth = (inputs1.tv0
                 + t * cd * inputs1.q_sup * (ci + inputs1.graddiv_l1))
    ek = _exp(k0 * t)
    a = t * (_prod(ci + inputs2.vec_sup, ek, tv_growth, deltas.ddq_sup)
             + (ci + inputs2.divvec_l1) * deltas.dq_sup
             + inputs1.q_sup * deltas.ddivvec_l1
             + _prod(ek, inputs1.dq_sup, tv_growth, deltas.dvec_sup))
    b = _prod(ci, _prod(ek, inputs1.dq_sup, tv_growth) + inputs1.q_sup)
    value, log_value = _gronwall(t, t * b, deltas.drho0_l1 + a)
    return StabilityBound(value=value, log_value=log_value, a=a, b=b)


def _prod(*factors: float) -> float:
    """Product in argument order; 0 when any factor is 0, even next to an
    overflowed (infinite) factor, so a vanishing term contributes 0."""
    out = 1.0
    for x in factors:
        if x == 0.0:
            return 0.0
        out *= x
    return out


def _gronwall(c: float, x: float, base: float) -> tuple[float, float]:
    """(value, log value) of the envelope (1 + c exp(x)) base, for
    c, x, base >= 0.

    A zero base gives 0 whatever the factor.  Past the float range the
    value is inf and the log is evaluated in log space, where the 1 is
    negligible: finite when it fits in a float, +inf otherwise.  NaN
    (from inputs left NaN) stays NaN.
    """
    if math.isnan(x) or math.isnan(base):
        return math.nan, math.nan
    if base == 0.0:
        return 0.0, -math.inf
    growth = c * math.exp(x) if x < LOG_MAX else math.inf
    if growth < math.inf:
        value = (1.0 + growth) * base
        if value < math.inf:
            return value, math.log(value)
        return math.inf, math.log1p(growth) + math.log(base)
    return math.inf, math.log(c) + x + math.log(base)


# ---------------------------------------------------------------------------
# grid differences: every norm below takes its partial derivatives from
# _diff, second-order central differences (one-sided at the edges)


def _diff(f: np.ndarray, grid: GridSpec, axis: int,
          out: np.ndarray | None = None) -> np.ndarray:
    """d f / d(axis) of an (nx, ny) array, into out when given: central
    differences inside, one-sided ones at the two edges (np.gradient's
    rule and arithmetic, bit for bit)."""
    h = grid.dx if axis == 0 else grid.dy
    if f.shape[axis] < 2:
        raise ValueError("differences need 2 cells along the axis")
    if out is None:
        out = np.empty(f.shape)
    src, dst = (f, out) if axis == 0 else (f.T, out.T)
    np.subtract(src[2:], src[:-2], out=dst[1:-1])
    dst[1:-1] /= 2.0 * h
    np.subtract(src[1], src[0], out=dst[0])
    dst[0] /= h
    np.subtract(src[-1], src[-2], out=dst[-1])
    dst[-1] /= h
    return out


def _jacobian_norm1(u: np.ndarray, grid: GridSpec,
                    work: np.ndarray | None = None) -> np.ndarray:
    """|d0 u0| + |d1 u0| + |d0 u1| + |d1 u1|, added in that order.

    work, a (2, nx, ny) array, holds the sum (returned) and each term.
    """
    total, term = np.empty((2,) + u.shape[1:]) if work is None else work
    np.abs(_diff(u[0], grid, 0, out=total), out=total)
    for comp, axis in ((u[0], 1), (u[1], 0), (u[1], 1)):
        total += np.abs(_diff(comp, grid, axis, out=term), out=term)
    return total


def _divergence(u: np.ndarray, grid: GridSpec,
                work: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """d0 u0 + d1 u1 of a (2, nx, ny) field.

    work, two (nx, ny) arrays, holds the sum (returned) and one term.
    """
    if work is None:
        work = np.empty(u.shape[1:]), np.empty(u.shape[1:])
    total, term = work
    _diff(u[0], grid, 0, out=total)
    total += _diff(u[1], grid, 1, out=term)
    return total


def _gradient_norm1(f: np.ndarray, grid: GridSpec,
                    work: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """|d0 f| + |d1 f| per cell of an (nx, ny) array.

    work, two (nx, ny) arrays, holds the sum (returned) and one term.
    """
    if work is None:
        work = np.empty(f.shape), np.empty(f.shape)
    total, term = work
    np.abs(_diff(f, grid, 0, out=total), out=total)
    total += np.abs(_diff(f, grid, 1, out=term), out=term)
    return total


# ---------------------------------------------------------------------------
# norm helpers feeding BoundInputs


def sup_gradient(V: np.ndarray, grid: GridSpec,
                 out: np.ndarray | None = None) -> float:
    """Sup over cells of the entrywise 1-norm of the velocity Jacobian.

    Accepts (2, nx, ny) or (n, 2, nx, ny); central differences.  out, a
    (2, nx, ny) array, is the scratch of the differences and their sum.
    """
    if V.ndim == 3:
        V = V[None]
    return max(0.0, *(float(_jacobian_norm1(vi, grid, out).max())
                      for vi in V))


_SCAN_ROWS = 32  # rows per block of the kernel_norms scan


def kernel_norms(spec: KernelSpec, samples: int = 1201) -> dict:
    """Sup norms of the first and second derivatives of eta, by dense scan.

    No envelope reads them.
    The samples x samples products are scanned _SCAN_ROWS rows at a
    time, so no temporary outgrows one block.  Each maximum is exact,
    hence the same floats as one dense scan.
    """
    xs = np.linspace(-spec.half_width_x, spec.half_width_x, samples)
    ys = np.linspace(-spec.half_width_y, spec.half_width_y, samples)
    ax, dax = spec.fx(xs), spec.dfx(xs)
    by, dby = spec.fy(ys), spec.dfy(ys)
    ddax = np.gradient(dax, xs)
    ddby = np.gradient(dby, ys)
    # x factors as columns, so that a block of rows broadcasts against y
    ax, dax, ddax = (np.abs(v)[:, None] for v in (ax, dax, ddax))
    by, dby, ddby = np.abs(by), np.abs(dby), np.abs(ddby)
    dax2 = 2.0 * dax  # the mixed Hessian term is (2 |a'|) |b'|
    acc = np.empty((min(_SCAN_ROWS, samples), samples))
    term = np.empty_like(acc)
    grad_max, hess_max = [], []
    for i0 in range(0, samples, _SCAN_ROWS):
        rows = slice(i0, i0 + _SCAN_ROWS)
        m = min(_SCAN_ROWS, samples - i0)
        a, t = acc[:m], term[:m]
        # |eta_x| + |eta_y|
        np.multiply(dax[rows], by, out=a)
        a += np.multiply(ax[rows], dby, out=t)
        grad_max.append(a.max())
        # |eta_xx| + 2 |eta_xy| + |eta_yy|
        np.multiply(ddax[rows], by, out=a)
        a += np.multiply(dax2[rows], dby, out=t)
        a += np.multiply(ax[rows], ddby, out=t)
        hess_max.append(a.max())
    return dict(grad_eta_sup=float(np.max(grad_max)),
                hess_eta_sup=float(np.max(hess_max)))


def direction_norms(direction: DirectionField, grid: GridSpec) -> dict:
    """The discrete norms of a sampled direction field that the deviation
    envelopes read: sup of |v|_1, sup and L1 of div v and L1 of
    |grad div v|_1 (central differences)."""
    v = direction.total
    area = grid.cell_area
    absv = np.abs(v[0]) + np.abs(v[1])
    div = _divergence(v, grid)
    graddiv = _gradient_norm1(div, grid)
    return dict(
        vec_sup=float(absv.max()),
        div_sup=float(np.abs(div).max()),
        divvec_l1=float(np.abs(div).sum()) * area,
        graddiv_l1=float(graddiv.sum()) * area,
    )


def estimate_ci(op: NonlocalOperator,
                samples: Sequence[PopulationField]) -> np.ndarray:
    """Empirical lower bound for the Lipschitz constant of each
    population's deviation I_i, shape (n,).

    Evaluates the operator once per sample and, for each population,
    maximizes the four defining ratios over single samples (sup of
    gradient and L1 of gradient-of-divergence against the L1 norm of the
    density), as soon as each operator value exists, and over sample
    pairs (sup and L1-of-divergence Lipschitz quotients).  Divergences
    and gradients use second-order central differences, into scratch
    made for each phase, so none is alive while the operator runs.
    """
    if len(samples) < 2:
        raise EstimationError("need at least two density samples")
    grid = samples[0].grid
    area = grid.cell_area
    pairs = []
    for (a, s1), (b, s2) in combinations(enumerate(samples), 2):
        dl1 = float(np.abs(s1.data - s2.data).sum()) * area
        if dl1 != 0.0:
            pairs.append((dl1, a, b))
    if not pairs:
        raise EstimationError("all sample pairs are identical")
    best = np.zeros(samples[0].n)
    vals = []
    for s in samples:
        I = op(s)
        vals.append(I)
        l1 = float(np.abs(s.data).sum()) * area
        if l1 != 0.0:
            for i, ratios in enumerate(_sample_ratios(I, grid)):
                best[i] = max(best[i], *(r / l1 for r in ratios))
    for dl1, a, b in pairs:
        for i, ratios in enumerate(_pair_ratios(vals[a], vals[b], grid)):
            best[i] = max(best[i], *(r / dl1 for r in ratios))
    return best


def _sample_ratios(I: np.ndarray, grid: GridSpec) -> list[tuple[float, float]]:
    """(sup |J(I_i)|, L1 of |grad div I_i|) of each population of one
    operator value, by the per-cell arithmetic of _gradient_norm1 and
    _divergence in three grid-sized scratch arrays."""
    work = np.empty((3,) + I.shape[-2:])
    out = []
    for Ii in I:
        grad_sup = max(0.0, *(float(_gradient_norm1(c, grid, work[:2]).max())
                              for c in Ii))
        div = _divergence(Ii, grid, work[2:0:-1])
        graddiv_l1 = float(_gradient_norm1(div, grid, work[:2]).sum()) \
            * grid.cell_area
        out.append((grad_sup, graddiv_l1))
    return out


def _pair_ratios(I1: np.ndarray, I2: np.ndarray,
                 grid: GridSpec) -> list[tuple[float, float]]:
    """(sup |dI_i|_1, L1 of div dI_i) of each population, dI = I1 - I2,
    with the differences in one reused (2, nx, ny) buffer and one more
    grid-sized scratch array."""
    dI = np.empty((2,) + I1.shape[-2:])
    term = np.empty(I1.shape[-2:])
    out = []
    for I1i, I2i in zip(I1, I2):
        np.subtract(I1i, I2i, out=dI)
        # the divergence overwrites dI[0], which is taken again after it
        div = _divergence(dI, grid, (term, dI[0]))
        ddiv_l1 = float(np.abs(div, out=div).sum()) * grid.cell_area
        np.subtract(I1i[0], I2i[0], out=dI[0])
        np.abs(dI, out=dI)
        dI[0] += dI[1]
        sup = float(dI[0].max())
        out.append((sup, ddiv_l1))
    return out


# ---------------------------------------------------------------------------
# bound-input assembly: the norm helpers return dicts keyed by BoundInputs
# field names


def bound_inputs_for(model: ModelSpec,
                     datum: PopulationField) -> list[BoundInputs]:
    """Per-population BoundInputs of a deviation-family configuration.

    Direction norms come from grid differences; the nonlocal Lipschitz
    constants are empirical lower bounds from a small sample family;
    grad_v_sup starts at 0, and RunningEnvelope keeps it at the running
    maximum of the advection field's gradient.  A differentiable model
    has no envelope to feed and raises ConfigurationError.
    """
    if model.family != DEVIATION:
        raise ConfigurationError(
            "envelopes are evaluated for the deviation family only")
    rec = norms(datum)
    # no input reads these; the benchmark's traced deviation commands
    # must call the analysis.kernel_norms span
    for spec in {k.spec for k in model.kernels}:
        kernel_norms(spec)
    ci = np.zeros(model.n)
    if float(np.abs(datum.data).sum()) != 0.0:
        ci = estimate_ci(model.deviation,
                         [datum, PopulationField(datum.grid, 0.5 * datum.data)])
    return [BoundInputs(d=2, tv0=float(rec.tv[i]), q_sup=law.q_sup,
                        dq_sup=law.dq_sup,
                        **direction_norms(model.dirs[i], model.grid),
                        ci=float(ci[i]), grad_v_sup=0.0)
            for i, law in enumerate(model.laws)]


def aggregate_inputs(per_pop: list[BoundInputs]) -> BoundInputs:
    """Worst-case merge over populations (the sum for the datum's TV,
    maxima for parameter norms), matching the summed-TV convention."""
    params = {f.name: max(getattr(b, f.name) for b in per_pop)
              for f in fields(BoundInputs) if f.name not in ("d", "tv0")}
    return BoundInputs(d=per_pop[0].d, tv0=sum(b.tv0 for b in per_pop),
                       **params)


class RunningEnvelope:
    """The envelopes of one deviation-family configuration and their
    inputs, kept current.

    inputs holds one BoundInputs per population, measured by
    bound_inputs_for(model, datum).  Their grad_v_sup starts at 0;
    on_step(report, state, W), a run's on_step callback, raises it to the
    running sup of sup_gradient(W), so that an envelope evaluated after a
    step covers every field so far.  One object may follow several runs
    of the same model (the stability check's pair).
    """

    def __init__(self, model: ModelSpec, datum: PopulationField):
        self.model = model
        self.grid = model.grid
        self.inputs = bound_inputs_for(model, datum)
        # sup_gradient's scratch, made at the first step: made here, before
        # the run, it moved the heap so that evacuation runs at mesh 0.05
        # took 4.6x the minor page faults on some output paths
        self._work: np.ndarray | None = None

    @property
    def grad_v_sup(self) -> float:
        return self.inputs[0].grad_v_sup

    def on_step(self, report: StepReport, state: PopulationField,
                W: np.ndarray) -> None:
        if self._work is None:
            self._work = np.empty((2,) + W.shape[-2:])
        sup = max(self.grad_v_sup, sup_gradient(W, self.grid, self._work))
        for bi in self.inputs:
            bi.grad_v_sup = sup

    def aggregate(self) -> BoundInputs:
        """aggregate_inputs of the current inputs."""
        return aggregate_inputs(self.inputs)

    def bounds(self, t: float) -> list[tuple[float, float]]:
        """(TV envelope, L-infinity envelope) of each population at t: the
        TV envelope and the maximum principle's R."""
        return [(tv_bound_deviation(t, bi), self.model.R)
                for bi in self.inputs]

    def stability(self, t: float, drho0_l1: float) -> StabilityBound:
        """L1 distance envelope at t of two runs of the model whose data
        differ by drho0_l1 in L1.  The runs share every parameter, and
        the envelope reads only parameter norms from the second run's
        inputs, so one aggregate serves both."""
        agg = self.aggregate()
        return stability_bound_deviation(t, agg, agg,
                                         ParameterDeltas(drho0_l1=drho0_l1))


def _exp(x: float) -> float:
    return math.exp(x) if x < LOG_MAX else math.inf
