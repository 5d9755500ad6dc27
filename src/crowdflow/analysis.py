"""A-priori bound evaluators and measured-vs-bound comparisons.

All estimates are worst-case envelopes: comparisons assert domination
only, never tightness, and slack factors of several orders of magnitude
are normal.  Exponents can exceed float range for rough data; the
stability evaluator therefore also reports the bound in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec, PopulationField, norms
from .kernel import KernelSpec
from .nonlocal_ops import NonlocalOperator, estimate_ci
from .solver import DEVIATION, ModelSpec, RunResult
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
    """Norms feeding the bound evaluators; unused entries may stay NaN.

    Data norms are of the initial datum; speed-law norms are over the
    certified density range; direction and kernel norms are continuum
    sup/L1 norms (computed analytically or by dense scan, see the
    *_norms helpers).  grad_v_sup is the measured running sup of the
    gradient of the assembled advection field.
    """

    d: int = 2
    n1: float = math.nan          # L1 norm of the datum (all populations)
    linf0: float = math.nan
    tv0: float = math.nan
    v_sup: float = math.nan
    dv_sup: float = math.nan
    ddv_sup: float = math.nan
    dv_l1: float = math.nan       # L1 norm of v' over the density range
    q_sup: float = math.nan
    dq_sup: float = math.nan
    vec_sup: float = math.nan
    vec_l1: float = math.nan
    vec_grad_sup: float = math.nan
    vec_grad_l1: float = math.nan
    div_sup: float = math.nan
    divvec_l1: float = math.nan
    graddiv_l1: float = math.nan
    eta_sup: float = math.nan
    grad_eta_sup: float = math.nan
    hess_eta_sup: float = math.nan
    ci: float = math.nan
    grad_v_sup: float = math.nan

    @property
    def v_w1inf(self) -> float:
        return self.v_sup + self.dv_sup

    @property
    def vec_w1inf(self) -> float:
        return self.vec_sup + self.vec_grad_sup

    @property
    def vec_w11(self) -> float:
        return self.vec_l1 + self.vec_grad_l1

    @property
    def grad_eta_w1inf(self) -> float:
        return self.grad_eta_sup + self.hess_eta_sup


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


def k1_constant(inputs: BoundInputs) -> float:
    return inputs.v_w1inf * inputs.vec_w1inf * (inputs.n1 * inputs.grad_eta_sup + 1.0)


def k2_constant(inputs: BoundInputs) -> float:
    return (inputs.v_w1inf * inputs.vec_w11
            * (inputs.n1 ** 2 * inputs.grad_eta_sup ** 2
               + 2.0 * inputs.n1 * inputs.grad_eta_w1inf + 1.0))


def bounds_differentiable(t: float, inputs: BoundInputs) -> tuple[float, float]:
    """(L-infinity bound, TV bound) for the differentiable model at time t."""
    k1 = k1_constant(inputs)
    k2 = k2_constant(inputs)
    d = inputs.d
    linf_bound = _prod(inputs.linf0, _exp(k1 * t))
    tv_bound = (_prod(inputs.tv0, _exp((2 * d + 1) * k1 * t))
                + _prod(t, _exp(k1 * t), d, wd(d), k2, inputs.linf0))
    return linf_bound, tv_bound


@dataclass
class ParameterDeltas:
    """Norms of the differences between two model configurations."""

    drho0_l1: float = 0.0
    dq_sup: float = 0.0       # sup |q1 - q2|
    ddq_sup: float = 0.0      # sup |q1' - q2'|
    dvec_sup: float = 0.0     # sup |vec v1 - vec v2|
    ddivvec_l1: float = 0.0   # L1 of div(vec v1 - vec v2)
    deta_w1inf: float = 0.0   # W1,inf norm of eta1 - eta2
    dv_w1inf: float = 0.0     # W1,inf norm of v1 - v2
    dvec_w11: float = 0.0     # W1,1 norm of vec v1 - vec v2


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


def stability_bound_differentiable(t: float, inputs1: BoundInputs,
                                   inputs2: BoundInputs,
                                   deltas: ParameterDeltas) -> StabilityBound:
    """Companion envelope for the differentiable model.

    Same interface as stability_bound_deviation; realizes the explicit
    coefficient functions of the datum/parameter stability estimate.
    """
    d = inputs1.d
    k1 = k1_constant(inputs1)
    k2 = k2_constant(inputs1)
    f = _prod(_exp((2 * d + 1) * k1 * t),
              inputs1.tv0 + t * d * wd(d) * k2 * inputs1.linf0)
    bigk = max(
        inputs1.v_w1inf * inputs1.vec_w1inf * (inputs1.n1 * inputs1.grad_eta_sup + 1.0),
        inputs2.v_w1inf * inputs2.vec_w1inf * (inputs2.n1 * inputs2.grad_eta_sup + 1.0))
    rmax = max(inputs1.linf0, inputs2.linf0)
    ekt = _exp(bigk * t)
    alpha = (inputs1.ddv_sup * inputs1.eta_sup * inputs1.n1
             * inputs1.grad_eta_sup * inputs1.vec_l1
             + inputs2.dv_sup * inputs1.grad_eta_sup * inputs1.vec_l1
             + inputs1.dv_sup * inputs1.eta_sup * inputs1.divvec_l1)
    beta = (inputs1.ddv_sup * inputs2.n1 * inputs1.n1
            * inputs1.grad_eta_sup * inputs1.vec_l1
            + inputs1.dv_l1 * inputs2.n1 * inputs1.divvec_l1
            + inputs2.dv_sup * inputs2.n1 * inputs1.vec_l1)
    gamma = inputs1.divvec_l1 + inputs1.n1 * inputs1.grad_eta_sup * inputs1.vec_l1
    delta = inputs2.dv_sup * inputs2.n1 * inputs2.grad_eta_sup + inputs2.v_sup
    alpha_p = inputs1.dv_sup * inputs1.eta_sup
    beta_p = inputs1.dv_sup * inputs2.n1 * inputs1.vec_sup
    gamma_p = inputs1.vec_sup
    delta_p = inputs2.v_sup
    a_eta = _prod(beta_p, f) + _prod(beta, rmax, ekt)
    a_v = _prod(gamma_p, f) + _prod(gamma, rmax, ekt)
    a_vec = _prod(delta_p, f) + _prod(delta, rmax, ekt)
    base = (deltas.drho0_l1 + _prod(t, a_eta, deltas.deta_w1inf)
            + _prod(t, a_v, deltas.dv_w1inf)
            + _prod(t, a_vec, deltas.dvec_sup + deltas.dvec_w11))
    rate = _prod(f, alpha_p) + _prod(rmax, ekt, alpha)
    x = t * rate
    value, log_value = _gronwall(x, x, base)
    return StabilityBound(value=value, log_value=log_value, a=base, b=rate)


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


@dataclass
class InvarianceReport:
    times: list[float]
    mins: list[np.ndarray]
    maxs: list[np.ndarray]
    ok: bool
    tol: float = 1e-6


def check_invariance(model: ModelSpec, result: RunResult,
                     tol: float = 1e-6) -> InvarianceReport:
    """Min/max per population after every step of a deviation-family run;
    pass iff within [-tol, R + tol], R = model.R."""
    if model.family != DEVIATION:
        raise ConfigurationError("invariance check targets the deviation family")
    reports = result.reports
    ok = all(r.min.min() >= -tol and r.max.max() <= model.R + tol
             for r in reports)
    return InvarianceReport(times=[r.t for r in reports],
                            mins=[r.min for r in reports],
                            maxs=[r.max for r in reports], ok=ok, tol=tol)


# ---------------------------------------------------------------------------
# norm helpers feeding BoundInputs


def sup_gradient(V: np.ndarray, grid: GridSpec) -> float:
    """Sup over cells of the entrywise 1-norm of the velocity Jacobian.

    Accepts (2, nx, ny) or (n, 2, nx, ny); central differences.
    """
    if V.ndim == 3:
        V = V[None]
    best = 0.0
    for vi in V:
        total = np.zeros(vi.shape[1:])
        for comp in vi:
            total += np.abs(np.gradient(comp, grid.dx, axis=0))
            total += np.abs(np.gradient(comp, grid.dy, axis=1))
        best = max(best, float(total.max()))
    return best


def kernel_norms(spec: KernelSpec, samples: int = 1201) -> dict:
    """Sup norms of eta and its first two derivatives by dense scan."""
    xs = np.linspace(-spec.half_width_x, spec.half_width_x, samples)
    ys = np.linspace(-spec.half_width_y, spec.half_width_y, samples)
    ax, dax = spec.fx(xs), spec.dfx(xs)
    by, dby = spec.fy(ys), spec.dfy(ys)
    ddax = np.gradient(dax, xs)
    ddby = np.gradient(dby, ys)
    eta_sup = float(np.abs(ax).max() * np.abs(by).max())
    grad = (np.abs(dax)[:, None] * np.abs(by)[None, :]
            + np.abs(ax)[:, None] * np.abs(dby)[None, :])
    grad_eta_sup = float(grad.max())
    hess = (np.abs(ddax)[:, None] * np.abs(by)[None, :]
            + 2.0 * np.abs(dax)[:, None] * np.abs(dby)[None, :]
            + np.abs(ax)[:, None] * np.abs(ddby)[None, :])
    hess_eta_sup = float(hess.max())
    return dict(eta_sup=eta_sup, grad_eta_sup=grad_eta_sup,
                hess_eta_sup=hess_eta_sup, source="scan")


def direction_norms(direction: DirectionField, grid: GridSpec) -> dict:
    """Discrete sup/L1 norms of a sampled direction field (central diffs)."""
    v = direction.total
    area = grid.cell_area
    absv = np.abs(v[0]) + np.abs(v[1])
    grads = [np.gradient(v[c], grid.dx if ax == 0 else grid.dy, axis=ax)
             for c in (0, 1) for ax in (0, 1)]
    gradsum = sum(np.abs(gv) for gv in grads)
    div = np.gradient(v[0], grid.dx, axis=0) + np.gradient(v[1], grid.dy, axis=1)
    graddiv = (np.abs(np.gradient(div, grid.dx, axis=0))
               + np.abs(np.gradient(div, grid.dy, axis=1)))
    return dict(
        vec_sup=float(absv.max()),
        vec_l1=float(absv.sum()) * area,
        vec_grad_sup=float(gradsum.max()),
        vec_grad_l1=float(gradsum.sum()) * area,
        div_sup=float(np.abs(div).max()),
        divvec_l1=float(np.abs(div).sum()) * area,
        graddiv_l1=float(graddiv.sum()) * area,
        source="grid differences",
    )


# ---------------------------------------------------------------------------
# bound-input assembly


def bound_inputs_for(model: ModelSpec,
                     datum: PopulationField) -> list[BoundInputs]:
    """Per-population BoundInputs measured from the configuration.

    Kernel and direction norms come from dense scans / grid differences
    (each distinct kernel is scanned once); the nonlocal Lipschitz
    constants are empirical lower bounds from a small sample family;
    grad_v_sup starts at 0 and is meant to be updated with the running
    maximum of the advection field's gradient.
    """
    rec = norms(datum)
    n1_total = rec.l1_total
    kn = {spec: kernel_norms(spec) for spec in {k.spec for k in model.kernels}}
    nan_kn = dict(eta_sup=math.nan, grad_eta_sup=math.nan,
                  hess_eta_sup=math.nan)
    ci = np.zeros(model.n)
    if model.family == DEVIATION:
        ci = _estimate_ci(model.deviation, datum)
    out = []
    for i in range(model.n):
        law = model.laws[i]
        dn = direction_norms(model.dirs[i], model.grid)
        kni = kn[model.kernels[i].spec] if model.kernels else nan_kn
        out.append(BoundInputs(
            d=2, n1=n1_total, linf0=float(rec.linf[i]), tv0=float(rec.tv[i]),
            v_sup=law.v_sup, dv_sup=law.dv_sup, ddv_sup=law.ddv_sup,
            dv_l1=law.dv_sup * law.R, q_sup=law.q_sup, dq_sup=law.dq_sup,
            vec_sup=dn["vec_sup"], vec_l1=dn["vec_l1"],
            vec_grad_sup=dn["vec_grad_sup"], vec_grad_l1=dn["vec_grad_l1"],
            div_sup=dn["div_sup"], divvec_l1=dn["divvec_l1"],
            graddiv_l1=dn["graddiv_l1"],
            eta_sup=kni["eta_sup"], grad_eta_sup=kni["grad_eta_sup"],
            hess_eta_sup=kni["hess_eta_sup"],
            ci=float(ci[i]), grad_v_sup=0.0))
    return out


def _estimate_ci(op: NonlocalOperator, datum: PopulationField) -> np.ndarray:
    samples = [datum, PopulationField(datum.grid, 0.5 * datum.data)]
    if float(np.abs(datum.data).sum()) == 0.0:
        return np.zeros(datum.n)
    return estimate_ci(op, samples)


def aggregate_inputs(per_pop: list[BoundInputs]) -> BoundInputs:
    """Worst-case merge over populations (sums for data norms, maxima
    for parameter norms), matching the summed-TV convention."""
    agg = BoundInputs(d=per_pop[0].d)
    agg.n1 = per_pop[0].n1
    agg.linf0 = max(b.linf0 for b in per_pop)
    agg.tv0 = sum(b.tv0 for b in per_pop)
    for name in ("v_sup", "dv_sup", "ddv_sup", "dv_l1", "q_sup", "dq_sup",
                 "vec_sup", "vec_l1", "vec_grad_sup", "vec_grad_l1",
                 "div_sup", "divvec_l1", "graddiv_l1", "eta_sup",
                 "grad_eta_sup", "hess_eta_sup", "ci", "grad_v_sup"):
        setattr(agg, name, max(getattr(b, name) for b in per_pop))
    return agg


def _exp(x: float) -> float:
    return math.exp(x) if x < LOG_MAX else math.inf
