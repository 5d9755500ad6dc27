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
running sup of grad V along a run and evaluates the envelopes from it;
run_tables steps every run of the commands, stability_table's pair too.
Every input is per population, so each process that steps a chunk of
a run's populations measures that chunk's inputs before its first step,
through its own part of the operator, and the caller gathers them: no
process holds a whole-model operator value.  The one whole-datum number
they read, the L1 norm that normalizes the sampled C_I, is taken once
before the processes fork.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import astuple, dataclass, fields, replace
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import forked
from .errors import ConfigurationError, EstimationError
from .grid import GridSpec, NormRecord, PopulationField, norms
from .kernel import KernelSpec
from .nonlocal_ops import (GradientAvoidance, NonlocalOperator,
                           gradient_avoidance)
from .solver import (DEVIATION, ModelSpec, RunResult, StepReport, check_range,
                     output_times, run)

LOG_MAX = 700.0  # exp argument beyond which float64 overflows
D = 2  # space dimension of every grid


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
    """(2D + 1) sup|q'| sup|grad V|."""
    return (2 * D + 1) * inputs.dq_sup * inputs.grad_v_sup


def tv_bound_deviation(t: float, inputs: BoundInputs) -> float:
    """TV envelope of the deviation model at time t."""
    k0 = kappa0(inputs)
    cd = D * wd(D)
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
    cd = D * wd(D)
    tv_growth = (inputs1.tv0
                 + t * cd * inputs1.q_sup * (ci + inputs1.graddiv_l1))
    ek = _exp(k0 * t)
    a = t * (_prod(ci + inputs2.vec_sup, ek, tv_growth, deltas.ddq_sup)
             + (ci + inputs2.divvec_l1) * deltas.dq_sup
             + inputs1.q_sup * deltas.ddivvec_l1
             + _prod(ek, inputs1.dq_sup, tv_growth, deltas.dvec_sup))
    b = _prod(ci, _prod(ek, inputs1.dq_sup, tv_growth) + inputs1.q_sup)
    value, log_value = _gronwall(t, t * b, deltas.drho0_l1 + a)
    return StabilityBound(value=value, log_value=log_value)


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
                    work: np.ndarray) -> np.ndarray:
    """|d0 u0| + |d1 u0| + |d0 u1| + |d1 u1|, added in that order.

    work, a (2, nx, ny) array, holds the sum (returned) and each term.
    """
    total, term = work
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


_SLAB_ROWS = 128  # rows of each slab of sup_gradient's differences


def sup_gradient(V: np.ndarray, grid: GridSpec) -> float:
    """Sup over cells of the entrywise 1-norm of the velocity Jacobian.

    Accepts (2, nx, ny) or (n, 2, nx, ny); central differences.  They are
    taken in slabs of _SLAB_ROWS rows, each read with the row on either
    side, into scratch of one slab: every cell's sum is the whole-grid
    differences' own arithmetic, and a maximum is exact, so the sup is
    theirs bit for bit.
    """
    if V.ndim == 3:
        V = V[None]
    nx = V.shape[-2]
    work = np.empty((2, min(nx, _SLAB_ROWS + 2), V.shape[-1]))
    sups = []
    for vi in V:
        slabs = []
        for r0 in range(0, nx, _SLAB_ROWS):
            r1 = min(r0 + _SLAB_ROWS, nx)
            lo, hi = max(r0 - 1, 0), min(r1 + 1, nx)
            total = _jacobian_norm1(vi[:, lo:hi], grid, work[:, :hi - lo])
            slabs.append(total[r0 - lo:r1 - lo].max())
        sups.append(float(np.max(slabs)))  # NaN, as the whole grid's max
    return max(0.0, *sups)


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


def direction_norms(v: np.ndarray, grid: GridSpec) -> dict:
    """The discrete norms of a sampled (2, nx, ny) direction field v that
    the deviation envelopes read: sup of |v|_1, sup and L1 of div v and
    L1 of |grad div v|_1 (central differences)."""
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


def estimate_ci(op: NonlocalOperator, samples: Sequence[PopulationField],
                l1: np.ndarray | None = None) -> np.ndarray:
    """Empirical lower bound for the Lipschitz constant of each of the
    samples' populations' deviation I_i, shape (n,).

    Evaluates the operator once per sample and, for each population,
    maximizes the four defining ratios over single samples (sup of
    gradient and L1 of gradient-of-divergence against the L1 norm of the
    density), as soon as each operator value exists, and over sample
    pairs (sup and L1-of-divergence Lipschitz quotients).  Divergences
    and gradients use second-order central differences, into scratch
    made for each phase, so none is alive while the operator runs.

    The samples may hold one chunk of a larger field's populations (the
    same first and n in each), whose rows op gives, as the operator of
    each process of a split run_tables does.  The norms are then the
    whole fields', given as l1, (m, m): l1[a, a] is sample a's L1 norm
    and, for a < b, l1[a, b] that of sample a minus sample b.  Without
    l1 they are the samples' own.
    """
    if len(samples) < 2:
        raise EstimationError("need at least two density samples")
    grid = samples[0].grid
    if l1 is None:
        l1 = _l1_norms(samples)
    pairs = [(l1[a, b], a, b)
             for a, b in combinations(range(len(samples)), 2)
             if l1[a, b] != 0.0]
    if not pairs:
        raise EstimationError("all sample pairs are identical")
    best = np.zeros(samples[0].n)
    vals = []
    for a, s in enumerate(samples):
        I = op(s)
        vals.append(I)
        if l1[a, a] != 0.0:
            for i, ratios in enumerate(_sample_ratios(I, grid)):
                best[i] = max(best[i], *(r / l1[a, a] for r in ratios))
    for dl1, a, b in pairs:
        for i, ratios in enumerate(_pair_ratios(vals[a], vals[b], grid)):
            best[i] = max(best[i], *(r / dl1 for r in ratios))
    return best


def _l1_norms(samples: Sequence[PopulationField]) -> np.ndarray:
    """estimate_ci's l1 of whole samples: their L1 norms on the diagonal,
    the L1 norms of their differences above it."""
    area = samples[0].grid.cell_area
    l1 = np.zeros((len(samples), len(samples)))
    for a, s in enumerate(samples):
        l1[a, a] = float(np.abs(s.data).sum()) * area
        for b in range(a + 1, len(samples)):
            l1[a, b] = float(np.abs(s.data - samples[b].data).sum()) * area
    return l1


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


def bound_inputs_for(model: ModelSpec, datum: PopulationField,
                     tv0: np.ndarray | None = None,
                     datum_l1: float | None = None) -> list[BoundInputs]:
    """Per-population BoundInputs of a deviation-family configuration.

    Direction norms come from grid differences; the nonlocal Lipschitz
    constants are empirical lower bounds from the samples datum and
    datum / 2; grad_v_sup starts at 0, and RunningEnvelope keeps it at
    the running maximum of the advection field's gradient.  A
    differentiable model has no envelope to feed and raises
    ConfigurationError.

    model and datum may be one chunk of a larger model's populations, as
    each process of run_tables measures its own: datum's populations,
    from datum.first, with model's laws, dirs and kernels theirs and
    model.deviation giving their rows.  datum_l1 is then the sum of
    |rho| over the whole datum's cells, the samples' L1 normalizer, which
    halving the datum halves exactly.  tv0 is norms(datum).tv where the
    caller has taken it.  Left out, each is taken from datum.
    """
    _require_deviation(model)
    if tv0 is None:
        tv0 = norms(datum).tv
    # no input reads these; the benchmark's traced deviation commands
    # must call the analysis.kernel_norms span
    for spec in {k.spec for k in model.kernels}:
        kernel_norms(spec)
    if datum_l1 is None:
        datum_l1 = float(np.abs(datum.data).sum())
    ci = np.zeros(datum.n)
    if datum_l1 != 0.0:
        area = datum.grid.cell_area
        whole, half = datum_l1 * area, (0.5 * datum_l1) * area
        ci = estimate_ci(model.deviation, [
            datum, PopulationField(datum.grid, 0.5 * datum.data, datum.first)],
            np.array([[whole, half], [0.0, half]]))
    return [BoundInputs(tv0=float(tv0[i]), q_sup=law.q_sup,
                        dq_sup=law.dq_sup,
                        **direction_norms(model.dirs[i], model.grid),
                        ci=float(ci[i]), grad_v_sup=0.0)
            for i, law in enumerate(model.laws)]


def _require_deviation(model: ModelSpec) -> None:
    if model.family != DEVIATION:
        raise ConfigurationError(
            "envelopes are evaluated for the deviation family only")


def aggregate_inputs(per_pop: list[BoundInputs]) -> BoundInputs:
    """Worst-case merge over populations (the sum for the datum's TV,
    maxima for parameter norms), matching the summed-TV convention."""
    params = {f.name: max(getattr(b, f.name) for b in per_pop)
              for f in fields(BoundInputs) if f.name != "tv0"}
    return BoundInputs(tv0=sum(b.tv0 for b in per_pop), **params)


class RunningEnvelope:
    """The envelopes of one deviation-family configuration and their
    inputs, kept current.

    inputs holds one BoundInputs per population: None until the first
    run_tables run that follows this object, whose stepping processes
    measure them from its datum with bound_inputs_for, each its own
    populations'.  Their grad_v_sup starts at 0, and include(sup) with
    the largest sup_gradient of a step's fields raises it to the running
    sup, so that an envelope evaluated after a step covers every field
    so far.  One object may follow several runs of the same model
    (stability_table's pair).
    """

    def __init__(self, model: ModelSpec):
        _require_deviation(model)
        self.inputs = None

    def include(self, sup: float) -> None:
        """Raise every population's grad_v_sup to at least sup."""
        for bi in self.inputs:
            bi.grad_v_sup = max(bi.grad_v_sup, sup)

    def bounds(self, t: float) -> list[float]:
        """The TV envelope of each population at t.  The L-infinity
        envelope is the maximum principle's model.R."""
        return [tv_bound_deviation(t, bi) for bi in self.inputs]


def stability_table(model: ModelSpec, datum1: PopulationField,
                    datum2: PopulationField
                    ) -> list[tuple[float, float, StabilityBound]]:
    """(t, L1 distance, its envelope) of the runs of the model from datum1
    and datum2 at t = 0 and each output time run reports.  Both runs step
    through run_tables, sharing one RunningEnvelope, whose inputs the
    first run measures from datum1 and whose running maximum is the same
    in any process and order.  Each stepping process writes its
    populations' first-run states to shared memory and subtracts their
    second-run states there, so that each distance is one sum here.  The
    rows come after both runs from the envelope's aggregate_inputs, both
    runs' inputs: they share every parameter."""
    model = replace(model, snapshot_times=(0.0, *model.snapshot_times))
    envelope, area = RunningEnvelope(model), model.grid.cell_area
    times = output_times(model.snapshot_times, model.t_max)
    diff = forked.shared_array((len(times), model.n, model.grid.nx,
                                model.grid.ny))

    def keep(t, state):
        diff[times.index(t), state.first:state.first + state.n] = state.data

    def subtract(t, state):
        diff[times.index(t), state.first:state.first + state.n] -= state.data

    for datum, on_snapshot in ((datum1, keep), (datum2, subtract)):
        run_tables(model, datum, 1, False, on_snapshot, diag_rows=None,
                   envelope=envelope)
    agg = aggregate_inputs(envelope.inputs)
    deltas = ParameterDeltas(
        drho0_l1=float(np.abs(datum1.data - datum2.data).sum()) * area)
    return [(t, float(np.abs(d).sum()) * area,
             stability_bound_deviation(t, agg, agg, deltas))
            for t, d in zip(times, diff)]


def diagnostics_header(model: ModelSpec) -> str:
    """The header of diagnostics.csv: t, dt, then each population's mass,
    linf, tv, TV envelope (deviation family only) and escaped mass."""
    names = ("mass", "linf", "tv", "tv_bound", "escaped") \
        if model.family == DEVIATION else ("mass", "linf", "tv", "escaped")
    return ",".join(["t", "dt"] + [f"{name}_{i + 1}" for i in range(model.n)
                                   for name in names])


def run_tables(model: ModelSpec, datum: PopulationField, diag_every: int,
               with_bounds: bool,
               on_snapshot: Callable[[float, PopulationField], None],
               diag_rows: list | None,
               envelope: RunningEnvelope | None = None,
               ) -> tuple[RunResult, list[tuple]]:
    """Run the model from the datum: its RunResult and the bounds.csv rows
    (t, population, tv, tv_bound, slack, linf, linf_bound), taken under
    with_bounds at each output time, just before on_snapshot(t, state).  The
    rows of diagnostics_header(model) go to diag_rows as the run reaches
    them, so a failed run leaves them: t = 0, every diag_every-th step
    and the final state unless the last step gave it; none where
    diag_rows is None.  A given envelope follows this run too (as
    stability_table's pair shares one); otherwise a deviation model, or
    with_bounds, makes a RunningEnvelope(model), and with_bounds makes a
    differentiable model a ConfigurationError.

    The run is stepped by the P processes of a forked.sharing scope,
    which wants n of them for a deviation model of n >= 2 populations
    with a GradientAvoidance operator and 1 otherwise: the caller and
    P - 1 workers, forked before any of them evaluates an operator, each
    owning a contiguous chunk of the populations, the caller the first
    and smallest.  Each process runs its chunk as a model of its own;
    where P >= 2 its operator is gradient_avoidance with the shared
    gradients G and its Lockstep's share.  Before the first step each
    process takes its chunk's t = 0 norms and, where the envelope has no
    inputs yet, measures them with bound_inputs_for (tv0 from those
    norms, C_I through its own operator); the caller gathers both in one
    exchange.  Then the processes share, in lockstep, the boxes of the
    saturated gradients, each chunk's cfl_dt (whose least is the whole
    model's), and after each step each population's outflow, escaped
    mass, min, max, the sup_gradient of its field (where there is an
    envelope) and, at diagnostics steps, norms.  From these the caller
    builds the StepReports, checks the maximum principle, raises the
    envelope's running sup and adds the table rows.  At an output time
    every process waits in one exchange until the caller has taken the
    step's checks, and sends in it, under with_bounds, each population's
    tv and linf, from which the caller adds the bounds.csv rows; then
    each calls on_snapshot with its own populations (state.first is the
    first one's index), so what the callback keeps in memory stays in
    that process.  The workers post their final states.  Every table, state
    and error is the same at any P, except that a failed run leaves
    every snapshot a process had begun complete on disk: at the time
    that failed, that can be more files than one process leaves.
    """
    n, g = model.n, model.grid
    if envelope is None and (with_bounds or model.family == DEVIATION):
        envelope = RunningEnvelope(model)
    measure = envelope is not None and envelope.inputs is None
    bound_rows, reports, diagnose = [], [], diag_rows is not None

    def diag_row(t, dt, rec, escaped):
        cols = [rec.l1, rec.linf, rec.tv]
        if envelope is not None:
            cols.append(envelope.bounds(t))
        diag_rows.append([t, dt, *np.column_stack((*cols, escaped)).ravel()])

    def bounds_at(t, tv, linf):
        for i, tvb in enumerate(envelope.bounds(t)):
            meas = float(tv[i])
            slack = tvb / meas if meas > 0 else math.inf
            bound_rows.append((t, i + 1, meas, tvb, slack, float(linf[i]),
                               model.R))

    def started(rows):  # the caller's: every population's t = 0 rows
        if measure:
            envelope.inputs = [BoundInputs(*map(float, r))
                               for r in rows[:, -len(fields(BoundInputs)):]]
        if diagnose:
            diag_row(0.0, 0.0, NormRecord(*rows[:, :3].T), np.zeros(n))

    def took_step(report, rows):  # the caller's: every population's rows
        outflow, escaped, lo, hi = rows[:, :4].T
        full = StepReport(step=report.step, t=report.t, dt=report.dt,
                          min=lo, max=hi, outflow=outflow, escaped=escaped)
        reports.append(full)
        check_range(model, full)
        if envelope is not None:
            envelope.include(float(rows[:, 4].max()))
        if diagnose and report.step % diag_every == 0:
            diag_row(report.t, report.dt, NormRecord(*rows[:, -3:].T),
                     escaped)

    def own_run(a, b, lockstep) -> RunResult:
        deviation = model.deviation if G is None else functools.partial(
            gradient_avoidance, eps=model.deviation.eps,
            k=model.deviation.kernel, G=G, share=lockstep.share)
        part = replace(model, laws=model.laws[a:b], dirs=model.dirs[a:b],
                       kernels=model.kernels[a:b], strict=False,
                       deviation=deviation)
        own = datum if b - a == n else PopulationField(g, datum.data[a:b], a)

        def sampled(state):  # no process overwrites a G_j another reads
            lockstep.share(np.empty(0))
            return deviation(state)

        def agree(dt):
            return float(lockstep.share(np.array([dt])).min())

        def on_step(report, state, W):
            cols = [report.outflow, report.escaped, report.min, report.max]
            if envelope is not None:
                cols.append([sup_gradient(Wi, g) for Wi in W])
            if diagnose and report.step % diag_every == 0:
                rec = norms(state)
                cols += [rec.l1, rec.linf, rec.tv]
            rows = lockstep.share(np.column_stack(cols), back=False)
            if lockstep.caller:
                took_step(report, rows.reshape(n, -1))

        def snapshot(t, state):
            rows = np.empty(0)
            if with_bounds:
                rec = norms(state)
                rows = np.column_stack((rec.tv, rec.linf))
            rows = lockstep.share(rows)  # the caller has taken the step
            if with_bounds and lockstep.caller:
                bounds_at(t, *rows.reshape(n, 2).T)
            on_snapshot(t, state)

        if diagnose or measure:
            rec = norms(own)
            cols = [rec.l1, rec.linf, rec.tv] if diagnose else []
            if measure:
                inputs = bound_inputs_for(replace(part, deviation=sampled),
                                          own, rec.tv, datum_l1)
                cols.append([astuple(bi) for bi in inputs])
            # back to every process: none computes the first step's
            # gradients while another still reads the last sample's
            rows = lockstep.share(np.column_stack(cols))
            if lockstep.caller:
                started(rows.reshape(n, -1))
        return run(part, own, on_snapshot=snapshot, on_step=on_step,
                   agree=agree)

    def work(a, b, channel) -> None:
        result = own_run(a, b, forked.Lockstep(channel=channel))
        channel.post(result.state.data)

    split = model.family == DEVIATION and n >= 2 \
        and isinstance(model.deviation, GradientAvoidance)
    with forked.sharing(n if split else 1) as (procs, start):
        cuts = [p * n // procs for p in range(procs + 1)]
        G = forked.shared_array((n, 2, g.nx, g.ny)) if procs > 1 else None
        # the one whole-datum input: every process's C_I normalizer
        datum_l1 = float(np.abs(datum.data).sum()) if measure else None
        workers = []
        try:
            workers += [start(functools.partial(work, a, b))
                        for a, b in zip(cuts[1:], cuts[2:])]
            state = own_run(0, cuts[1], forked.Lockstep(workers)).state
            if workers:
                state = PopulationField(g, np.concatenate([
                    state.data, *(w.receive().reshape(-1, g.nx, g.ny)
                                  for w in workers)]))
            for w in workers:
                w.finish()
        except BaseException:
            # told to finish, not killed, so that no snapshot file is left
            # half-written: a worker ends at its next exchange
            for w in workers:
                if w.pid:
                    with contextlib.suppress(Exception):
                        w.finish()
            raise
    escaped = reports[-1].escaped.copy() if reports else np.zeros(n)
    if diagnose and len(reports) % diag_every:
        diag_row(model.t_max, reports[-1].dt, norms(state), escaped)
    return RunResult(state, reports, escaped), bound_rows


def _exp(x: float) -> float:
    return math.exp(x) if x < LOG_MAX else math.inf
