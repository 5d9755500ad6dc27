import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from crowdflow import (BoundInputs, ConfigurationError, KernelSpec,
                       NumericError, ParameterDeltas, PopulationField,
                       RunningEnvelope, StabilityBound, aggregate_inputs,
                       bound_inputs_for, diagnostics_header,
                       direction_norms, kappa0, kernel_norms, bump_kernel,
                       constant_direction, linear_speed_law, make_grid,
                       parse_config, preset, run, run_tables, sample_kernel,
                       stability_bound_deviation, stability_table,
                       sup_gradient, tv_bound_deviation, wd)
from crowdflow import analysis, forked, solver
from crowdflow.analysis import LOG_MAX, _diff, _gronwall
from crowdflow.cli import _write_table, main
from crowdflow.solver import DEVIATION, ModelSpec
from crowdflow.nonlocal_ops import GradientAvoidance

from test_cli import _solver_must_not_start


# Envelope inputs of preset("crossing") at mesh 0.4, pinned bit for bit:
# the parameter norms both populations share, each population's datum TV
# and C_I
CROSSING_PARAMS = dict(
    q_sup=1.0, dq_sup=4.0, vec_sup=1.8, div_sup=1.0,
    divvec_l1=25.600000000000005, graddiv_l1=64.00000000000001,
    grad_v_sup=0.0)
CROSSING_TV0 = (14.400000000000002, 11.2)
CROSSING_CI = (0.634457974612126, 0.7006750996465252)


def sample_inputs(**kw):
    base = dict(tv0=5.0, q_sup=1.0, dq_sup=4.0, vec_sup=1.8,
                div_sup=1.5, divvec_l1=0.8, graddiv_l1=0.6, ci=0.5,
                grad_v_sup=1.0)
    base.update(kw)
    return BoundInputs(**base)


def all_ones(**kw):
    """BoundInputs with every norm 1.0, overridden by kw."""
    base = {f.name: 1.0 for f in fields(BoundInputs)}
    base.update(kw)
    return BoundInputs(**base)


def assert_infinite_envelope(sb):
    assert sb.value == math.inf
    assert sb.log_value == math.inf


class TestWd:
    def test_known_values(self):
        assert abs(wd(1) - 1.0) <= 1e-12
        assert abs(wd(2) - math.pi / 4) <= 1e-10
        assert abs(wd(3) - 2.0 / 3.0) <= 1e-10

    @pytest.mark.parametrize("d,closed_form", [
        (0, math.pi / 2), (1, 1.0), (2, math.pi / 4), (3, 2.0 / 3.0),
        (4, 3.0 * math.pi / 16.0), (5, 8.0 / 15.0)])
    def test_closed_forms(self, d, closed_form):
        assert wd(d) == pytest.approx(closed_form, rel=1e-15, abs=0.0)

    def test_d2_is_exactly_pi_over_4(self):
        # the only dimension the solver uses: its bound columns depend on it
        assert wd(2) == math.pi / 4

    def test_strictly_decreasing_and_bounded(self):
        vals = [wd(d) for d in range(1, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            wd(-1)


class TestKappa0:
    def test_zero_gradient(self):
        assert kappa0(sample_inputs(grad_v_sup=0.0)) == 0.0

    def test_reference_value(self):
        k = kappa0(sample_inputs(dq_sup=4.0, grad_v_sup=1.0))
        assert k == pytest.approx(20.0)

    def test_linear_in_flux_derivative(self):
        k1 = kappa0(sample_inputs(dq_sup=4.0))
        k2 = kappa0(sample_inputs(dq_sup=8.0))
        assert k2 == pytest.approx(2.0 * k1)


class TestTvBoundDeviation:
    def test_t_zero_is_initial_tv(self):
        bi = sample_inputs()
        assert tv_bound_deviation(0.0, bi) == pytest.approx(bi.tv0)

    def test_constant_when_all_growth_vanishes(self):
        bi = sample_inputs(grad_v_sup=0.0, ci=0.0, div_sup=0.0)
        for t in (0.0, 0.5, 2.0):
            assert tv_bound_deviation(t, bi) == pytest.approx(bi.tv0)

    def test_monotone_in_time(self):
        bi = sample_inputs()
        ts = np.linspace(0.0, 1.0, 11)
        vals = [tv_bound_deviation(t, bi) for t in ts]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_empty_population_past_overflow_is_not_nan(self):
        # tv0 = 0 next to a growth factor past LOG_MAX: that term is 0,
        # not 0 * inf, so the envelope is inf, or 0 with no forcing
        bi = sample_inputs(tv0=0.0, grad_v_sup=1e6)
        assert kappa0(bi) * 16.0 > LOG_MAX
        assert tv_bound_deviation(16.0, bi) == math.inf
        unforced = replace(bi, ci=0.0, div_sup=0.0)
        assert tv_bound_deviation(16.0, unforced) == 0.0


class TestStabilityBoundDeviation:
    def test_identical_configs_zero_datum_difference(self):
        bi = sample_inputs()
        sb = stability_bound_deviation(0.5, bi, bi, ParameterDeltas())
        assert sb == StabilityBound(value=0.0, log_value=-math.inf)

    def test_datum_difference_only(self):
        bi = sample_inputs(grad_v_sup=0.1, ci=0.1)
        deltas = ParameterDeltas(drho0_l1=0.25)
        sb = stability_bound_deviation(0.5, bi, bi, deltas)
        # the feedback rate b = C_I (exp(k0 t) sup|q'| TV(t) + sup q), with
        # k0 = 5 * 4 * 0.1 and TV(t) = tv0 + t 2 W_2 sup q (C_I + graddiv_l1)
        tv = 5.0 + 0.5 * (math.pi / 2) * 1.0 * (0.1 + 0.6)
        b = 0.1 * (math.exp(2.0 * 0.5) * 4.0 * tv + 1.0)
        expect = (1 + 0.5 * math.exp(0.5 * b)) * 0.25
        assert sb.value == pytest.approx(expect)
        assert sb.log_value == pytest.approx(math.log(expect))

    def test_speed_law_perturbation_gives_positive_a(self):
        bi = sample_inputs()
        deltas = ParameterDeltas(dq_sup=0.1, ddq_sup=0.2)
        sb = stability_bound_deviation(0.5, bi, bi, deltas)
        # no datum difference: the bound is positive through a(t) alone
        assert sb.value > 0.0 and math.isfinite(sb.log_value)

    def test_t_zero(self):
        bi = sample_inputs()
        deltas = ParameterDeltas(drho0_l1=0.3, dq_sup=0.5)
        sb = stability_bound_deviation(0.0, bi, bi, deltas)
        assert sb.value == pytest.approx(0.3)

    def test_overflow_goes_to_log_space(self):
        bi = sample_inputs(ci=10.0, grad_v_sup=5.0)
        deltas = ParameterDeltas(drho0_l1=0.1)
        sb = stability_bound_deviation(2.0, bi, bi, deltas)
        assert sb.value == math.inf
        assert np.isfinite(sb.log_value) and sb.log_value > 0

    def test_overflow_with_zero_deltas_is_not_zero(self):
        # exp(k0 t) overflows while the parameter deltas are 0: the zero
        # deltas contribute nothing, the datum difference keeps the bound
        bi = all_ones(grad_v_sup=100.0)
        sb = stability_bound_deviation(10.0, bi, bi,
                                       ParameterDeltas(drho0_l1=0.1))
        assert_infinite_envelope(sb)
        # a(t) is 0: without the datum difference the bound is 0, not NaN
        assert stability_bound_deviation(10.0, bi, bi, ParameterDeltas()) \
            == StabilityBound(value=0.0, log_value=-math.inf)

    def test_monotone_in_time(self):
        bi = sample_inputs(grad_v_sup=0.2, ci=0.3)
        deltas = ParameterDeltas(drho0_l1=0.1, dq_sup=0.05)
        vals = [stability_bound_deviation(t, bi, bi, deltas).log_value
                for t in np.linspace(0.0, 1.0, 6)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestGronwall:
    # (c, x, base) -> (value, log value) of (1 + c exp(x)) base: one row
    # per branch, the log value exact in each
    @pytest.mark.parametrize("c,x,base,expected", [
        pytest.param(2.0, 0.0, 0.5, (1.5, math.log(1.5)), id="fits"),
        pytest.param(1.0, 0.0, 1e308,
                     (math.inf, math.log(2.0) + math.log(1e308)),
                     id="value-overflows"),
        pytest.param(2.0, 800.0, 0.5,
                     (math.inf, math.log(2.0) + 800.0 + math.log(0.5)),
                     id="growth-overflows"),
        pytest.param(1e10, 699.0, 0.5,
                     (math.inf, math.log(1e10) + 699.0 + math.log(0.5)),
                     id="growth-overflows-below-log-max"),
        pytest.param(1.0, 800.0, 0.0, (0.0, -math.inf),
                     id="zero-base-infinite-growth"),
        pytest.param(1.0, math.nan, 0.5, (math.nan, math.nan),
                     id="nan-exponent"),
        pytest.param(1.0, 0.0, math.nan, (math.nan, math.nan),
                     id="nan-base")])
    def test_branches(self, c, x, base, expected):
        np.testing.assert_array_equal(_gronwall(c, x, base), expected)


def recording(cls, log):
    """Subclass of the dataclass cls that adds each attribute name read
    from an instance to the set log."""
    class Recording(cls):
        def __getattribute__(self, name):
            log.add(name)
            return super().__getattribute__(name)
    return Recording


class TestEnvelopeInputsAreRead:
    def test_every_field_feeds_an_envelope(self):
        # a field that no evaluator reads is an input no envelope needs
        read_inputs, read_deltas = set(), set()
        inputs = recording(BoundInputs, read_inputs)(
            **{f.name: 1.0 for f in fields(BoundInputs)})
        deltas = recording(ParameterDeltas, read_deltas)(
            **{f.name: 1.0 for f in fields(ParameterDeltas)})
        tv_bound_deviation(1.0, inputs)
        stability_bound_deviation(1.0, inputs, inputs, deltas)
        assert {f.name for f in fields(BoundInputs)} - read_inputs == set()
        assert {f.name for f in fields(ParameterDeltas)} - read_deltas \
            == set()


class TestBoundInputsFor:
    def test_failing_deviation_operator_propagates(self):
        # an operator that cannot evaluate the half datum has no C_I;
        # reporting 0 would drop the C_I term from the TV envelope
        model, datum = preset("crossing").with_mesh(0.4).build()
        op = model.deviation

        def fails_on_half(state):
            if state.data.max() < 0.5:
                raise NumericError("operator undefined here")
            return op(state)

        with pytest.raises(NumericError, match="undefined here"):
            bound_inputs_for(replace(model, deviation=fails_on_half), datum)

    def test_bounded_memory(self):
        # one deviation value, (n, 2, nx, ny), is W bytes.  The operator
        # needs 1.75 W of its own while a second sample (0.5 W) and the
        # first value (W) are held; estimating C_I from values and pair
        # differences all held at once peaked at 4.25 W
        model, datum = preset("crossing").with_mesh(0.05).build()
        W = model.n * 2 * model.grid.nx * model.grid.ny * 8
        bound_inputs_for(model, datum)  # warm numpy's lazy imports
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            bound_inputs_for(model, datum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 3.5 * W

    def test_zero_datum_has_zero_ci(self):
        model, datum = preset("crossing").with_mesh(0.4).build()

        def never_called(state):
            raise AssertionError("C_I of a zero datum needs no sample")

        zero = PopulationField.zeros(model.grid, model.n)
        inputs = bound_inputs_for(replace(model, deviation=never_called), zero)
        assert [bi.ci for bi in inputs] == [0.0, 0.0]


class TestCheckInvariance:
    """[0, R] holds after every step of a deviation-family run, read from
    the per-population minima and maxima of RunResult.reports."""

    @staticmethod
    def in_range(model, result, tol=1e-6):
        assert result.reports
        return all(r.min.min() >= -tol and r.max.max() <= model.R + tol
                   for r in result.reports)

    def deviation_model(self, grid, t_max=0.1):
        return ModelSpec(family=DEVIATION, grid=grid,
                         laws=(linear_speed_law(4.0, 1.0),),
                         dirs=(constant_direction(grid, 1.0, 0.0, 0.8, 0.75),),
                         deviation=GradientAvoidance(
                             np.zeros((1, 1)),
                             sample_kernel(bump_kernel(0.5), grid)),
                         t_max=t_max)

    def test_zero_datum_passes(self, corridor_grid):
        model = self.deviation_model(corridor_grid)
        result = run(model, PopulationField.zeros(corridor_grid, 1))
        assert self.in_range(model, result)
        assert all(r.max.max() == 0.0 for r in result.reports)

    def test_full_density_frozen(self):
        # closed box, room full at the maximal density: v(R) = 0 gives zero
        # flux and the walls block the scheme's boundary diffusion
        grid = make_grid((0.0, 0.0, 1.0, 1.0), 0.05, 0.05,
                         room=(0.1, 0.1, 0.9, 0.9))
        model = self.deviation_model(grid)
        from crowdflow import boundary
        datum = PopulationField.from_arrays(
            grid, boundary(grid).room.astype(float))
        result = run(model, datum)
        assert self.in_range(model, result)
        # v(R) = 0: nothing moves
        assert np.array_equal(result.state.data, datum.data)

    def test_crossing_preset_passes(self):
        cfg = preset("crossing").with_mesh(0.1)
        cfg = replace(cfg, t_max=1.0)
        model, datum = cfg.build()
        assert self.in_range(model, run(model, datum))


class TestNormHelpers:
    def test_sup_gradient_linear_field(self, unit_grid):
        X = unit_grid.xc[:, None]
        Y = unit_grid.yc[None, :]
        V = np.stack([np.broadcast_to(2.0 * X, (unit_grid.nx, unit_grid.ny)),
                      np.broadcast_to(-3.0 * Y, (unit_grid.nx, unit_grid.ny))])
        # entrywise 1-norm of the Jacobian: |2| + |-3| = 5
        assert sup_gradient(V, unit_grid) == pytest.approx(5.0, rel=1e-10)

    def test_kernel_norms_bump(self):
        kn = kernel_norms(bump_kernel(0.5))
        # max |a'| of (1 - 4x^2)^3 is at x = 1/(2 sqrt 5)
        x = 1.0 / (2.0 * math.sqrt(5.0))
        peak = 24.0 * x * (1.0 - 4.0 * x * x) ** 2
        assert kn["grad_eta_sup"] >= peak - 1e-6
        assert kn["grad_eta_sup"] <= 2.0 * peak
        assert kn["hess_eta_sup"] > 0.0

    def test_direction_norms_constant_field(self, unit_grid):
        d = constant_direction(unit_grid, 1.0, 0.0, 0.0,
                               restrict_to_room=False)
        dn = direction_norms(d, unit_grid)
        assert dn["vec_sup"] == pytest.approx(1.0)
        assert dn["div_sup"] == pytest.approx(0.0, abs=1e-12)
        assert dn["divvec_l1"] == pytest.approx(0.0, abs=1e-12)

    def test_direction_norms_with_walls(self, corridor_grid):
        d = constant_direction(corridor_grid, 1.0, 0.0, 0.8, 0.75)
        dn = direction_norms(d, corridor_grid)
        assert dn["vec_sup"] == pytest.approx(1.8, abs=1e-12)
        assert dn["div_sup"] > 0.0
        assert dn["graddiv_l1"] > 0.0


def dense_kernel_norms(spec, samples=1201):
    """Oracle for kernel_norms: one dense samples x samples scan."""
    xs = np.linspace(-spec.half_width_x, spec.half_width_x, samples)
    ys = np.linspace(-spec.half_width_y, spec.half_width_y, samples)
    ax, dax = spec.fx(xs), spec.dfx(xs)
    by, dby = spec.fy(ys), spec.dfy(ys)
    ddax = np.gradient(dax, xs)
    ddby = np.gradient(dby, ys)
    grad = (np.abs(dax)[:, None] * np.abs(by)[None, :]
            + np.abs(ax)[:, None] * np.abs(dby)[None, :])
    hess = (np.abs(ddax)[:, None] * np.abs(by)[None, :]
            + 2.0 * np.abs(dax)[:, None] * np.abs(dby)[None, :]
            + np.abs(ax)[:, None] * np.abs(ddby)[None, :])
    return dict(grad_eta_sup=float(grad.max()),
                hess_eta_sup=float(hess.max()))


def skewed_kernel():
    """A custom kernel: different x and y half widths, an odd dfx (not
    the derivative of fx) and profiles that are not bumps."""
    return KernelSpec(fx=lambda x: np.cos(x) ** 2,
                      dfx=lambda x: x ** 3 - 1.3 * np.sin(2.0 * x),
                      fy=lambda y: 1.0 - 0.5 * y * y,
                      dfy=lambda y: -y + 0.1 * y * y,
                      half_width_x=0.7, half_width_y=1.3)


class TestKernelNormsScan:
    @pytest.mark.parametrize("spec", [bump_kernel(0.25), bump_kernel(0.5),
                                      bump_kernel(1.0), skewed_kernel()],
                             ids=["bump0.25", "bump0.5", "bump1", "skewed"])
    def test_blocked_scan_matches_dense_scan(self, spec):
        assert kernel_norms(spec) == dense_kernel_norms(spec)

    @pytest.mark.parametrize("samples", [2, 17, 32, 33, 64])
    def test_any_sample_count(self, samples):
        # fewer rows than a block, one block, one more, two blocks
        spec = skewed_kernel()
        assert kernel_norms(spec, samples) == dense_kernel_norms(spec, samples)

    def test_bounded_memory(self):
        # the dense 1201 x 1201 scan peaked at 34.8 MB of temporaries
        kernel_norms(bump_kernel(0.5))  # warm numpy's lazy imports
        tracemalloc.start()
        try:
            kernel_norms(bump_kernel(0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestDifferenceRule:
    def test_matches_numpy_gradient_bitwise(self, corridor_grid, rng):
        shape = (corridor_grid.nx, corridor_grid.ny)
        f = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        for axis, h in ((0, corridor_grid.dx), (1, corridor_grid.dy)):
            want = np.gradient(f, h, axis=axis)
            assert np.array_equal(_diff(f, corridor_grid, axis), want)
            out = np.full(shape, np.nan)
            assert _diff(f, corridor_grid, axis, out=out) is out
            assert np.array_equal(out, want)

    def test_two_cells_one_sided(self):
        g = make_grid((0.0, 0.0, 2.0, 1.0), 1.0, 0.5)
        f = np.array([[1.0, 2.0], [4.0, 8.0]])
        assert np.array_equal(_diff(f, g, 0), np.gradient(f, 1.0, axis=0))
        assert np.array_equal(_diff(f, g, 1), np.gradient(f, 0.5, axis=1))

    @pytest.mark.parametrize("nx", [2, 3, 127, 128, 129, 640])
    def test_sup_gradient_slabs_are_the_dense_sup(self, rng, nx):
        # the row slabs, each read with the row on either side, give the
        # whole-grid differences' sup bit for bit, also where the largest
        # cell lies on a slab's edge or on the grid's
        grid = make_grid((0.0, 0.0, 0.1 * nx, 1.0), 0.1, 0.05)
        shape = (2, 2, nx, grid.ny)
        W = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
        for row in (None, 0, 126, 127, 128, 129, nx - 1):
            spiked = W.copy()
            if row is not None and row < nx:
                spiked[1, 0, row, 7] = 1e6
            want = oracle_sup_gradient(spiked, grid)
            assert bits(sup_gradient(spiked, grid)) == bits(want)
            assert bits(sup_gradient(spiked[1], grid)) \
                == bits(oracle_sup_gradient(spiked[1:], grid))


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def oracle_sup_gradient(W, grid):
    """sup over populations and cells of |d0 W0| + |d1 W0| + |d0 W1| +
    |d1 W1|, by np.gradient, of an (n, 2, nx, ny) field."""
    sups = []
    for V in W:
        total = np.zeros(V.shape[1:])
        for comp in V:
            for axis, h in ((0, grid.dx), (1, grid.dy)):
                total += np.abs(np.gradient(comp, h, axis=axis))
        sups.append(float(total.max()))
    return max(sups)


class TestRunningEnvelope:
    def test_tracks_running_sup_over_runs(self):
        model, datum = preset("crossing").with_mesh(0.4).build()
        model = replace(model, t_max=0.5, snapshot_times=())
        envelope = RunningEnvelope(model)
        assert envelope.inputs is None
        envelope.inputs = bound_inputs_for(model, datum)
        assert envelope.inputs[0].grad_v_sup == 0.0
        seen = []

        def on_step(report, state, W):
            seen.append(oracle_sup_gradient(W, model.grid))
            envelope.include(sup_gradient(W, model.grid))
            assert [bi.grad_v_sup for bi in envelope.inputs] \
                == [max(seen)] * model.n

        run(model, datum, on_step=on_step)
        first = envelope.inputs[0].grad_v_sup
        # a second run of a smaller datum keeps the sup over both
        run(model, PopulationField(model.grid, 0.5 * datum.data),
            on_step=on_step)
        assert envelope.inputs[0].grad_v_sup == max(seen) >= first
        assert aggregate_inputs(envelope.inputs) == replace(
            aggregate_inputs(bound_inputs_for(model, datum)),
            grad_v_sup=max(seen))

    # the families that have envelopes
    @pytest.mark.parametrize("family", ["deviation"])
    def test_bounds_are_the_family_formulas(self, family):
        cfg = replace(preset("crossing").with_mesh(0.4), family=family)
        model, datum = cfg.build()
        model = replace(model, t_max=0.2, snapshot_times=())
        envelope = RunningEnvelope(model)
        envelope.inputs = bound_inputs_for(model, datum)
        ts = (0.0, 0.05, 0.2)

        def expected(t):
            inputs = [replace(bi, grad_v_sup=envelope.inputs[0].grad_v_sup)
                      for bi in bound_inputs_for(model, datum)]
            return [tv_bound_deviation(t, bi) for bi in inputs]

        assert [envelope.bounds(t) for t in ts] == [expected(t) for t in ts]
        run(model, datum, on_step=lambda report, state, W: envelope.include(
            sup_gradient(W, model.grid)))
        assert envelope.inputs[0].grad_v_sup > 0.0
        assert [envelope.bounds(t) for t in ts] == [expected(t) for t in ts]

    def test_stability_is_the_deviation_formula(self):
        # each row's envelope is the deviation formula on the aggregate
        # after both runs: grad_v_sup is the sup over every step of both
        model, datum = preset("crossing").with_mesh(0.4).build()
        model = replace(model, t_max=0.2, snapshot_times=(0.1,))
        datum2 = PopulationField(model.grid, 0.5 * datum.data)
        sups = []
        for d in (datum, datum2):
            run(model, d, on_step=lambda report, state, W: sups.append(
                oracle_sup_gradient(W, model.grid)))
        agg = replace(aggregate_inputs(bound_inputs_for(model, datum)),
                      grad_v_sup=max(sups))
        deltas = ParameterDeltas(drho0_l1=float(
            np.abs(datum.data - datum2.data).sum()) * model.grid.cell_area)
        table = stability_table(model, datum, datum2)
        assert [t for t, _, _ in table] == [0.0, 0.1, 0.2]
        for t, _, bound in table:
            assert bound == stability_bound_deviation(t, agg, agg, deltas)

    def test_stability_rejects_the_differentiable_family(self):
        # the differentiable family has no envelope at all, so neither
        # the envelope nor its inputs can be made for it
        cfg = replace(preset("crossing").with_mesh(0.4),
                      family="differentiable")
        model, datum = cfg.build()
        with pytest.raises(ConfigurationError, match="deviation"):
            RunningEnvelope(model)
        with pytest.raises(ConfigurationError, match="deviation"):
            bound_inputs_for(model, datum)

    def test_bounds_command_envelopes(self, tmp_path, capsys):
        # every tv_bound the bounds command writes is tv_bound_deviation of
        # its population's inputs at the running sup of the steps so far
        argv = ["bounds", "--preset", "crossing", "--mesh", "0.2",
                "--tmax", "0.5", "--out", str(tmp_path)]
        assert main(argv) == 0
        model, datum = preset("crossing").with_mesh(0.2).build()
        model = replace(model, t_max=0.5, snapshot_times=())
        inputs = bound_inputs_for(model, datum)
        running = [(0.0, 0.0)]
        run(model, datum, on_step=lambda report, state, W: running.append(
            (report.t, max(running[-1][1],
                           oracle_sup_gradient(W, model.grid)))))

        def expected(t, i):
            grad = [g for s, g in running if s <= t][-1]
            return tv_bound_deviation(t, replace(inputs[i], grad_v_sup=grad))

        def rows(name):
            lines = (tmp_path / name).read_text().splitlines()[1:]
            return [[float(v) for v in line.split(",")] for line in lines]

        for t, pop, _, tv_bound, *_ in rows("bounds.csv"):
            assert tv_bound == expected(t, int(pop) - 1)
        diag = rows("diagnostics.csv")
        assert len(diag) > 2
        for row in diag:
            assert row[5::5] == [expected(row[0], i) for i in range(model.n)]


class TestStabilityTable:
    def test_rows_are_the_command_rows(self, tmp_path, capsys):
        # the pinned stability case: the command writes the table's rows
        assert main(["stability", "--preset", "crossing", "--mesh", "0.2",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "stability.csv").read_text().splitlines()[1:]
        model, datum1 = preset("crossing").with_mesh(0.2).build()
        # the command's datum2 for the default --perturb 0.1
        mass1 = float(np.abs(datum1.data[0]).sum()) * model.grid.cell_area
        data2 = datum1.data.copy()
        data2[0] *= 1.0 - 0.1 / mass1
        table = stability_table(model, datum1,
                                PopulationField(model.grid, data2))
        assert [(t, d, b.value, b.log_value) for t, d, b in table] \
            == [tuple(map(float, line.split(","))) for line in lines]

    def test_identical_data(self):
        model, datum = preset("crossing").with_mesh(0.4).build()
        model = replace(model, t_max=0.1, snapshot_times=(0.05,))
        table = stability_table(model, datum, datum.copy())
        assert [(t, d, b.value, b.log_value) for t, d, b in table] == [
            (t, 0.0, 0.0, -math.inf) for t in (0.0, 0.05, 0.1)]

    def test_takes_no_diagnostics_norms(self, monkeypatch):
        # stability writes no diagnostics.csv, so its runs take the norms
        # of no state: the one call is bound_inputs_for's, of datum1
        monkeypatch.setattr(forked, "_usable_cpus", lambda: 1)
        model, datum = preset("crossing").with_mesh(0.4).build()
        taken, norms = [], analysis.norms
        monkeypatch.setattr(analysis, "norms",
                            lambda state: taken.append(state) or norms(state))
        stability_table(model, datum, datum.copy())
        assert len(taken) == 1 and taken[0] is datum

    def test_three_populations(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[grid]\nmesh = 0.4\n[model]\ntmax = 0.1\n"
                       "snapshot_times = 0 0.05\n" + "".join(
                           f"[population.{i}]\nvmax = 4\ngx = {gx}\n"
                           f"eps = 0.3 0.2 0.1\ndatum = {datum}\n"
                           for i, gx, datum in (
                               (1, 1, "0.9 -6.4 -2.4 -3.2 2.4"),
                               (2, -1, "0.7 3.2 -2.4 6.4 2.4"),
                               (3, 1, "0.6 -1.6 -2.8 1.6 -0.8"))))
        model, datum1 = parse_config(str(ini)).build()
        assert model.n == 3
        data2 = datum1.data.copy()
        data2[2] *= 0.5
        table = stability_table(model, datum1,
                                PopulationField(model.grid, data2))
        assert [t for t, _, _ in table] == [0.0, 0.05, 0.1]
        drho0 = float(np.abs(datum1.data - data2).sum()) \
            * model.grid.cell_area
        assert table[0][1] == drho0 > 0.0
        # the envelope dominates the measured distance
        assert all(0.0 < d <= b.value for _, d, b in table)


class TestRunTables:
    def test_rows_are_the_command_files(self, tmp_path, capsys):
        # crossing at mesh 0.4 takes 12 steps: diagnostics at t = 0, step
        # 10 and the final state; bound rows at t = 0 and 1.  Where its
        # populations are stepped in two processes, this one sees its own
        # population's snapshots only
        out = tmp_path / "cli"
        assert main(["bounds", "--preset", "crossing", "--mesh", "0.4",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        cfg = preset("crossing").with_mesh(0.4)
        model, datum = cfg.build()
        seen, diag_rows = [], []
        result, bound_rows = run_tables(
            model, datum, cfg.diag_every, True,
            lambda t, s: seen.append((t, s.copy())), diag_rows)
        assert [t for t, _ in seen] == [0.0, 1.0]
        last = seen[-1][1]
        assert last.first == 0
        assert np.array_equal(last.data, result.state.data[:last.n])
        assert [r[:2] for r in bound_rows] == [
            (t, i) for t, _ in seen for i in (1, 2)]
        _write_table(str(tmp_path / "diagnostics.csv"),
                     diagnostics_header(model), diag_rows)
        _write_table(str(tmp_path / "bounds.csv"),
                     "t,population,tv,tv_bound,slack,linf,linf_bound",
                     bound_rows)
        for name in ("diagnostics.csv", "bounds.csv"):
            assert (tmp_path / name).read_bytes() \
                == (out / name).read_bytes()

    def test_linf_bound_is_the_model_r(self):
        # R = 1.25, not the default 1, so that the L-infinity envelope
        # shows that it is the model's R
        cfg = replace(preset("crossing").with_mesh(0.4), R=1.25)
        model, datum = cfg.build()
        _, bound_rows = run_tables(model, datum, cfg.diag_every, True,
                                   lambda t, s: None, [])
        assert len(bound_rows) == 4
        assert {r[6] for r in bound_rows} == {model.R} == {1.25}

    @pytest.mark.parametrize("k", [1, 4])
    def test_failed_run_leaves_its_rows(self, monkeypatch, k):
        # a NumericError in step k: rows at t = 0 and steps 1 ... k - 1
        model, datum = preset("crossing").with_mesh(0.4).build()
        times = [r.t for r in run(model, datum).reports]
        step, calls = solver.split_step, []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == k:
                raise NumericError("injected")
            return step(*args, **kwargs)

        monkeypatch.setattr(solver, "split_step", failing)
        diag_rows = []
        with pytest.raises(NumericError, match="injected"):
            run_tables(model, datum, 1, True, lambda t, s: None, diag_rows)
        assert [row[0] for row in diag_rows] == [0.0, *times[:k - 1]]

    def test_differentiable_has_no_envelope(self, monkeypatch):
        monkeypatch.setattr(analysis, "bound_inputs_for",
                            _solver_must_not_start)
        cfg = replace(preset("crossing").with_mesh(0.4),
                      family="differentiable", t_max=0.1)
        model, datum = cfg.build()
        header = diagnostics_header(model).split(",")
        assert header == ["t", "dt"] + [f"{name}_{i}" for i in (1, 2)
                                        for name in ("mass", "linf", "tv",
                                                     "escaped")]
        diag_rows = []
        _, bound_rows = run_tables(model, datum, 1, False,
                                   lambda t, s: None, diag_rows)
        assert bound_rows == [] and len(diag_rows) > 2
        assert {len(row) for row in diag_rows} == {len(header)}

    def test_differentiable_bounds_is_a_configuration_error(self):
        cfg = replace(preset("crossing").with_mesh(0.4),
                      family="differentiable")
        model, datum = cfg.build()
        diag_rows = []
        with pytest.raises(ConfigurationError, match="deviation family"):
            run_tables(model, datum, 1, True, lambda t, s: None, diag_rows)
        assert diag_rows == []


class TestBoundInputAssembly:
    # the families that have envelopes
    @pytest.mark.parametrize("family", ["deviation"])
    def test_crossing_inputs_pinned(self, family):
        cfg = replace(preset("crossing").with_mesh(0.4), family=family)
        model, datum = cfg.build()
        want = [BoundInputs(**CROSSING_PARAMS, tv0=tv0, ci=ci)
                for tv0, ci in zip(CROSSING_TV0, CROSSING_CI)]
        assert bound_inputs_for(model, datum) == want

    def test_crossing_aggregate_pinned(self):
        model, datum = preset("crossing").with_mesh(0.4).build()
        assert aggregate_inputs(bound_inputs_for(model, datum)) \
            == BoundInputs(**CROSSING_PARAMS, tv0=25.6, ci=0.7006750996465252)

    def test_aggregate_merges_every_parameter_field(self):
        # a parameter field left out of the merge would stay NaN
        params = [f.name for f in fields(BoundInputs)
                  if f.name != "tv0"]
        lo = BoundInputs(**{name: 1.0 for name in params})
        hi = BoundInputs(**{name: 2.0 for name in params})
        agg = aggregate_inputs([lo, hi])
        assert all(getattr(agg, name) == 2.0 for name in params)
