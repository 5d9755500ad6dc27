import math
from dataclasses import fields, replace

import numpy as np
import pytest

from crowdflow import (BoundInputs, ConfigurationError, NumericError,
                       ParameterDeltas, PopulationField, bound_inputs_for,
                       bounds_differentiable,
                       check_invariance, direction_norms, kappa0,
                       kernel_norms, bump_kernel, constant_direction,
                       linear_speed_law, make_grid, preset, run,
                       sample_kernel,
                       stability_bound_deviation,
                       stability_bound_differentiable, sup_gradient,
                       tv_bound_deviation, wd)
from crowdflow.analysis import LOG_MAX
from crowdflow.solver import DEVIATION, ModelSpec
from crowdflow.nonlocal_ops import GradientAvoidance


def sample_inputs(**kw):
    base = dict(d=2, n1=2.0, linf0=0.9, tv0=5.0, v_sup=4.0, dv_sup=4.0,
                ddv_sup=0.0, dv_l1=4.0, q_sup=1.0, dq_sup=4.0, vec_sup=1.8,
                vec_l1=3.0, vec_grad_sup=2.0, vec_grad_l1=1.0, div_sup=1.5,
                divvec_l1=0.8, graddiv_l1=0.6, eta_sup=1.0, grad_eta_sup=3.5,
                hess_eta_sup=24.0, ci=0.5, grad_v_sup=1.0)
    base.update(kw)
    return BoundInputs(**base)


def all_ones(**kw):
    """BoundInputs with every norm 1.0, overridden by kw."""
    base = {f.name: 1.0 for f in fields(BoundInputs) if f.name != "d"}
    base.update(kw)
    return BoundInputs(**base)


def assert_infinite_envelope(sb):
    assert sb.value == math.inf
    assert sb.log_value == math.inf
    assert not math.isnan(sb.a) and not math.isnan(sb.b)


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
        k = kappa0(sample_inputs(d=2, dq_sup=4.0, grad_v_sup=1.0))
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


class TestBoundsDifferentiable:
    def test_t_zero(self):
        bi = sample_inputs()
        linf, tv = bounds_differentiable(0.0, bi)
        assert linf == pytest.approx(bi.linf0)
        assert tv == pytest.approx(bi.tv0)

    def test_zero_datum_stays_zero(self):
        bi = sample_inputs(n1=0.0, linf0=0.0, tv0=0.0)
        linf, tv = bounds_differentiable(1.0, bi)
        assert linf == 0.0 and tv == 0.0

    def test_zero_datum_past_overflow_stays_zero(self):
        bi = sample_inputs(n1=0.0, linf0=0.0, tv0=0.0, vec_grad_sup=1e6)
        linf, tv = bounds_differentiable(1.0, bi)
        assert linf == 0.0 and tv == 0.0

    def test_monotone_in_time(self):
        bi = sample_inputs()
        ts = np.linspace(0.0, 0.5, 6)
        for seq in zip(*(bounds_differentiable(t, bi) for t in ts)):
            assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))


class TestStabilityBoundDeviation:
    def test_identical_configs_zero_datum_difference(self):
        bi = sample_inputs()
        sb = stability_bound_deviation(0.5, bi, bi, ParameterDeltas())
        assert sb.a == 0.0
        assert sb.value == 0.0

    def test_datum_difference_only(self):
        bi = sample_inputs(grad_v_sup=0.1, ci=0.1)
        deltas = ParameterDeltas(drho0_l1=0.25)
        sb = stability_bound_deviation(0.5, bi, bi, deltas)
        expect = (1 + 0.5 * math.exp(0.5 * sb.b)) * 0.25
        assert sb.value == pytest.approx(expect)
        assert sb.log_value == pytest.approx(math.log(expect))

    def test_speed_law_perturbation_gives_positive_a(self):
        bi = sample_inputs()
        deltas = ParameterDeltas(dq_sup=0.1, ddq_sup=0.2)
        sb = stability_bound_deviation(0.5, bi, bi, deltas)
        assert sb.a > 0.0 and sb.value > 0.0

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
        assert sb.a == 0.0
        assert_infinite_envelope(sb)

    def test_monotone_in_time(self):
        bi = sample_inputs(grad_v_sup=0.2, ci=0.3)
        deltas = ParameterDeltas(drho0_l1=0.1, dq_sup=0.05)
        vals = [stability_bound_deviation(t, bi, bi, deltas).log_value
                for t in np.linspace(0.0, 1.0, 6)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestStabilityBoundDifferentiable:
    def test_identical_configs(self):
        bi = sample_inputs()
        sb = stability_bound_differentiable(0.3, bi, bi, ParameterDeltas())
        assert sb.value == 0.0

    def test_kernel_perturbation_positive(self):
        bi = sample_inputs(n1=0.5, linf0=0.2, tv0=0.5, v_sup=0.5, dv_sup=0.5,
                           dv_l1=0.5, vec_sup=0.5, vec_l1=0.5,
                           vec_grad_sup=0.0, vec_grad_l1=0.0, divvec_l1=0.1,
                           graddiv_l1=0.1, grad_eta_sup=1.0, hess_eta_sup=2.0)
        deltas = ParameterDeltas(deta_w1inf=0.1)
        sb = stability_bound_differentiable(0.3, bi, bi, deltas)
        assert sb.value > 0.0 and np.isfinite(sb.value)

    def test_overflow_with_zero_deltas_is_not_zero(self):
        bi = all_ones(grad_v_sup=100.0)
        sb = stability_bound_differentiable(200.0, bi, bi,
                                            ParameterDeltas(drho0_l1=0.1))
        assert sb.a == pytest.approx(0.1)
        assert_infinite_envelope(sb)

    def test_overflow_log_finite_when_it_fits(self):
        bi = all_ones()
        sb = stability_bound_differentiable(0.2, bi, bi,
                                            ParameterDeltas(drho0_l1=0.1))
        x = 0.2 * sb.b
        assert LOG_MAX <= x < math.inf
        assert sb.value == math.inf
        assert sb.log_value == pytest.approx(math.log(x) + x + math.log(0.1))

    def test_datum_difference_passthrough_at_t_zero(self):
        bi = sample_inputs()
        deltas = ParameterDeltas(drho0_l1=0.2, dv_w1inf=1.0)
        sb = stability_bound_differentiable(0.0, bi, bi, deltas)
        assert sb.value == pytest.approx(0.2)


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

    def test_zero_datum_has_zero_ci(self):
        model, datum = preset("crossing").with_mesh(0.4).build()

        def never_called(state):
            raise AssertionError("C_I of a zero datum needs no sample")

        zero = PopulationField.zeros(model.grid, model.n)
        inputs = bound_inputs_for(replace(model, deviation=never_called), zero)
        assert [bi.ci for bi in inputs] == [0.0, 0.0]


class TestCheckInvariance:
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
        rep = check_invariance(model, result)
        assert rep.ok
        assert all(m.max() == 0.0 for m in rep.maxs)

    def test_full_density_frozen(self):
        # closed box, room full at the maximal density: v(R) = 0 gives zero
        # flux and the walls block the scheme's boundary diffusion
        grid = make_grid((0.0, 0.0, 1.0, 1.0), 0.05, 0.05,
                         room=(0.1, 0.1, 0.9, 0.9))
        model = self.deviation_model(grid)
        from crowdflow import room_mask
        datum = PopulationField.from_arrays(
            grid, room_mask(grid).astype(float))
        result = run(model, datum)
        rep = check_invariance(model, result)
        assert rep.ok
        # v(R) = 0: nothing moves
        assert np.array_equal(result.state.data, datum.data)

    def test_crossing_preset_passes(self):
        cfg = preset("crossing").with_mesh(0.1)
        cfg = replace(cfg, t_max=1.0)
        model, datum = cfg.build()
        assert check_invariance(model, run(model, datum)).ok

    def test_differentiable_family_rejected(self, unit_grid):
        from crowdflow import DIFFERENTIABLE, sample_kernel
        kern = sample_kernel(bump_kernel(0.25), unit_grid)
        model = ModelSpec(family=DIFFERENTIABLE, grid=unit_grid,
                          laws=(linear_speed_law(1.0, 1.0),),
                          dirs=(constant_direction(unit_grid, 1.0, 0.0),),
                          kernels=(kern,), t_max=0.0)
        result = run(model, PopulationField.zeros(unit_grid, 1))
        with pytest.raises(ConfigurationError):
            check_invariance(model, result)


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
        assert kn["eta_sup"] == pytest.approx(1.0, abs=1e-9)
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
        assert dn["vec_l1"] == pytest.approx(1.0)  # unit area
        assert dn["vec_grad_sup"] == pytest.approx(0.0, abs=1e-12)
        assert dn["divvec_l1"] == pytest.approx(0.0, abs=1e-12)

    def test_direction_norms_with_walls(self, corridor_grid):
        d = constant_direction(corridor_grid, 1.0, 0.0, 0.8, 0.75)
        dn = direction_norms(d, corridor_grid)
        assert dn["vec_sup"] == pytest.approx(1.8, abs=1e-12)
        assert dn["vec_grad_sup"] > 0.0
        assert dn["graddiv_l1"] > 0.0
