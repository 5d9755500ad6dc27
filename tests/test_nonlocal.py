from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crowdflow import (ConfigurationError, EstimationError, GradientAvoidance,
                       PopulationField, advection_field, bump_kernel,
                       constant_direction, convolve_gradient, estimate_ci,
                       flux_push, gradient_avoidance, linear_speed_law,
                       preset, sample_kernel, saturate)
from crowdflow import nonlocal_ops


def smooth_sample(grid, cx, cy, amp):
    X = grid.xc[:, None]
    Y = grid.yc[None, :]
    d2 = (X - cx) ** 2 + (Y - cy) ** 2
    return amp * np.exp(-20.0 * d2)


def avoidance_oracle(state, eps, k):
    """sum_j -eps_ij N(grad(rho_j conv eta)), one population and one
    nonzero entry at a time, summed in j order."""
    out = np.zeros((state.n, 2, state.grid.nx, state.grid.ny))
    for i in range(state.n):
        for j in range(state.n):
            if eps[i][j] != 0.0:
                out[i] = out[i] + -eps[i][j] * saturate(
                    convolve_gradient(state.data[j], k))
    return out


class TestSaturate:
    def test_zero(self):
        out = saturate(np.zeros((2, 4, 4)))
        assert np.all(out == 0.0)

    def test_unit_x(self):
        u = np.zeros((2, 1, 1))
        u[0] = 1.0
        out = saturate(u)
        assert out[0, 0, 0] == pytest.approx(1.0 / np.sqrt(2.0))
        assert out[1, 0, 0] == 0.0

    def test_large_input_approaches_one(self):
        u = np.zeros((2, 1, 1))
        u[0] = 1e6
        out = saturate(u)
        mag = np.hypot(out[0, 0, 0], out[1, 0, 0])
        assert 0.9999 < mag < 1.0

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, (2, 3, 3),
                      elements=st.floats(-50, 50, allow_nan=False)))
    def test_odd_and_contractive(self, u):
        out = saturate(u)
        assert np.array_equal(saturate(-u), -out)
        assert np.all(np.hypot(out[0], out[1]) < 1.0)


class TestGradientAvoidance:
    def test_constant_density_interior_zero(self, unit_grid, unit_kernel):
        state = PopulationField.from_arrays(
            unit_grid, np.full((unit_grid.nx, unit_grid.ny), 0.5))
        out = gradient_avoidance(state, np.array([[0.3]]), unit_kernel)[0]
        b = unit_kernel.bandwidth_x
        assert np.allclose(out[:, b:-b, b:-b], 0.0, atol=1e-12)

    def test_ramp_points_downhill(self, unit_grid, unit_kernel):
        ramp = np.broadcast_to(unit_grid.xc[:, None],
                               (unit_grid.nx, unit_grid.ny)).copy()
        state = PopulationField.from_arrays(unit_grid, ramp)
        out = gradient_avoidance(state, np.array([[0.3]]), unit_kernel)[0]
        b = unit_kernel.bandwidth_x
        # density increases in x: the deviation points towards negative x
        assert np.all(out[0, b:-b, b:-b] < 0.0)

    def test_zero_eps(self, unit_grid, unit_kernel, rng):
        state = PopulationField(unit_grid,
                                rng.random((1, unit_grid.nx, unit_grid.ny)))
        out = gradient_avoidance(state, np.array([[0.0]]), unit_kernel)[0]
        assert np.all(out == 0.0)

    def test_magnitude_bounded_by_eps(self, unit_grid, unit_kernel, rng):
        state = PopulationField(
            unit_grid, 5.0 * rng.random((1, unit_grid.nx, unit_grid.ny)))
        out = gradient_avoidance(state, np.array([[0.3]]), unit_kernel)[0]
        assert np.hypot(out[0], out[1]).max() <= 0.3 + 1e-12

    def test_matches_per_entry_oracle(self, unit_grid, unit_kernel, rng):
        state = PopulationField(
            unit_grid, rng.random((3, unit_grid.nx, unit_grid.ny)))
        eps = [[0.3, 0.7, 0.0], [0.0, 0.0, 0.0], [-0.2, 0.0, 0.5]]
        out = GradientAvoidance(eps, unit_kernel)(state)
        assert np.array_equal(out, avoidance_oracle(state, eps, unit_kernel))

    @pytest.mark.parametrize("name,expect", [("crossing", 2),
                                             ("evacuation", 2),
                                             ("zero", 0)])
    def test_one_gradient_per_nonzero_column(self, monkeypatch, name,
                                             expect):
        if name == "zero":
            cfg = preset("crossing")
            cfg = replace(cfg, populations=tuple(
                replace(p, eps=()) for p in cfg.populations))
        else:
            cfg = preset(name)
        model, datum = cfg.with_mesh(0.2).build()
        calls = []

        def counted(f, k):
            calls.append(1)
            return convolve_gradient(f, k)

        monkeypatch.setattr(nonlocal_ops, "convolve_gradient", counted)
        advection_field(datum, model)
        assert len(calls) == expect

    def test_bad_matrix_shape_rejected(self, unit_grid, unit_kernel):
        with pytest.raises(ConfigurationError, match="square"):
            GradientAvoidance([[0.3, 0.7]], unit_kernel)
        with pytest.raises(ConfigurationError, match="square"):
            GradientAvoidance([0.3, 0.7], unit_kernel)
        op = GradientAvoidance(np.zeros((2, 2)), unit_kernel)
        with pytest.raises(ConfigurationError, match="for 1 populations"):
            op(PopulationField.zeros(unit_grid, 1))


class TestFluxPush:
    def test_zero_density(self, unit_grid, unit_kernel):
        law = linear_speed_law(4.0, 1.0)
        direction = constant_direction(unit_grid, 1.0, 0.0, 0.0,
                                       restrict_to_room=False)
        state = PopulationField.zeros(unit_grid, 1)
        out = flux_push(state, 0, law, direction, unit_kernel)
        assert np.all(out == 0.0)

    def test_full_density(self, unit_grid, unit_kernel):
        law = linear_speed_law(4.0, 1.0)
        direction = constant_direction(unit_grid, 1.0, 0.0, 0.0,
                                       restrict_to_room=False)
        state = PopulationField.from_arrays(
            unit_grid, np.ones((unit_grid.nx, unit_grid.ny)))
        out = flux_push(state, 0, law, direction, unit_kernel)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_half_density_interior(self, unit_grid, unit_kernel):
        law = linear_speed_law(4.0, 1.0)
        direction = constant_direction(unit_grid, 1.0, 0.0, 0.0,
                                       restrict_to_room=False)
        state = PopulationField.from_arrays(
            unit_grid, np.full((unit_grid.nx, unit_grid.ny), 0.5))
        out = flux_push(state, 0, law, direction, unit_kernel)
        b = unit_kernel.bandwidth_x
        m = unit_kernel.mass  # q(0.5) = 1, so the smoothed flux is (m, 0)
        assert np.allclose(out[0, b:-b, b:-b], m / np.sqrt(1 + m * m),
                           atol=1e-10)
        assert np.allclose(out[1], 0.0, atol=1e-12)

    def test_strictly_below_one(self, unit_grid, unit_kernel, rng):
        law = linear_speed_law(4.0, 1.0)
        direction = constant_direction(unit_grid, 1.0, 0.0, 0.0,
                                       restrict_to_room=False)
        state = PopulationField(unit_grid,
                                rng.random((1, unit_grid.nx, unit_grid.ny)))
        out = flux_push(state, 0, law, direction, unit_kernel)
        assert np.hypot(out[0], out[1]).max() < 1.0


class TestOperatorAlgebra:
    def test_crossing_operator_mirror_symmetry(self, corridor_grid):
        kern = sample_kernel(bump_kernel(0.5), corridor_grid)
        op = GradientAvoidance([[0.3, 0.7], [0.7, 0.3]], kern)
        r1 = smooth_sample(corridor_grid, -2.0, 0.5, 0.8)
        r2 = smooth_sample(corridor_grid, 3.0, -1.0, 0.6)
        state = PopulationField.from_arrays(corridor_grid, r1, r2)
        mirrored = PopulationField.from_arrays(corridor_grid, r1[::-1],
                                               r2[::-1])
        out = op(state)[0]
        out_m = op(mirrored)[0]
        assert np.allclose(out_m[0], -out[0][::-1], atol=1e-12)
        assert np.allclose(out_m[1], out[1][::-1], atol=1e-12)


class TestEstimateCI:
    def samples(self, grid, n_samples=4, n_pop=1):
        out = []
        for k in range(n_samples):
            data = np.stack([smooth_sample(grid, 0.2 + 0.1 * k + 0.05 * p,
                                           0.5 - 0.07 * k, 0.3 + 0.1 * k)
                             for p in range(n_pop)])
            out.append(PopulationField(grid, data))
        return out

    def zero_op(self, kernel):
        return GradientAvoidance(np.zeros((1, 1)), kernel)

    def test_zero_operator(self, unit_grid, unit_kernel):
        ci = estimate_ci(self.zero_op(unit_kernel), self.samples(unit_grid))
        assert np.array_equal(ci, [0.0])

    def test_too_few_samples(self, unit_grid, unit_kernel):
        with pytest.raises(EstimationError):
            estimate_ci(self.zero_op(unit_kernel),
                        self.samples(unit_grid)[:1])

    def test_all_identical_pairs(self, unit_grid, unit_kernel):
        s = self.samples(unit_grid)[0]
        with pytest.raises(EstimationError):
            estimate_ci(self.zero_op(unit_kernel), [s, s.copy()])

    def test_unsaturated_scales_linearly_in_eps(self, unit_grid, unit_kernel):
        samples = self.samples(unit_grid)

        def unsaturated(eps):
            return lambda s: -eps * convolve_gradient(s.data[0],
                                                      unit_kernel)[None]

        e1 = estimate_ci(unsaturated(0.2), samples)[0]
        e2 = estimate_ci(unsaturated(0.4), samples)[0]
        assert e2 == pytest.approx(2.0 * e1, abs=1e-9)

    def test_saturated_subadditive_in_eps(self, unit_grid, unit_kernel):
        samples = self.samples(unit_grid)
        e1 = estimate_ci(GradientAvoidance([[0.2]], unit_kernel), samples)[0]
        e2 = estimate_ci(GradientAvoidance([[0.4]], unit_kernel), samples)[0]
        assert e2 <= 2.0 * e1 + 1e-9

    def test_crossing_per_population_values(self):
        # the values of the former one-operator-per-population evaluation
        model, datum = preset("crossing").with_mesh(0.2).build()
        samples = [datum, PopulationField(datum.grid, 0.5 * datum.data)]
        ci = estimate_ci(model.deviation, samples)
        assert ci[0] == pytest.approx(1.871731653100689, rel=1e-12)
        assert ci[1] == pytest.approx(2.0624537382971093, rel=1e-12)
        for i in range(2):
            row = np.zeros((2, 2))
            row[0] = model.deviation.eps[i]
            alone = GradientAvoidance(row, model.deviation.kernel)
            assert estimate_ci(alone, samples)[0] == ci[i]

    def test_stable_under_sample_doubling(self, unit_grid, unit_kernel):
        # one common stream: the larger set extends the smaller one, so the
        # max ratio can only grow, and should grow by < 10%
        rng = np.random.default_rng(11)
        pool = []
        for _ in range(8):
            cx, cy = rng.uniform(0.35, 0.65, size=2)
            pool.append(PopulationField(
                unit_grid, smooth_sample(unit_grid, cx, cy, 0.4)[None]))
        op = GradientAvoidance([[0.3]], unit_kernel)
        e4 = estimate_ci(op, pool[:4])[0]
        e8 = estimate_ci(op, pool)[0]
        assert e8 >= e4 - 1e-12
        assert abs(e8 - e4) <= 0.1 * max(e4, e8)

    def test_flux_push_estimate_finite(self, unit_grid, unit_kernel):
        law = linear_speed_law(4.0, 1.0)
        direction = constant_direction(unit_grid, 1.0, 0.0, 0.0,
                                       restrict_to_room=False)
        e = estimate_ci(
            lambda s: flux_push(s, 0, law, direction, unit_kernel)[None],
            self.samples(unit_grid))[0]
        assert np.isfinite(e) and e > 0.0
