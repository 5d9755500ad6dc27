from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crowdflow import (ConfigurationError, EstimationError, GradientAvoidance,
                       PopulationField, advection_field, bump_kernel,
                       convolve_gradient, estimate_ci, gradient_avoidance,
                       make_grid, preset, sample_kernel, saturate)
from crowdflow import analysis, nonlocal_ops


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


def direct_ratios(g, u):
    """Numerators of estimate_ci's ratios for one population's (2, nx, ny)
    value u, as written with np.gradient's differences: (sup of the
    gradient, L1 of grad div) of a sample, then (sup, L1 of div) of a
    pair difference u."""
    def grad1(f):
        return (np.abs(np.gradient(f, g.dx, axis=0))
                + np.abs(np.gradient(f, g.dy, axis=1)))

    div = np.gradient(u[0], g.dx, axis=0) + np.gradient(u[1], g.dy, axis=1)
    area = g.cell_area
    return ((max(0.0, *(float(grad1(c).max()) for c in u)),
             float(grad1(div).sum()) * area),
            (float((np.abs(u[0]) + np.abs(u[1])).max()),
             float(np.abs(div).sum()) * area))


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

    def test_compact_data_match_the_whole_grid(self, rng):
        # a ragged grid (no multiple of the 32-row product blocks), a
        # block at its corner, a zero eps column and an empty population;
        # the oracle saturates and sums over the whole grid
        grid = make_grid((0.0, 0.0, 1.3, 0.7), 0.01, 0.01)
        k = sample_kernel(bump_kernel(0.1), grid)
        data = np.zeros((3, grid.nx, grid.ny))
        data[0, -7:, -5:] = rng.uniform(0.1, 1.0, (7, 5))
        data[1, 40:60, 20:30] = rng.uniform(0.1, 1.0, (20, 10))
        state = PopulationField(grid, data)
        eps = np.array([[0.3, 0.0, 0.7], [-0.4, 0.0, 0.2], [0.5, 0.0, 0.0]])
        out = gradient_avoidance(state, eps, k)
        want = avoidance_oracle(state, eps, k)
        assert np.array_equal(out.view(np.int64), want.view(np.int64))
        # only population 0 enters, within its box plus the bandwidths
        assert out.any()
        assert not out[:, :, :-7 - k.bandwidth_x].any()
        assert not out[..., :-5 - k.bandwidth_y].any()

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

        def counted(f, k, *buffers, **box):
            calls.append(1)
            return convolve_gradient(f, k, *buffers, **box)

        monkeypatch.setattr(nonlocal_ops, "convolve_gradient", counted)
        advection_field(datum, model)
        assert len(calls) == expect

    @pytest.mark.parametrize("name", ["crossing", "evacuation"])
    def test_box_products_match_whole_grid(self, monkeypatch, name):
        model, datum = preset(name).with_mesh(0.1).build()
        got = model.deviation(datum)

        def whole_grid(f, k, *buffers, box=None):
            return convolve_gradient(f, k, *buffers)

        monkeypatch.setattr(nonlocal_ops, "convolve_gradient", whole_grid)
        want = model.deviation(datum)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_bad_matrix_shape_rejected(self, unit_grid, unit_kernel):
        with pytest.raises(ConfigurationError, match="square"):
            GradientAvoidance([[0.3, 0.7]], unit_kernel)
        with pytest.raises(ConfigurationError, match="square"):
            GradientAvoidance([0.3, 0.7], unit_kernel)
        op = GradientAvoidance(np.zeros((2, 2)), unit_kernel)
        with pytest.raises(ConfigurationError, match="for 1 populations"):
            op(PopulationField.zeros(unit_grid, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_entry_rejected(self, unit_kernel, bad):
        with pytest.raises(ConfigurationError, match="non-finite"):
            GradientAvoidance([[0.3, 0.7], [bad, 0.3]], unit_kernel)


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

    def test_ratios_match_direct_evaluation(self, corridor_grid, rng):
        g = corridor_grid
        I1, I2 = rng.standard_normal((2, 3, 2, g.nx, g.ny))
        single = [direct_ratios(g, I)[0] for I in I1]
        pair = [direct_ratios(g, d)[1] for d in I1 - I2]
        assert analysis._sample_ratios(I1, g) == single
        assert analysis._pair_ratios(I1, I2, g) == pair

    def test_matches_direct_evaluation(self):
        # the sample family holds a zero sample and a repeated one
        model, datum = preset("crossing").with_mesh(0.1).build()
        rng = np.random.default_rng(3)
        samples = [datum, PopulationField(datum.grid, 0.5 * datum.data),
                   PopulationField(datum.grid, datum.data
                                   * rng.uniform(0.2, 1.0, datum.data.shape)),
                   PopulationField.zeros(datum.grid, 2), datum.copy()]
        area = datum.grid.cell_area
        vals = [model.deviation(s) for s in samples]
        want = np.zeros(2)
        for i in range(2):
            for s, I in zip(samples, vals):
                l1 = float(np.abs(s.data).sum()) * area
                if l1 != 0.0:
                    want[i] = max(want[i], *(r / l1 for r in
                                             direct_ratios(datum.grid,
                                                           I[i])[0]))
            for a in range(len(samples)):
                for b in range(a + 1, len(samples)):
                    dl1 = float(np.abs(samples[a].data - samples[b].data)
                                .sum()) * area
                    if dl1 != 0.0:
                        dI = vals[a][i] - vals[b][i]
                        want[i] = max(want[i], *(r / dl1 for r in
                                                 direct_ratios(datum.grid,
                                                               dI)[1]))
        got = estimate_ci(model.deviation, samples)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

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
