import numpy as np
import pytest

from crowdflow import (DEVIATION, DIFFERENTIABLE, ConfigurationError,
                       GradientAvoidance, ModelSpec, PopulationField,
                       advection_field, bump_kernel, constant_direction,
                       constant_speed_law, convolve, discomfort,
                       linear_speed_law, make_grid, room_mask, sample_kernel,
                       smoothed_total_density)
from crowdflow import velocity


def differentiable_field(state, laws, dirs, kernels):
    """advection_field of the differentiable family: v_i(smoothed total) dir_i."""
    model = ModelSpec(family=DIFFERENTIABLE, grid=state.grid,
                      laws=tuple(laws), dirs=tuple(dirs),
                      kernels=tuple(kernels))
    return advection_field(state, model)


def deviation_velocity(state, laws, dirs, eps):
    """v_i(rho_i) (dir_i + I_i(rho)): the speed law times the
    deviation-family advection_field, whose flux is q_i(rho_i) times it,
    for gradient avoidance with the matrix eps."""
    kern = sample_kernel(bump_kernel(0.5), state.grid)
    model = ModelSpec(family=DEVIATION, grid=state.grid, laws=tuple(laws),
                      dirs=tuple(dirs), deviation=GradientAvoidance(eps, kern))
    W = advection_field(state, model)
    return np.stack([law.v(np.clip(state.data[i], 0.0, law.R))[None] * W[i]
                     for i, law in enumerate(laws)])


def cell_index(grid, x, y):
    return (int((x - grid.x0) / grid.dx), int((y - grid.y0) / grid.dy))


class TestSpeedLaw:
    def test_linear_law_values(self):
        law = linear_speed_law(4.0, 1.0)
        assert law.v(0.0) == pytest.approx(4.0)
        assert law.v(1.0) == pytest.approx(0.0)
        assert law.q(0.5) == pytest.approx(1.0)

    def test_norm_metadata(self):
        law = linear_speed_law(4.0, 1.0)
        # q = 4 rho (1 - rho) peaks at 1; q' = 4(1 - 2 rho) peaks at 4
        assert law.q_sup == pytest.approx(1.0, abs=1e-6)
        assert law.dq_sup == pytest.approx(4.0, abs=1e-9)

    def test_constant_law(self):
        # q = 2 rho on [0, 1]: both sups are 2
        law = constant_speed_law(2.0)
        assert law.q_sup == pytest.approx(2.0)
        assert law.dq_sup == 2.0

    @pytest.mark.parametrize("make", [
        lambda: linear_speed_law(np.nan, 1.0),
        lambda: linear_speed_law(np.inf, 1.0),
        lambda: linear_speed_law(-1.0, 1.0),
        lambda: linear_speed_law(4.0, np.nan),
        lambda: linear_speed_law(4.0, np.inf),
        lambda: linear_speed_law(4.0, 0.0),
        lambda: constant_speed_law(np.nan),
        lambda: constant_speed_law(np.inf),
        lambda: constant_speed_law(2.0, np.nan)],
        ids=["vmax-nan", "vmax-inf", "vmax-negative", "R-nan", "R-inf",
             "R-zero", "c-nan", "c-inf", "c-R-nan"])
    def test_bad_parameter_rejected(self, make):
        with pytest.raises(ConfigurationError, match="finite"):
            make()


class TestConstantDirection:
    @pytest.mark.parametrize("kw", [
        dict(gx=np.nan), dict(gy=np.inf), dict(delta_max=np.nan),
        dict(delta_max=np.inf), dict(delta_max=-0.1), dict(delta_r=np.nan),
        dict(delta_r=np.inf), dict(delta_r=0.0)],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_parameter_rejected(self, corridor_grid, kw):
        args = dict(gx=1.0, gy=0.0, delta_max=0.8, delta_r=0.75) | kw
        with pytest.raises(ConfigurationError, match="finite"):
            constant_direction(corridor_grid, **args)


class TestDiscomfort:
    def test_wall_adjacent_cell_top(self, corridor_grid):
        d = discomfort(corridor_grid, 0.8, 0.75)
        i, j = cell_index(corridor_grid, 0.0, 2.95)  # touching wall y=3
        assert d[0, i, j] == pytest.approx(0.0)
        assert d[1, i, j] == pytest.approx(-0.8)

    def test_far_from_walls_zero(self, corridor_grid):
        d = discomfort(corridor_grid, 0.8, 0.75)
        i, j = cell_index(corridor_grid, 0.0, 0.0)
        assert d[0, i, j] == 0.0 and d[1, i, j] == 0.0
        i, j = cell_index(corridor_grid, 0.0, 2.2)  # 0.8 > 0.75 from wall
        assert d[1, i, j] == pytest.approx(0.0)

    def test_linear_profile_bottom(self):
        # mesh 0.05 puts a cell center exactly 0.375 from the wall y=-3
        g = make_grid((-8.0, -4.0, 8.0, 4.0), 0.05, 0.05,
                      room=(-8.0, -3.0, 8.0, 3.0),
                      exits=(("left", -3.0, 3.0), ("right", -3.0, 3.0)))
        d = discomfort(g, 0.8, 0.75)
        i, j = cell_index(g, 0.0, -2.625)
        assert g.yc[j] == pytest.approx(-2.625)
        assert d[1, i, j] == pytest.approx(0.8 * (1 - 0.375 / 0.75))

    def test_odd_in_y(self, corridor_grid):
        d = discomfort(corridor_grid, 0.8, 0.75)
        assert np.allclose(d[1], -d[1][:, ::-1], atol=1e-14)
        assert np.allclose(d[0], d[0][:, ::-1], atol=1e-14)

    def test_zero_outside_room(self, corridor_grid):
        d = discomfort(corridor_grid, 0.8, 0.75)
        outside = ~room_mask(corridor_grid)
        assert np.all(d[:, outside] == 0.0)

    def test_magnitude_bounded(self, corridor_grid):
        d = discomfort(corridor_grid, 0.8, 0.75)
        assert np.abs(d).max() <= 0.8 + 1e-12


class TestAssembleDifferentiable:
    def test_zero_state_gives_v0_times_direction(self, corridor_grid):
        law = linear_speed_law(4.0, 1.0)
        direction = constant_direction(corridor_grid, 1.0, 0.0, 0.8, 0.75)
        kern = sample_kernel(bump_kernel(0.5), corridor_grid)
        state = PopulationField.zeros(corridor_grid, 1)
        V = differentiable_field(state, [law], [direction], [kern])
        assert np.allclose(V[0], 4.0 * direction.total, atol=1e-14)

    def test_constant_density_interior(self, unit_grid):
        law = linear_speed_law(4.0, 1.0)
        direction = constant_direction(unit_grid, 1.0, 0.0, 0.0,
                                       restrict_to_room=False)
        kern = sample_kernel(bump_kernel(0.25), unit_grid)
        state = PopulationField.from_arrays(
            unit_grid, np.full((unit_grid.nx, unit_grid.ny), 0.5))
        V = differentiable_field(state, [law], [direction], [kern])
        b = kern.bandwidth_x
        expect = 4.0 * (1.0 - 0.5 * kern.mass)
        assert np.allclose(V[0, 0, b:-b, b:-b], expect, atol=1e-10)
        assert np.allclose(V[0, 1], 0.0, atol=1e-14)

    def test_opposite_directions_share_magnitude(self, unit_grid, rng):
        law = linear_speed_law(4.0, 1.0)
        d1 = constant_direction(unit_grid, 1.0, 0.0, 0.0,
                                restrict_to_room=False)
        d2 = constant_direction(unit_grid, -1.0, 0.0, 0.0,
                                restrict_to_room=False)
        kern = sample_kernel(bump_kernel(0.25), unit_grid)
        r = rng.random((unit_grid.nx, unit_grid.ny)) * 0.4
        state = PopulationField.from_arrays(unit_grid, r, r)
        V = differentiable_field(state, [law, law], [d1, d2], [kern, kern])
        assert np.allclose(np.abs(V[0]), np.abs(V[1]), atol=1e-14)


class TestSmoothedTotalDensity:
    @staticmethod
    def count_convolutions(monkeypatch):
        calls = []

        def counted(field, k):
            calls.append(id(k))
            return convolve(field, k)

        monkeypatch.setattr(velocity, "convolve", counted)
        return calls

    def test_shared_kernel_convolves_once(self, unit_grid, unit_kernel, rng,
                                          monkeypatch):
        data = rng.random((3, unit_grid.nx, unit_grid.ny))
        state = PopulationField(unit_grid, data)
        ref = sum(convolve(r, unit_kernel) for r in data)
        calls = self.count_convolutions(monkeypatch)
        out = smoothed_total_density(state, [unit_kernel] * 3)
        assert calls == [id(unit_kernel)]
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_distinct_kernels_are_the_per_population_sum(self, unit_grid,
                                                         rng, monkeypatch):
        kernels = [sample_kernel(bump_kernel(w), unit_grid)
                   for w in (0.25, 0.125)]
        data = rng.random((2, unit_grid.nx, unit_grid.ny))
        state = PopulationField(unit_grid, data)
        ref = np.zeros((unit_grid.nx, unit_grid.ny))
        for r, k in zip(data, kernels):
            ref += convolve(r, k)
        calls = self.count_convolutions(monkeypatch)
        out = smoothed_total_density(state, kernels)
        assert calls == [id(k) for k in kernels]
        assert np.array_equal(out, ref)


class TestAssembleDeviation:
    def test_zero_operator_reduces_to_local(self, corridor_grid, rng):
        law = linear_speed_law(4.0, 1.0)
        direction = constant_direction(corridor_grid, 1.0, 0.0, 0.8, 0.75)
        r = rng.random((corridor_grid.nx, corridor_grid.ny)) * 0.9
        state = PopulationField.from_arrays(corridor_grid, r)
        V = deviation_velocity(state, [law], [direction], [[0.0]])
        expect = law.v(r)[None] * direction.total
        assert np.allclose(V[0], expect, atol=1e-14)

    def test_full_density_stops(self, corridor_grid):
        law = linear_speed_law(4.0, 1.0)
        direction = constant_direction(corridor_grid, 1.0, 0.0, 0.8, 0.75)
        state = PopulationField.from_arrays(
            corridor_grid, np.ones((corridor_grid.nx, corridor_grid.ny)))
        V = deviation_velocity(state, [law], [direction], [[0.0]])
        assert np.allclose(V[0], 0.0, atol=1e-12)

    def test_speed_bound(self, corridor_grid, rng):
        law = linear_speed_law(4.0, 1.0)
        direction = constant_direction(corridor_grid, 1.0, 0.0, 0.8, 0.75)
        r = rng.random((corridor_grid.nx, corridor_grid.ny)) * 0.9
        state = PopulationField.from_arrays(corridor_grid, r)
        V = deviation_velocity(state, [law], [direction], [[0.3]])
        mag = np.abs(V[0]).sum(axis=0)
        assert mag.max() <= 4.0 * (1.0 + 0.8 + 0.3) + 1e-9

    def test_undershoot_warning(self, corridor_grid):
        from crowdflow.velocity import clamped_speed_arg
        arg = np.full((4, 4), -1e-6)
        with pytest.warns(RuntimeWarning, match="undershoot"):
            out = clamped_speed_arg(arg)
        assert np.all(out == 0.0)

    def test_determinism(self, corridor_grid, rng):
        law = linear_speed_law(4.0, 1.0)
        direction = constant_direction(corridor_grid, 1.0, 0.0, 0.8, 0.75)
        r = rng.random((corridor_grid.nx, corridor_grid.ny)) * 0.9
        state = PopulationField.from_arrays(corridor_grid, r)
        V1 = deviation_velocity(state, [law], [direction], [[0.0]])
        V2 = deviation_velocity(state, [law], [direction], [[0.0]])
        assert np.array_equal(V1, V2)
