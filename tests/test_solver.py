from dataclasses import replace

import numpy as np
import pytest

from crowdflow import (DEVIATION, DIFFERENTIABLE, BoundViolationError,
                       ConfigurationError, GradientAvoidance, ModelSpec,
                       NumericError, PopulationField, ZeroOp,
                       advection_field, bump_kernel, cfl_dt,
                       constant_direction, constant_speed_law,
                       indicator_datum, linear_speed_law, make_grid, norms,
                       preset, run, sample_kernel, split_step)
from crowdflow.solver import _boundary_layout, _pad


def local_deviation_model(grid, vmax=4.0, gx=1.0, gy=0.0, **kw):
    """Single population, no nonlocal term."""
    return ModelSpec(
        family=DEVIATION, grid=grid, laws=(linear_speed_law(vmax, 1.0),),
        dirs=(constant_direction(grid, gx, gy, 0.0, restrict_to_room=False),),
        ops=(ZeroOp(),), **kw)


def symmetric_crossing(mesh=0.1, t_max=1.0):
    """Mirror-symmetric two-population configuration: equal data blocks,
    opposite drive, symmetric coupling matrix."""
    grid = make_grid((-8.0, -4.0, 8.0, 4.0), mesh, mesh,
                     room=(-8.0, -3.0, 8.0, 3.0),
                     exits=(("left", -3.0, 3.0), ("right", -3.0, 3.0)))
    kern = sample_kernel(bump_kernel(0.5), grid)
    law = linear_speed_law(4.0, 1.0)
    d1 = constant_direction(grid, 1.0, 0.0, 0.8, 0.75)
    d2 = constant_direction(grid, -1.0, 0.0, 0.8, 0.75)
    from crowdflow import WeightedSum
    op1 = WeightedSum(terms=((1.0, GradientAvoidance(j=0, eps=0.3, kernel=kern)),
                             (1.0, GradientAvoidance(j=1, eps=0.7, kernel=kern))))
    op2 = WeightedSum(terms=((1.0, GradientAvoidance(j=0, eps=0.7, kernel=kern)),
                             (1.0, GradientAvoidance(j=1, eps=0.3, kernel=kern))))
    model = ModelSpec(family=DEVIATION, grid=grid, laws=(law, law),
                      dirs=(d1, d2), ops=(op1, op2), t_max=t_max)
    r1 = indicator_datum(grid, 0.8, (-6.4, -2.4, -3.2, 2.4))
    r2 = indicator_datum(grid, 0.8, (3.2, -2.4, 6.4, 2.4))
    datum = PopulationField.from_arrays(grid, r1, r2)
    return model, datum


class TestCflDt:
    def test_zero_velocity_returns_cap(self, unit_grid):
        state = PopulationField.zeros(unit_grid, 1)
        V = np.zeros((1, 2, unit_grid.nx, unit_grid.ny))
        dt = cfl_dt(state, V, [linear_speed_law(4.0, 1.0)], 0.9, dt_cap=0.25)
        assert dt == 0.25

    def test_zero_velocity_without_cap_errors(self, unit_grid):
        state = PopulationField.zeros(unit_grid, 1)
        V = np.zeros((1, 2, unit_grid.nx, unit_grid.ny))
        with pytest.raises(ConfigurationError):
            cfl_dt(state, V, [linear_speed_law(4.0, 1.0)], 0.9)

    def test_linear_in_cfl(self, unit_grid, rng):
        state = PopulationField(unit_grid,
                                rng.random((1, unit_grid.nx, unit_grid.ny)))
        V = rng.random((1, 2, unit_grid.nx, unit_grid.ny))
        law = linear_speed_law(4.0, 1.0)
        dt1 = cfl_dt(state, V, [law], 1.0)
        dt05 = cfl_dt(state, V, [law], 0.5)
        assert dt05 == pytest.approx(0.5 * dt1, rel=1e-12)

    def test_speed_bound_from_flux_derivative(self, unit_grid, rng):
        # |q'| <= 4 on [0,1] for the linear law, so dt >= cfl * h / (4 B)
        state = PopulationField(unit_grid,
                                rng.random((1, unit_grid.nx, unit_grid.ny)))
        B = 2.0
        V = B * np.ones((1, 2, unit_grid.nx, unit_grid.ny))
        law = linear_speed_law(4.0, 1.0)
        dt = cfl_dt(state, V, [law], 0.9)
        assert dt >= 0.9 * unit_grid.dx / (4.0 * B) - 1e-15

    def test_tiny_step_is_not_floored(self, unit_grid):
        # a huge speed gives a tiny step; it must still satisfy the CFL bound
        state = PopulationField.zeros(unit_grid, 1)
        V = np.full((1, 2, unit_grid.nx, unit_grid.ny), 1e20)
        dt = cfl_dt(state, V, [linear_speed_law(4.0, 1.0)], 0.9)
        assert 0.0 < dt * 4.0 * 1e20 <= 0.9 * unit_grid.dx * (1 + 1e-15)

    def test_non_finite_speed_raises(self, unit_grid):
        state = PopulationField.zeros(unit_grid, 1)
        law = linear_speed_law(4.0, 1.0)
        for bad in (np.inf, np.nan):
            V = np.zeros((1, 2, unit_grid.nx, unit_grid.ny))
            V[0, 0, 3, 3] = bad
            with pytest.raises(NumericError, match="wave speed"):
                cfl_dt(state, V, [law], 0.9, dt_cap=0.25)


class TestSplitStep:
    def test_zero_velocity_keeps_state_exactly(self, unit_grid, rng):
        model = local_deviation_model(unit_grid, gx=0.0, gy=0.0)
        state = PopulationField(
            unit_grid, rng.random((1, unit_grid.nx, unit_grid.ny)))
        new, outflow = split_step(state, model, 0.01)
        assert np.array_equal(new.data, state.data)
        assert outflow[0] == 0.0

    def test_constant_state_interior_unchanged(self):
        # no walls, constant velocity: flux differences cancel in the interior
        grid = make_grid((0.0, 0.0, 1.0, 1.0), 0.05, 0.05)
        model = ModelSpec(
            family=DIFFERENTIABLE, grid=grid,
            laws=(constant_speed_law(1.0),),
            dirs=(constant_direction(grid, 1.0, 0.5, 0.0,
                                     restrict_to_room=False),),
            kernels=(sample_kernel(bump_kernel(0.2), grid),))
        state = PopulationField.from_arrays(
            grid, np.full((grid.nx, grid.ny), 0.4))
        new, _ = split_step(state, model, 0.01)
        assert np.allclose(new.data[0, 1:-1, 1:-1], 0.4, atol=1e-14)

    def test_1d_advection_front_position(self):
        # unit-speed linear transport of a step: front midpoint moves at 1
        grid = make_grid((0.0, 0.0, 4.0, 0.25), 0.0125, 0.0125)
        model = ModelSpec(
            family=DIFFERENTIABLE, grid=grid, laws=(constant_speed_law(1.0),),
            dirs=(constant_direction(grid, 1.0, 0.0, 0.0,
                                     restrict_to_room=False),),
            kernels=(sample_kernel(bump_kernel(0.05), grid),), t_max=1.0)
        datum = PopulationField.from_arrays(
            grid, indicator_datum(grid, 1.0, (0.25, 0.0, 1.0, 0.25)))
        res = run(model, datum)
        profile = res.state.data[0, :, grid.ny // 2]
        # front = rightmost crossing of the half level
        above = np.where(profile > 0.5)[0]
        front = grid.xc[above[-1]]
        width = 2 * np.sqrt(1.0 * grid.dx)
        assert abs(front - 2.0) <= width

    def test_per_step_conservation_closed_box(self, rng):
        # walls on all four sides: mass is conserved to rounding every step
        grid = make_grid((0.0, 0.0, 1.0, 1.0), 0.025, 0.025,
                         room=(0.1, 0.1, 0.9, 0.9))
        model = local_deviation_model(grid, gx=1.0, gy=0.3)
        model = replace(model,
                        dirs=(constant_direction(grid, 1.0, 0.3, 0.0),))
        datum = PopulationField.from_arrays(
            grid, indicator_datum(grid, 0.8, (0.2, 0.2, 0.5, 0.6)))
        state = datum
        for _ in range(20):
            W = advection_field(state, model)
            dt = cfl_dt(state, W, model.laws, 0.9)
            new, outflow = split_step(state, model, dt, W)
            assert outflow[0] == pytest.approx(0.0, abs=1e-15)
            assert new.mass()[0] == pytest.approx(state.mass()[0], rel=1e-12)
            state = new

    def test_nan_reports_cell(self, unit_grid):
        model = local_deviation_model(unit_grid)
        data = np.zeros((1, unit_grid.nx, unit_grid.ny))
        data[0, 5, 5] = np.inf
        state = PopulationField(unit_grid, data)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="population 0"):
                split_step(state, model, 1e-3)


class TestApplyBoundary:
    """The ghost-cell rule of the sweeps, padding along x."""

    def pad_x(self, data, grid):
        copy, _, _ = _boundary_layout(grid)
        return _pad(data, copy["left"], copy["right"])

    def test_interior_untouched(self, corridor_grid, rng):
        data = rng.random((corridor_grid.nx, corridor_grid.ny))
        padded = self.pad_x(data, corridor_grid)
        assert np.array_equal(padded[1:-1], data)

    def test_exit_ghosts_copy_interior(self, corridor_grid):
        ones = np.ones((corridor_grid.nx, corridor_grid.ny))
        padded = self.pad_x(ones, corridor_grid)
        yc = corridor_grid.yc
        on_exit = (yc > -3.0) & (yc < 3.0)
        assert np.all(padded[0][on_exit] == 1.0)
        assert np.all(padded[0][~on_exit] == 0.0)
        # top and bottom are not exits
        copy, _, _ = _boundary_layout(corridor_grid)
        padded_y = _pad(ones.T, copy["bottom"], copy["top"])
        assert np.all(padded_y[0] == 0.0) and np.all(padded_y[-1] == 0.0)

    def test_corners_zero(self, corridor_grid):
        ones = np.ones((corridor_grid.nx, corridor_grid.ny))
        padded = self.pad_x(ones, corridor_grid)
        assert padded[0, 0] == 0.0 and padded[-1, -1] == 0.0


class TestRun:
    def test_tmax_zero_returns_datum(self, corridor_grid, rng):
        model = local_deviation_model(corridor_grid, t_max=0.0)
        datum = PopulationField(
            corridor_grid,
            0.5 * rng.random((1, corridor_grid.nx, corridor_grid.ny)))
        res = run(model, datum)
        assert np.array_equal(res.state.data, datum.data)
        assert res.reports == []

    def test_crossing_conservation(self):
        from dataclasses import replace as dc_replace
        cfg = preset("crossing").with_mesh(0.1)
        cfg = dc_replace(cfg, t_max=1.0)
        model, datum = cfg.build()
        total0 = datum.mass().sum()
        escaped = {"v": 0.0}

        def on_step(report, state, W):
            escaped["v"] += report.outflow.sum()
            total = state.mass().sum() + escaped["v"]
            assert abs(total - total0) <= 1e-10 * total0

        run(model, datum, on_step=on_step)

    def test_maximum_principle_crossing(self):
        from dataclasses import replace as dc_replace
        cfg = preset("crossing").with_mesh(0.1)
        cfg = dc_replace(cfg, t_max=1.0)
        model, datum = cfg.build()
        res = run(model, datum)
        for rep in res.reports:
            assert rep.min.min() >= -1e-6
            assert rep.max.max() <= 1.0 + 1e-6

    def test_evacuation_support_confined(self):
        # population 2 only yields: its mass stays in the room until the
        # support (growing at most at the maximal speed) reaches an exit
        from dataclasses import replace as dc_replace
        cfg = preset("evacuation").with_mesh(0.1)
        cfg = dc_replace(cfg, t_max=0.2)
        model, datum = cfg.build()
        res = run(model, datum)
        # datum support ends at x = -3.2; max speed 4(1+0.8+0.3) = 8.4;
        # at t = 0.2 the support cannot have reached the exits at x = +-8
        assert res.escaped[1] == pytest.approx(0.0, abs=1e-12)
        assert res.state.mass()[1] == pytest.approx(datum.mass()[1],
                                                    rel=1e-12)

    def test_snapshot_times_hit_exactly(self, corridor_grid):
        model = local_deviation_model(corridor_grid, t_max=0.5,
                                      snapshot_times=(0.0, 0.2, 0.35, 0.5))
        datum = PopulationField.from_arrays(
            corridor_grid,
            indicator_datum(corridor_grid, 0.5, (-2.0, -1.0, 0.0, 1.0)))
        seen = []
        run(model, datum, on_snapshot=lambda t, s: seen.append(t))
        assert seen == [0.0, 0.2, 0.35, 0.5]

    def test_datum_outside_range_rejected(self, corridor_grid):
        model = local_deviation_model(corridor_grid)
        datum = PopulationField(
            corridor_grid,
            1.5 * np.ones((1, corridor_grid.nx, corridor_grid.ny)))
        with pytest.raises(ConfigurationError, match=r"\[0, R\]"):
            run(model, datum)

    def test_forced_dts_replay(self, corridor_grid):
        model = local_deviation_model(corridor_grid, t_max=0.3)
        datum = PopulationField.from_arrays(
            corridor_grid,
            indicator_datum(corridor_grid, 0.5, (-2.0, -1.0, 0.0, 1.0)))
        res1 = run(model, datum, record=True)
        res2 = run(model, datum, forced_dts=res1.trajectory.dts)
        assert np.array_equal(res1.state.data, res2.state.data)

    def test_strict_mode_raises_on_violation(self, corridor_grid):
        # a transport field with huge divergence piles density above R fast;
        # use an oversized forced time step to provoke the violation
        grid = corridor_grid
        X = grid.xc[:, None]
        from crowdflow import DirectionField
        g = np.zeros((2, grid.nx, grid.ny))
        g[0] = np.where(X < 0, 1.0, -1.0)  # compressive
        direction = DirectionField(g=g, delta=np.zeros_like(g))
        model = ModelSpec(family=DEVIATION, grid=grid,
                          laws=(linear_speed_law(4.0, 1.0),),
                          dirs=(direction,), ops=(ZeroOp(),),
                          t_max=1.0, strict=True)
        datum = PopulationField.from_arrays(
            grid, indicator_datum(grid, 0.95, (-3.0, -2.0, 3.0, 2.0)))
        with pytest.raises(BoundViolationError):
            run(model, datum, forced_dts=[0.05] * 20)


class TestSymmetry:
    def test_mirror_symmetric_crossing(self):
        model, datum = symmetric_crossing(mesh=0.1, t_max=1.0)

        def check(report, state, W):
            assert np.allclose(state.data[1], state.data[0][::-1],
                               atol=1e-10)

        run(model, datum, on_step=check)


class TestSelfConvergence:
    def test_l1_difference_shrinks(self):
        from dataclasses import replace as dc_replace

        def solve(mesh):
            cfg = preset("crossing").with_mesh(mesh)
            cfg = dc_replace(cfg, t_max=0.25)
            model, datum = cfg.build()
            return run(model, datum).state

        def restrict(state, factor):
            # average factor x factor cell blocks onto the coarser grid
            n, nx, ny = state.data.shape
            return state.data.reshape(n, nx // factor, factor,
                                      ny // factor, factor).mean(axis=(2, 4))

        s4 = solve(0.4)
        s2 = solve(0.2)
        s1 = solve(0.1)
        area4 = 0.4 * 0.4
        d42 = np.abs(restrict(s2, 2) - s4.data).sum() * area4
        d21 = np.abs(restrict(s1, 2) - s2.data).sum() * (0.2 * 0.2)
        assert d42 / d21 >= 1.3
