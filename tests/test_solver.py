import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from crowdflow import (DEVIATION, DIFFERENTIABLE, BoundViolationError,
                       ConfigurationError, GradientAvoidance, ModelSpec,
                       NumericError, PopulationField,
                       advection_field, bump_kernel, cfl_dt, check_datum,
                       constant_direction, constant_speed_law,
                       indicator_datum, linear_speed_law, make_grid, preset,
                       run, sample_kernel, split_step)
from crowdflow import nonlocal_ops, solver
from crowdflow.grid import boundary, live_box
from crowdflow.solver import (MAX_PRINCIPLE_TOL, _face_buffers,
                              _linear_flux, _outflow, _sweep, _sweep_xy)


def no_deviation(grid):
    """Gradient avoidance with a zero matrix: no nonlocal term."""
    return GradientAvoidance(np.zeros((1, 1)),
                             sample_kernel(bump_kernel(0.5), grid))


def local_deviation_model(grid, vmax=4.0, gx=1.0, gy=0.0, **kw):
    """Single population, no nonlocal term."""
    return ModelSpec(
        family=DEVIATION, grid=grid, laws=(linear_speed_law(vmax, 1.0),),
        dirs=(constant_direction(grid, gx, gy, 0.0, restrict_to_room=False),),
        deviation=no_deviation(grid), **kw)


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
    op = GradientAvoidance([[0.3, 0.7], [0.7, 0.3]], kern)
    model = ModelSpec(family=DEVIATION, grid=grid, laws=(law, law),
                      dirs=(d1, d2), deviation=op, t_max=t_max)
    r1 = indicator_datum(grid, 0.8, (-6.4, -2.4, -3.2, 2.4))
    r2 = indicator_datum(grid, 0.8, (3.2, -2.4, 6.4, 2.4))
    datum = PopulationField.from_arrays(grid, r1, r2)
    return model, datum


def one_live_cell(grid, n=1):
    """A state of n populations, each with the single live cell (0, 0): a
    population with no live cell does not limit dt."""
    data = np.zeros((n, grid.nx, grid.ny))
    data[:, 0, 0] = 0.5
    return PopulationField(grid, data)


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
        state = one_live_cell(unit_grid)
        V = np.full((1, 2, unit_grid.nx, unit_grid.ny), 1e20)
        dt = cfl_dt(state, V, [linear_speed_law(4.0, 1.0)], 0.9)
        assert 0.0 < dt * 4.0 * 1e20 <= 0.9 * unit_grid.dx * (1 + 1e-15)

    def test_slope_is_sup_over_range_not_at_cells(self, unit_grid):
        # q'(0.5) = 0 for the linear law: every cell has zero slope, yet
        # waves move at up to sup|q'| = 4 once the state leaves 0.5
        state = PopulationField(
            unit_grid, np.full((1, unit_grid.nx, unit_grid.ny), 0.5))
        V = np.zeros((1, 2, unit_grid.nx, unit_grid.ny))
        V[0, 0] = 1.5
        V[0, 1, 2, 3] = -3.0
        law = linear_speed_law(4.0, 1.0)
        dt = cfl_dt(state, V, [law], 0.9, dt_cap=1.0)
        assert dt == 0.9 * unit_grid.dx / (law.dq_sup * 3.0)

    def test_non_finite_speed_raises(self, unit_grid):
        state = one_live_cell(unit_grid)
        law = linear_speed_law(4.0, 1.0)
        for bad in (np.inf, np.nan, -np.inf):
            V = np.zeros((1, 2, unit_grid.nx, unit_grid.ny))
            V[0, 0, 3, 3] = bad
            with pytest.raises(NumericError, match="wave speed"):
                cfl_dt(state, V, [law], 0.9, dt_cap=0.25)

    def test_empty_population_is_skipped(self, unit_grid):
        # _sweep_xy moves nothing where a population has no live cell, so
        # its field limits no step and is not read; -0.0 is live, by
        # grid.live_box's bit-pattern rule
        law = linear_speed_law(4.0, 1.0)
        V = np.ones((2, 2, unit_grid.nx, unit_grid.ny))
        alone = cfl_dt(one_live_cell(unit_grid), V[:1], [law], 0.9)
        state = one_live_cell(unit_grid, 2)
        state.data[1] = 0.0
        V[1] = 50.0
        V[1, 0, 4, 4] = np.nan
        assert cfl_dt(state, V, [law, law], 0.9) == alone
        state.data[1, 3, 3] = -0.0
        with pytest.raises(NumericError, match="population 1"):
            cfl_dt(state, V, [law, law], 0.9)

    def test_speed_is_max_abs_bitwise(self, unit_grid, rng):
        # the largest |V_i| entry may be negative
        state = one_live_cell(unit_grid, 2)
        law = linear_speed_law(4.0, 1.0)
        V = rng.uniform(-1.0, 1.0, (2, 2, unit_grid.nx, unit_grid.ny))
        V[0, 1, 5, 7] = -3.0
        V[1, 0, 2, 2] = 2.5
        assert cfl_dt(state, V, [law, law], 0.9) == min(
            0.9 * unit_grid.dx / (law.dq_sup * float(np.abs(V[i]).max()))
            for i in (0, 1))


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


def ghost_cell_sweep(rho, a, qfun, lam, copy_lo, copy_hi, wall_faces,
                     e=None):
    """Reference for `_sweep`: the LxF sweep over one ghost row at each
    end of axis 0 that copies the edge cell where copy_lo / copy_hi is
    set and is empty elsewhere."""

    def pad(arr):
        p = np.empty((arr.shape[0] + 2, arr.shape[1]))
        p[1:-1] = arr
        p[0] = arr[0] * copy_lo
        p[-1] = arr[-1] * copy_hi
        return p

    rho_pad = pad(rho)
    f = qfun(rho_pad) * pad(a)
    if e is not None:
        f += pad(e)
    F = 0.5 * (f[:-1] + f[1:]) - 0.5 * lam * (rho_pad[1:] - rho_pad[:-1])
    F[wall_faces] = 0.0
    new = rho - (1.0 / lam) * (F[1:] - F[:-1])
    return new, float(F[-1].sum() - F[0].sum())


class TestFaceBuffers:
    def test_reused_buffers_give_the_same_bits(self, corridor_grid, rng):
        # the y sweep runs on transposes, so its buffer is one as well
        rho = rng.random((corridor_grid.nx, corridor_grid.ny))
        w = rng.uniform(-1.0, 1.0, (2,) + rho.shape)
        x_edges, y_edges = boundary(corridor_grid).sweeps
        fx, fy = _face_buffers(corridor_grid)
        for sweep_in, a, edges, F in ((rho, w[0], x_edges, fx),
                                      (rho.T, w[1].T, y_edges, fy)):
            F.fill(np.nan)  # stale values must not leak in
            want = _sweep(sweep_in, a, _linear_flux, 10.0, *edges)
            got = _sweep(sweep_in, a, _linear_flux, 10.0, *edges, F=F)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1]) and got[1] is F
            assert F.flags.f_contiguous == sweep_in.flags.f_contiguous


class TestApplyBoundary:
    """The domain-edge faces of the x sweep on the corridor, whose left
    and right edges are exits for |y| < 3."""

    LAM = 10.0

    def sweep_x(self, rho, a, grid):
        x_edges, _ = boundary(grid).sweeps
        new, _ = _sweep(rho, a, _linear_flux, self.LAM, *x_edges)
        return new

    def edge_faces(self, rho, a, grid):
        """Fluxes through the low and high edge faces, read back from
        the update of the edge cells."""
        lam = self.LAM
        new = self.sweep_x(rho, a, grid)
        f = rho * a
        F1 = 0.5 * (f[0] + f[1]) - 0.5 * lam * (rho[1] - rho[0])
        Fn = 0.5 * (f[-2] + f[-1]) - 0.5 * lam * (rho[-1] - rho[-2])
        return F1 + lam * (new[0] - rho[0]), Fn - lam * (new[-1] - rho[-1])

    def test_interior_untouched(self, corridor_grid, rng):
        # cells away from the edges see only interior LxF faces
        lam = self.LAM
        rho = rng.random((corridor_grid.nx, corridor_grid.ny))
        a = rng.uniform(-1.0, 1.0, rho.shape)
        new = self.sweep_x(rho, a, corridor_grid)
        f = rho * a
        F = 0.5 * (f[:-1] + f[1:]) - 0.5 * lam * (rho[1:] - rho[:-1])
        expect = rho[1:-1] - (1.0 / lam) * (F[1:] - F[:-1])
        assert np.array_equal(new[1:-1], expect)

    def test_exit_ghosts_copy_interior(self, corridor_grid, rng):
        # exit faces carry the edge cell's flux f where the field points
        # out; closed edges take f/2 - lam rho/2 (low), f/2 + lam rho/2 (high)
        lam = self.LAM
        rho = rng.random((corridor_grid.nx, corridor_grid.ny))
        on_exit = (corridor_grid.yc > -3.0) & (corridor_grid.yc < 3.0)
        for sign in (1.0, -1.0):
            a = sign * rng.uniform(0.5, 1.0, rho.shape)
            lo, hi = self.edge_faces(rho, a, corridor_grid)
            f = rho * a
            closed_lo = 0.5 * f[0] - 0.5 * lam * rho[0]
            closed_hi = 0.5 * f[-1] + 0.5 * lam * rho[-1]
            out_lo, out_hi = on_exit & (sign < 0), on_exit & (sign > 0)
            assert np.allclose(lo, np.where(out_lo, f[0], closed_lo),
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(hi, np.where(out_hi, f[-1], closed_hi),
                               rtol=1e-12, atol=1e-12)
        # top and bottom are not exits
        _, (exit_lo, exit_hi, _) = boundary(corridor_grid).sweeps
        assert not exit_lo.any() and not exit_hi.any()

    def test_corners_zero(self, corridor_grid, rng):
        # the corner cells lie off the exits: their edge faces are closed
        lam = self.LAM
        rho = rng.random((corridor_grid.nx, corridor_grid.ny))
        a = np.ones_like(rho)
        a[: rho.shape[0] // 2] = -1.0  # out of the domain at both edges
        lo, hi = self.edge_faces(rho, a, corridor_grid)
        for j in (0, -1):
            assert lo[j] == pytest.approx(-0.5 * (1 + lam) * rho[0, j])
            assert hi[j] == pytest.approx(0.5 * (1 + lam) * rho[-1, j])
        (exit_lo, exit_hi, _), _ = boundary(corridor_grid).sweeps
        assert not (exit_lo[[0, -1]].any() or exit_hi[[0, -1]].any())

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_matches_ghost_cell_sweep(self, corridor_grid, rng, axis):
        # bitwise against the ghost-cell sweep whose ghosts copy the edge
        # cell exactly on the exit faces where the field points out
        x_edges, y_edges = boundary(corridor_grid).sweeps
        exit_lo, exit_hi, walls = x_edges if axis == "x" else y_edges
        shape = (corridor_grid.nx, corridor_grid.ny)
        if axis == "y":
            shape = shape[::-1]
        law = linear_speed_law(4.0, 1.0)
        for qfun, with_e in ((law.q, False), (_linear_flux, True)):
            rho = rng.random(shape)
            a = rng.uniform(-1.0, 1.0, shape)
            e = rng.uniform(-0.5, 0.5, shape) if with_e else None
            new, F = _sweep(rho, a, qfun, 12.5, exit_lo, exit_hi, walls, e)
            ref, ref_out = ghost_cell_sweep(
                rho, a, qfun, 12.5, exit_lo & (a[0] < 0),
                exit_hi & (a[-1] > 0), walls, e)
            assert np.array_equal(new, ref)
            assert _outflow(F) == ref_out

    def test_transposed_view_gives_the_same_bits(self, corridor_grid, rng):
        # the y sweep gets F-order views; a C-order copy of the same
        # values must give the same field and outflow bit for bit
        _, (exit_lo, exit_hi, walls) = boundary(corridor_grid).sweeps
        law = linear_speed_law(4.0, 1.0)
        shape = (corridor_grid.nx, corridor_grid.ny)
        for qfun, with_e in ((law.q, False), (_linear_flux, True)):
            rho, a, e = (rng.random(shape), rng.uniform(-1.0, 1.0, shape),
                         rng.uniform(-0.5, 0.5, shape))
            e = e.T if with_e else None
            view, view_F = _sweep(rho.T, a.T, qfun, 12.5, exit_lo,
                                  exit_hi, walls, e)
            copy, copy_F = _sweep(
                np.ascontiguousarray(rho.T), np.ascontiguousarray(a.T),
                qfun, 12.5, exit_lo, exit_hi, walls,
                None if e is None else np.ascontiguousarray(e))
            assert np.array_equal(view, copy)
            assert _outflow(view_F) == _outflow(copy_F)


def whole_grid_sweep_xy(rho, w, qfun, grid, dt, e=None):
    """The x then y pass of `_sweep` on the whole arrays: field and mass
    out through the domain boundary."""
    x_edges, y_edges = boundary(grid).sweeps
    r, Fx = _sweep(rho, w[0], qfun, grid.dx / dt, *x_edges,
                   None if e is None else e[0])
    r, Fy = _sweep(r.T, w[1].T, qfun, grid.dy / dt, *y_edges,
                   None if e is None else e[1].T)
    return r.T, dt * (grid.dy * _outflow(Fx) + grid.dx * _outflow(Fy))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestWindowedSweep:
    """`_sweep_xy` sweeps only the live box of rho (and e) widened by one
    cell; its field and outflow equal the whole-grid pass bit for bit."""

    DT = 0.01
    LAW = linear_speed_law(4.0, 1.0)

    def check(self, grid, rho, w, qfun=None, e=None):
        qfun = qfun or self.LAW.q
        new = np.zeros_like(rho)
        out, (rows, cols) = _sweep_xy(rho, w, qfun, grid, self.DT, new, e)
        want, want_out = whole_grid_sweep_xy(rho, w, qfun, grid, self.DT, e)
        assert np.array_equal(bits(new), bits(want))
        assert bits(out) == bits(want_out)
        outside = np.ones(rho.shape, dtype=bool)
        outside[rows, cols] = False
        assert not bits(new)[outside].any()  # +0.0 outside the window
        return new, out, (rows, cols)

    def block(self, grid, rng, rect):
        inside = indicator_datum(grid, 1.0, rect) > 0
        return np.where(inside, rng.uniform(0.2, 0.9, inside.shape), 0.0)

    def field(self, grid, rng):
        return rng.uniform(-1.0, 1.0, (2, grid.nx, grid.ny))

    def test_interior_block(self, corridor_grid, rng):
        rho = self.block(corridor_grid, rng, (-2.0, -1.0, 1.0, 1.5))
        _, out, (rows, cols) = self.check(corridor_grid, rho,
                                          self.field(corridor_grid, rng))
        assert out == 0.0
        box = live_box(rho)
        assert (rows.start, rows.stop) == (box[0].start - 1, box[0].stop + 1)
        assert (cols.start, cols.stop) == (box[1].start - 1, box[1].stop + 1)

    @pytest.mark.parametrize("rect,drive", [
        ((-8.0, -1.0, -7.0, 1.0), -1.0), ((-8.0, -2.9, -7.0, 2.7), -1.0),
        ((7.5, -2.3, 8.0, 0.4), 1.0)])
    def test_block_on_an_exit(self, corridor_grid, rng, rect, drive):
        # the outflow adds the whole edge rows: summing only the window's
        # part of them regroups numpy's pairwise sum and moves last bits
        for _ in range(4):
            rho = self.block(corridor_grid, rng, rect)
            w = self.field(corridor_grid, rng)
            w[0] = drive  # out of the domain through the exit
            _, out, _ = self.check(corridor_grid, rho, w)
            assert out > 0.0

    def test_block_across_a_wall(self, corridor_grid, rng):
        rho = self.block(corridor_grid, rng, (-1.0, 2.5, 1.0, 3.5))
        w = self.field(corridor_grid, rng)
        w[1] = 1.0  # towards the wall at y = 3
        self.check(corridor_grid, rho, w)

    def test_empty_population(self, corridor_grid, rng):
        rho = np.zeros((corridor_grid.nx, corridor_grid.ny))
        new, out, _ = self.check(corridor_grid, rho,
                                 self.field(corridor_grid, rng))
        assert not bits(new).any() and bits(out) == 0

    def test_field_zero_on_the_box_still_diffuses(self, corridor_grid, rng):
        # the field vanishes near the block only, so the flux does not
        # vanish identically and LxF diffusion must still act
        rho = self.block(corridor_grid, rng, (-2.0, -1.0, 1.0, 1.5))
        rows, cols = live_box(rho, pad=(3, 3))
        w = self.field(corridor_grid, rng)
        w[:, rows, cols] = 0.0
        new, _, _ = self.check(corridor_grid, rho, w)
        assert not np.array_equal(new, rho)

    def test_flux_vanishing_on_the_whole_grid_leaves_rho(self,
                                                        corridor_grid, rng):
        # LxF diffusion alone would still spread a population at rest
        rho = self.block(corridor_grid, rng, (-2.0, -1.0, 1.0, 1.5))
        w = np.zeros((2,) + rho.shape)
        new = np.zeros_like(rho)
        out, _ = _sweep_xy(rho, w, self.LAW.q, corridor_grid, self.DT, new)
        assert np.array_equal(bits(new), bits(rho)) and out == 0.0
        w[1] = 1.0  # a y drive alone: the x sweep is skipped
        new = np.zeros_like(rho)
        _sweep_xy(rho, w, self.LAW.q, corridor_grid, self.DT, new)
        _, y_edges = boundary(corridor_grid).sweeps
        want, _ = _sweep(rho.T, w[1].T, self.LAW.q,
                         corridor_grid.dy / self.DT, *y_edges)
        assert np.array_equal(bits(new), bits(want.T))

    def test_negative_zero_cells(self, corridor_grid, rng):
        rho = self.block(corridor_grid, rng, (-2.0, -1.0, 1.0, 1.5))
        rho[20, 30] = rho[120:123, 60] = -0.0
        self.check(corridor_grid, rho, self.field(corridor_grid, rng))
        lone = np.zeros_like(rho)
        lone[30, 50] = -0.0
        self.check(corridor_grid, lone, self.field(corridor_grid, rng))

    def test_linearized_with_e(self, corridor_grid, rng):
        rho = self.block(corridor_grid, rng, (-2.0, -1.0, 1.0, 1.5))
        e = np.zeros((2,) + rho.shape)
        inside = self.block(corridor_grid, rng, (3.0, -2.0, 5.0, 0.0)) > 0
        e[:, inside] = rng.uniform(-0.5, 0.5, (2, int(inside.sum())))
        w = self.field(corridor_grid, rng)
        _, _, (rows, cols) = self.check(corridor_grid, rho, w,
                                        _linear_flux, e)
        assert (rows, cols) == live_box(rho, e, pad=(1, 1))
        self.check(corridor_grid, np.zeros_like(rho), w, _linear_flux, e)

    def test_nan_cell_named_as_on_the_whole_grid(self, corridor_grid, rng):
        grid = corridor_grid
        model = local_deviation_model(grid, gy=0.5)
        data = self.block(grid, rng, (-2.0, -1.0, 1.0, 1.5))[None]
        W = advection_field(PopulationField(grid, data), model)
        i, j = np.argwhere(data[0])[0]
        data[0, i, j] = np.nan
        with np.errstate(invalid="ignore"):
            want, _ = whole_grid_sweep_xy(data[0], W[0], model.laws[0].q,
                                          grid, self.DT)
            bad = np.argwhere(~np.isfinite(want))[0]
            msg = (f"non-finite density in population 0 at cell "
                   f"({grid.xc[bad[0]]:.4g}, {grid.yc[bad[1]]:.4g})")
            with pytest.raises(NumericError, match=re.escape(msg)):
                split_step(PopulationField(grid, data), model, self.DT, W)
        assert tuple(bad) == (i - 1, j - 1)  # the window's corner


class TestWorkStaysInTheBox:
    def test_first_crossing_step(self, monkeypatch):
        # every sweep runs on the population's live box plus one cell,
        # every saturation on the box plus the kernel bandwidths
        model, datum = preset("crossing").with_mesh(0.05).build()
        k = model.deviation.kernel
        boxes = [live_box(rho) for rho in datum.data]
        sweeps, saturations = [], []
        production_saturate = nonlocal_ops.saturate

        def sweep(rho, *args, **kwargs):
            sweeps.append(rho.shape)
            return _sweep(rho, *args, **kwargs)

        def saturate(u, out=None):
            saturations.append(u.shape[1:])
            return production_saturate(u, out)

        monkeypatch.setattr(solver, "_sweep", sweep)
        monkeypatch.setattr(nonlocal_ops, "saturate", saturate)
        W = advection_field(datum, model)
        split_step(datum, model, cfl_dt(datum, W, model.laws, model.cfl), W)

        def extent(box, pr, pc):
            return (box[0].stop - box[0].start + 2 * pr,
                    box[1].stop - box[1].start + 2 * pc)

        assert len(sweeps) == 2 * datum.n
        for n, shape in enumerate(sweeps):
            rows, cols = extent(boxes[n // 2], 1, 1)
            if n % 2:  # the y sweep works on transposes
                shape = shape[::-1]
            assert shape[0] <= rows and shape[1] <= cols
        assert len(saturations) == datum.n
        for box, shape in zip(boxes, saturations):
            rows, cols = extent(box, k.bandwidth_x, k.bandwidth_y)
            assert shape[0] <= rows and shape[1] <= cols

class TestModelSpec:
    @pytest.mark.parametrize("t_max", [np.nan, np.inf])
    def test_non_finite_t_max_rejected(self, corridor_grid, t_max):
        with pytest.raises(ConfigurationError, match="t_max"):
            local_deviation_model(corridor_grid, t_max=t_max)

    def test_non_finite_snapshot_time_rejected(self, corridor_grid):
        with pytest.raises(ConfigurationError, match="snapshot"):
            local_deviation_model(corridor_grid, t_max=0.1,
                                  snapshot_times=(0.0, np.nan, 0.05))

    @pytest.mark.parametrize("R", [np.nan, np.inf, 0.0])
    def test_bad_R_rejected(self, corridor_grid, R):
        with pytest.raises(ConfigurationError, match="R must be positive"):
            local_deviation_model(corridor_grid, R=R)


class TestCheckDatum:
    @pytest.mark.parametrize("cell, value, message", [
        ((0, 20, 10), np.nan, "non-finite"),
        ((0, 20, 10), 1.5, r"\[0, R\]"),
        ((1, 20, 0), 0.5, "outside the room in population 1"),
        ((1, 20, 0), -0.0, None)])
    def test_rejects_what_run_cannot_start_from(self, cell, value, message):
        # crossing at mesh 0.4: row 0 of y lies in the wall below the room
        model, datum = preset("crossing").with_mesh(0.4).build()
        check_datum(model, datum)
        datum.data[cell] = value
        if message is None:
            check_datum(model, datum)
        else:
            with pytest.raises(ConfigurationError, match=message):
                check_datum(model, datum)

    def test_grid_mismatch_rejected(self):
        model, datum = preset("crossing").with_mesh(0.4).build()
        other = preset("crossing").with_mesh(0.2).build()[1]
        with pytest.raises(ConfigurationError, match="grid"):
            check_datum(model, other)

    def test_run_checks_through_it(self, monkeypatch):
        model, datum = replace(preset("crossing").with_mesh(0.4),
                               t_max=0.05).build()
        seen = []
        monkeypatch.setattr(solver, "check_datum",
                            lambda m, d: seen.append((m, d)))
        run(model, datum)
        assert seen == [(model, datum)]


class TestRun:
    def test_steady_step_allocates_no_scratch(self):
        # after the first step, a step's traced peak above what the run
        # held when the last step ended (its state and W) stays below one
        # W plus one state plus SLACK: the operator's, the wave speed's
        # and the sweeps' temporaries fit in the room of the released W
        SLACK = 64 * 1024
        model, datum = preset("crossing").with_mesh(0.1).build()
        model = replace(model, t_max=0.06, snapshot_times=())
        held, excess = [0], []

        def on_step(report, state, W):
            peak = tracemalloc.get_traced_memory()[1]
            if report.step > 1:
                excess.append(peak - held[0] - W.nbytes - state.data.nbytes)
            tracemalloc.reset_peak()
            held[0] = tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            run(model, datum, on_step=on_step)
        finally:
            tracemalloc.stop()
        assert len(excess) >= 3
        assert max(excess) < SLACK

    def test_tmax_zero_returns_datum(self, corridor_grid, rng):
        model = local_deviation_model(corridor_grid, t_max=0.0)
        datum = PopulationField(
            corridor_grid,
            0.5 * rng.random((1, corridor_grid.nx, corridor_grid.ny))
            * boundary(corridor_grid).room)
        res = run(model, datum)
        assert np.array_equal(res.state.data, datum.data)
        assert res.reports == []

    def test_crossing_conservation(self):
        from dataclasses import replace as dc_replace
        cfg = preset("crossing").with_mesh(0.1)
        cfg = dc_replace(cfg, t_max=1.0)
        model, datum = cfg.build()
        total0 = datum.mass().sum()

        def on_step(report, state, W):
            total = state.mass().sum() + report.escaped.sum()
            assert abs(total - total0) <= 1e-10 * total0

        run(model, datum, on_step=on_step)

    def test_step_reports_count_steps_and_escaped_mass(self):
        from dataclasses import replace as dc_replace
        cfg = preset("crossing").with_mesh(0.2)
        model, datum = dc_replace(cfg, t_max=0.5).build()
        res = run(model, datum)
        assert [r.step for r in res.reports] \
            == list(range(1, len(res.reports) + 1))
        escaped = np.zeros(model.n)
        for r in res.reports:
            escaped = escaped + r.outflow
            assert np.array_equal(r.escaped, escaped)
        assert res.escaped.all()  # mass crosses both exits
        assert np.array_equal(res.reports[-1].escaped, res.escaped)

    def test_off_face_room_keeps_its_mass(self):
        # at mesh 0.4 the room edges y = -3 and 3 fall on cell centers:
        # the room is the cells whose center lies inside, walled all round
        cfg = replace(preset("crossing").with_mesh(0.4), t_max=2.0)
        model, datum = cfg.build()
        outside = ~boundary(model.grid).room
        assert outside.any() and not datum.data[:, outside].any()
        leaked = []

        def on_step(report, state, W):
            leaked.append(np.abs(state.data[:, outside]).max())

        res = run(model, datum, on_step=on_step)
        assert len(leaked) > 10 and max(leaked) == 0.0
        assert res.escaped.max() < 1e-3  # only through the exits

    def test_maximum_principle_crossing(self):
        from dataclasses import replace as dc_replace
        cfg = preset("crossing").with_mesh(0.1)
        cfg = dc_replace(cfg, t_max=1.0)
        model, datum = cfg.build()
        res = run(model, datum)
        for rep in res.reports:
            assert rep.min.min() >= -1e-6
            assert rep.max.max() <= 1.0 + 1e-6

    def test_maximum_principle_where_q_prime_vanishes(self):
        # a 10x10 box filled at rho = 0.5, where q'(rho) = 0: the step
        # still follows sup|q'| over [0, R], so the state stays in [0, R]
        grid = make_grid((0.0, 0.0, 1.0, 1.0), 0.1, 0.1)
        model = local_deviation_model(grid, t_max=1.0)
        datum = PopulationField(grid, np.full((1, grid.nx, grid.ny), 0.5))
        res = run(model, datum)
        assert len(res.reports) > 1
        for r in res.reports:
            assert r.min.min() >= -MAX_PRINCIPLE_TOL, (r.step, r.min)
            assert r.max.max() <= model.R + MAX_PRINCIPLE_TOL, (r.step, r.max)

    @pytest.mark.parametrize("name", ["crossing", "evacuation"])
    def test_outflow_never_negative(self, name):
        model, datum = replace(preset(name).with_mesh(0.2), t_max=0.5).build()
        res = run(model, datum)
        for r in res.reports:
            assert np.all(r.outflow >= 0.0), (r.step, r.outflow)
        assert np.all(res.escaped >= 0.0)

    def test_inward_field_at_exit_lets_nothing_in(self, corridor_grid):
        # the field points into the room at the left exit, where the mass
        # starts: it may leave there, never enter
        model = local_deviation_model(corridor_grid, t_max=0.2)
        rho = indicator_datum(corridor_grid, 0.5, (-8.0, -2.0, -6.0, 2.0))
        res = run(model, PopulationField.from_arrays(corridor_grid, rho))
        for r in res.reports:
            assert np.all(r.outflow >= 0.0), (r.step, r.outflow)

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

    @pytest.mark.parametrize("family", [DEVIATION, DIFFERENTIABLE])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_datum_rejected(self, corridor_grid, family, bad):
        model = local_deviation_model(corridor_grid)
        if family == DIFFERENTIABLE:
            model = replace(model, family=DIFFERENTIABLE, deviation=None,
                            kernels=(sample_kernel(bump_kernel(0.5),
                                                   corridor_grid),))
        data = np.zeros((1, corridor_grid.nx, corridor_grid.ny))
        data[0, 40, 30] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            run(model, PopulationField(corridor_grid, data))

    def test_strict_mode_raises_on_violation(self, corridor_grid):
        # a compressive transport field with a constant speed, so that
        # q(R) = cR != 0: density piles above R under ordinary CFL steps
        grid = corridor_grid
        X = grid.xc[:, None]
        g = np.zeros((2, grid.nx, grid.ny))
        g[0] = np.where(X < 0, 1.0, -1.0)  # compressive
        model = ModelSpec(family=DEVIATION, grid=grid,
                          laws=(constant_speed_law(4.0, 1.0),),
                          dirs=(g,), deviation=no_deviation(grid),
                          t_max=1.0, strict=True)
        datum = PopulationField.from_arrays(
            grid, indicator_datum(grid, 0.95, (-3.0, -2.0, 3.0, 2.0)))
        with pytest.raises(BoundViolationError):
            run(model, datum)


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
