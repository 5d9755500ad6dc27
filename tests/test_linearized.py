from dataclasses import replace

import numpy as np
import pytest

from crowdflow import (DEVIATION, DIFFERENTIABLE, ConfigurationError,
                       CostSpec, ModelSpec, PopulationField, Trajectory,
                       GradientAvoidance, UnsupportedModelError, bump_kernel,
                       constant_direction, constant_speed_law,
                       cost_and_gradient, gateaux_benchmark, gateaux_residual,
                       linear_speed_law, make_grid, run, sample_kernel,
                       solve_linearized, split_step)
from crowdflow.linearized import _linearized_step


def closed_model(t_max=0.2, vmax=1.0, constant=False):
    """Differentiable model in a walled box (no boundary outflow)."""
    h = 1.0 / 64.0
    grid = make_grid((0.0, 0.0, 1.0, 1.0), h, h,
                     room=(2 * h, 2 * h, 1.0 - 2 * h, 1.0 - 2 * h))
    kern = sample_kernel(bump_kernel(0.25), grid)
    law = constant_speed_law(vmax) if constant else linear_speed_law(vmax, 1.0)
    dirs = (constant_direction(grid, 1.0, 0.4, 0.0),)
    return ModelSpec(family=DIFFERENTIABLE, grid=grid, laws=(law,),
                     dirs=dirs, kernels=(kern,), t_max=t_max)


def hump(grid, cx, cy, r, amp):
    X = grid.xc[:, None]
    Y = grid.yc[None, :]
    d2 = ((X - cx) ** 2 + (Y - cy) ** 2) / r ** 2
    return amp * np.where(d2 < 1, np.cos(0.5 * np.pi * np.sqrt(d2)) ** 2, 0.0)


class TestLinearizedVelocity:
    """The perturbation flux (rho_i v'(arg) (sigma conv) + sigma_i v(arg))
    dir_i, seen through one step of the linearized scheme."""

    DT = 0.005

    def test_zero_sigma(self):
        model = closed_model()
        rho = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        sigma = PopulationField.zeros(model.grid, 1)
        out = _linearized_step(sigma, rho, model, self.DT)
        assert np.all(out.data == 0.0)

    def test_constant_speed_pure_advection(self):
        # v' = 0: sigma is transported like a density of the same model
        model = closed_model(constant=True)
        rho = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        sigma = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.5, 0.4, 0.25, 0.2))
        out = _linearized_step(sigma, rho, model, self.DT)
        expect, _ = split_step(sigma, model, self.DT)
        assert np.allclose(out.data, expect.data, atol=1e-14)

    def test_zero_rho(self):
        # rho = 0: sigma moves with the frozen speed v(0)
        model = closed_model()
        rho = PopulationField.zeros(model.grid, 1)
        sigma = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.5, 0.4, 0.25, 0.2))
        out = _linearized_step(sigma, rho, model, self.DT)
        frozen = replace(model, laws=(
            constant_speed_law(float(model.laws[0].v(0.0))),))
        expect, _ = split_step(sigma, frozen, self.DT)
        assert np.allclose(out.data, expect.data, atol=1e-14)

    def test_deviation_family_unsupported(self, corridor_grid):
        model = ModelSpec(family=DEVIATION, grid=corridor_grid,
                          laws=(linear_speed_law(4.0, 1.0),),
                          dirs=(constant_direction(corridor_grid, 1.0, 0.0),),
                          deviation=GradientAvoidance(
                              np.zeros((1, 1)),
                              sample_kernel(bump_kernel(0.5), corridor_grid)))
        f = PopulationField.zeros(corridor_grid, 1)
        with pytest.raises(UnsupportedModelError):
            solve_linearized(Trajectory(model, [0.0], [], [f]), f, 0.0)


class TestSolveLinearized:
    def test_zero_initial_perturbation(self):
        model = closed_model()
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        traj = run(model, rho0, record=True).trajectory
        sigma = solve_linearized(traj, PopulationField.zeros(model.grid, 1),
                                 model.t_max)
        assert np.all(sigma.data == 0.0)

    def test_mass_conserved_in_closed_domain(self):
        model = closed_model()
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.15, 0.3))
        traj = run(model, rho0, record=True).trajectory
        sigma0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.45, 0.55, 0.1, 0.2)
            - hump(model.grid, 0.35, 0.45, 0.1, 0.1))
        sigma = solve_linearized(traj, sigma0, model.t_max)
        assert sigma.data.sum() * model.grid.cell_area == pytest.approx(
            sigma0.data.sum() * model.grid.cell_area, rel=1e-12, abs=1e-12)

    def test_constant_speed_matches_nonlinear_run(self):
        model = closed_model(constant=True)
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        traj = run(model, rho0, record=True).trajectory
        sigma0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.45, 0.55, 0.15, 0.2))
        sigma = solve_linearized(traj, sigma0, model.t_max)
        # with v' = 0 the nonlinear flux is linear, so running the solver
        # on sigma0 with the same dt sequence gives the same evolution
        direct = run(model, sigma0, forced_dts=traj.dts)
        assert np.allclose(sigma.data, direct.state.data, atol=1e-12)

    def test_linearity(self):
        model = closed_model()
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        traj = run(model, rho0, record=True).trajectory
        s1 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.45, 0.55, 0.15, 0.2))
        s2 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.5, 0.45, 0.12, -0.15))
        combo = PopulationField(model.grid, 2.0 * s1.data - 0.5 * s2.data)
        out = solve_linearized(traj, combo, model.t_max)
        expect = (2.0 * solve_linearized(traj, s1, model.t_max).data
                  - 0.5 * solve_linearized(traj, s2, model.t_max).data)
        assert np.abs(out.data - expect).max() <= 1e-10

    def test_time_out_of_range(self):
        model = closed_model()
        rho0 = PopulationField.zeros(model.grid, 1)
        rho0.data[0] = hump(model.grid, 0.4, 0.5, 0.2, 0.3)
        traj = run(model, rho0, record=True).trajectory
        with pytest.raises(ConfigurationError, match="span"):
            solve_linearized(traj, rho0, model.t_max + 1.0)


class TestGateauxResidual:
    def test_zero_direction_zero_residual(self):
        model = closed_model()
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        sigma0 = PopulationField.zeros(model.grid, 1)
        assert gateaux_residual(model, rho0, sigma0, model.t_max, [0.1]) \
            == [0.0]

    def test_residual_second_order(self):
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 64.0, t_max=0.2)
        rs = gateaux_residual(model, rho0, sigma0, 0.2, [0.2, 0.1, 0.05])
        assert rs[0] / 0.2 > rs[1] / 0.1 > rs[2] / 0.05
        assert rs[1] / rs[0] <= 0.6
        assert rs[2] / rs[1] <= 0.6

    def test_exact_for_constant_speed(self):
        model = closed_model(constant=True)
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        sigma0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.45, 0.55, 0.15, 0.2))
        for r in gateaux_residual(model, rho0, sigma0, model.t_max,
                                  [0.2, 0.05]):
            assert r <= 1e-10

    def test_nonpositive_h_rejected(self):
        model = closed_model()
        f = PopulationField.zeros(model.grid, 1)
        with pytest.raises(ConfigurationError):
            gateaux_residual(model, f, f, model.t_max, [0.0])

    @pytest.mark.parametrize("hs", [[], [0.1, -0.05], [0.1, float("nan")]],
                             ids=["empty", "negative", "nan"])
    def test_bad_step_list_rejected(self, hs):
        model = closed_model()
        f = PopulationField.zeros(model.grid, 1)
        with pytest.raises(ConfigurationError, match="positive perturbation sizes"):
            gateaux_residual(model, f, f, model.t_max, hs)

    def test_sweep_equals_one_h_at_a_time(self):
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.1)
        hs = [0.2, 0.1, 0.05]
        rs = gateaux_residual(model, rho0, sigma0, 0.1, hs)
        assert rs == [gateaux_residual(model, rho0, sigma0, 0.1, [h])[0]
                      for h in hs]


class TestCostAndGradient:
    def setup_traj(self):
        model = closed_model()
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        traj = run(model, rho0, record=True).trajectory
        sigma0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.45, 0.55, 0.15, 0.2))
        return model, rho0, traj, sigma0

    def test_total_mass_cost(self):
        model, rho0, traj, sigma0 = self.setup_traj()
        cost = CostSpec(f=lambda r: r.sum(axis=0),
                        fprime=lambda r: np.ones_like(r),
                        psi=1.0, t=model.t_max)
        J, DJ = cost_and_gradient(traj, cost, sigma0)
        assert J == pytest.approx(rho0.mass()[0], rel=1e-10)
        assert DJ == pytest.approx(sigma0.mass()[0], abs=1e-10)

    def test_zero_weight(self):
        model, rho0, traj, sigma0 = self.setup_traj()
        cost = CostSpec(f=lambda r: r.sum(axis=0),
                        fprime=lambda r: np.ones_like(r),
                        psi=np.zeros((model.grid.nx, model.grid.ny)),
                        t=model.t_max)
        J, DJ = cost_and_gradient(traj, cost, sigma0)
        assert J == 0.0 and DJ == 0.0

    def test_finite_difference_check(self):
        model, rho0, traj, sigma0 = self.setup_traj()
        cost = CostSpec(f=lambda r: (r ** 2).sum(axis=0),
                        fprime=lambda r: 2.0 * r,
                        psi=1.0, t=model.t_max)
        _, DJ = cost_and_gradient(traj, cost, sigma0)
        errs = []
        for h in (0.2, 0.1, 0.05):
            pert = PopulationField(model.grid, rho0.data + h * sigma0.data)
            res = run(model, pert, forced_dts=traj.dts)
            Jh = float((res.state.data ** 2).sum()) * model.grid.cell_area
            J0 = float((traj.states[-1].data ** 2).sum()) * model.grid.cell_area
            errs.append(abs((Jh - J0) / h - DJ))
        assert errs[0] > errs[1] > errs[2]

    def test_dj_linear_in_sigma(self):
        model, rho0, traj, sigma0 = self.setup_traj()
        tau0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.5, 0.45, 0.12, -0.15))
        cost = CostSpec(f=lambda r: (r ** 2).sum(axis=0),
                        fprime=lambda r: 2.0 * r, psi=1.0, t=model.t_max)
        _, d1 = cost_and_gradient(traj, cost, sigma0)
        _, d2 = cost_and_gradient(traj, cost, tau0)
        combo = PopulationField(model.grid, 2.0 * sigma0.data - 0.5 * tau0.data)
        _, dc = cost_and_gradient(traj, cost, combo)
        assert dc == pytest.approx(2.0 * d1 - 0.5 * d2, abs=1e-10)

    def test_cost_time_outside_span(self):
        model, rho0, traj, sigma0 = self.setup_traj()
        cost = CostSpec(f=lambda r: r.sum(axis=0),
                        fprime=lambda r: np.ones_like(r),
                        psi=1.0, t=model.t_max + 1.0)
        with pytest.raises(ConfigurationError):
            cost_and_gradient(traj, cost, sigma0)
