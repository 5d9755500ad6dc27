import os
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from crowdflow import (DEVIATION, DIFFERENTIABLE, ConfigurationError,
                       CostSpec, CrowdflowError, ModelSpec, NumericError,
                       PopulationField, GradientAvoidance,
                       UnsupportedModelError,
                       advection_field, bump_kernel,
                       constant_direction, constant_speed_law,
                       cost_and_gradient, gateaux_benchmark, gateaux_residual,
                       linear_speed_law, make_grid, run, sample_kernel,
                       solve_linearized, split_step)
from crowdflow import forked, linearized, solver, velocity
from crowdflow.kernel import convolve
from crowdflow.linearized import _linearized_step
from crowdflow.solver import _face_buffers
from crowdflow.velocity import clamped_speed_arg, smoothed_total_density


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


def speed_arg(rho, model):
    """The clamped speed argument of rho, as the base step computes it."""
    return clamped_speed_arg(smoothed_total_density(rho, model.kernels))


class TestLinearizedVelocity:
    """The perturbation flux (rho_i v'(arg) (sigma conv) + sigma_i v(arg))
    dir_i, seen through one step of the linearized scheme."""

    DT = 0.005

    def test_zero_sigma(self):
        model = closed_model()
        rho = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        sigma = PopulationField.zeros(model.grid, 1)
        out = _linearized_step(sigma, rho, advection_field(rho, model), model,
                               self.DT, speed_arg(rho, model))
        assert np.all(out.data == 0.0)

    def test_constant_speed_pure_advection(self):
        # v' = 0: sigma is transported like a density of the same model
        model = closed_model(constant=True)
        rho = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        sigma = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.5, 0.4, 0.25, 0.2))
        out = _linearized_step(sigma, rho, advection_field(rho, model), model,
                               self.DT, speed_arg(rho, model))
        expect, _ = split_step(sigma, model, self.DT)
        assert np.allclose(out.data, expect.data, atol=1e-14)

    def test_zero_rho(self):
        # rho = 0: sigma moves with the frozen speed v(0)
        model = closed_model()
        rho = PopulationField.zeros(model.grid, 1)
        sigma = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.5, 0.4, 0.25, 0.2))
        out = _linearized_step(sigma, rho, advection_field(rho, model), model,
                               self.DT, speed_arg(rho, model))
        frozen = replace(model, laws=(
            constant_speed_law(float(model.laws[0].v(0.0))),))
        expect, _ = split_step(sigma, frozen, self.DT)
        assert np.allclose(out.data, expect.data, atol=1e-14)

    def test_step_memory_below_eight_grid_arrays(self):
        # sigma's smoothing, the new field (two grid arrays), the additive
        # flux (two) and one sweep's window; the face buffers are the caller's
        model, rho, sigma = gateaux_benchmark(mesh=1.0 / 256.0, t_max=0.2)
        W, arg = advection_field(rho, model), speed_arg(rho, model)
        faces = _face_buffers(model.grid)
        tracemalloc.start()
        try:
            _linearized_step(sigma, rho, W, model, 1e-3, arg, faces)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * rho.data[0].nbytes

    def test_deviation_family_unsupported(self, corridor_grid):
        model = ModelSpec(family=DEVIATION, grid=corridor_grid,
                          laws=(linear_speed_law(4.0, 1.0),),
                          dirs=(constant_direction(corridor_grid, 1.0, 0.0),),
                          deviation=GradientAvoidance(
                              np.zeros((1, 1)),
                              sample_kernel(bump_kernel(0.5), corridor_grid)))
        f = PopulationField.zeros(corridor_grid, 1)
        with pytest.raises(UnsupportedModelError):
            solve_linearized(model, f, f, 0.0)

    def test_empty_base_population_unsupported(self):
        # cfl_dt skips population 2, empty in rho0, so the base run's dt
        # would not cover sigma's sweep of it: at mesh 1/32, vmax 4
        # against 1, that sweep took |sigma_2| to ~14, against < 0.01
        # with population 2 in the step rule
        model, rho0, sigma0 = gateaux_benchmark(1.0 / 16.0, 0.2)
        model = replace(model, laws=(model.laws[0], linear_speed_law(4.0)))
        rho0.data[1] = 0.0
        with pytest.raises(UnsupportedModelError, match="population 1"):
            solve_linearized(model, rho0, sigma0, 0.2)
        with pytest.raises(UnsupportedModelError, match="population 1"):
            gateaux_residual(model, rho0, sigma0, 0.2, [0.1])
        sigma0.data[1] = 0.0  # nothing moves population 2: supported
        _, sigma = solve_linearized(model, rho0, sigma0, 0.2)
        assert np.all(sigma.data[1] == 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sigma0_rejected(self, monkeypatch, value):
        # before any step: one such cell gave a non-finite Sigma_t sigma0
        # and a NaN derivative from cost_and_gradient, without an error
        for module in (solver, linearized):
            monkeypatch.setattr(module, "split_step", _must_not_step)
        model, rho0, sigma0 = gateaux_benchmark(1.0 / 32.0, 0.05)
        sigma0.data[0, 10, 12] = value
        cost = CostSpec(f=lambda r: r.sum(axis=0), fprime=np.ones_like,
                        psi=1.0, t=0.05)
        for call in (lambda: solve_linearized(model, rho0, sigma0, 0.05),
                     lambda: gateaux_residual(model, rho0, sigma0, 0.05,
                                              [0.1, 0.05]),
                     lambda: cost_and_gradient(model, rho0, cost, sigma0)):
            with pytest.raises(ConfigurationError, match="non-finite"):
                call()


def _must_not_step(*args, **kwargs):
    raise AssertionError("a step was taken")


class TestSolveLinearized:
    def test_zero_initial_perturbation(self):
        model = closed_model()
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        _, sigma = solve_linearized(
            model, rho0, PopulationField.zeros(model.grid, 1), model.t_max)
        assert np.all(sigma.data == 0.0)

    def test_mass_conserved_in_closed_domain(self):
        model = closed_model()
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.15, 0.3))
        sigma0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.45, 0.55, 0.1, 0.2)
            - hump(model.grid, 0.35, 0.45, 0.1, 0.1))
        _, sigma = solve_linearized(model, rho0, sigma0, model.t_max)
        assert sigma.data.sum() * model.grid.cell_area == pytest.approx(
            sigma0.data.sum() * model.grid.cell_area, rel=1e-12, abs=1e-12)

    def test_constant_speed_matches_nonlinear_run(self):
        model = closed_model(constant=True)
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        sigma0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.45, 0.55, 0.15, 0.2))
        base, sigma = solve_linearized(model, rho0, sigma0, model.t_max)
        # with v' = 0 the nonlinear flux is linear, so stepping the solver
        # on sigma0 with the same dt sequence gives the same evolution
        direct = sigma0
        for rep in base.reports:
            direct, _ = split_step(direct, model, rep.dt)
        assert np.allclose(sigma.data, direct.data, atol=1e-12)

    def test_linearity(self):
        model = closed_model()
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        s1 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.45, 0.55, 0.15, 0.2))
        s2 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.5, 0.45, 0.12, -0.15))
        combo = PopulationField(model.grid, 2.0 * s1.data - 0.5 * s2.data)

        def solve(sigma0):
            return solve_linearized(model, rho0, sigma0, model.t_max)[1].data

        out = solve(combo)
        expect = 2.0 * solve(s1) - 0.5 * solve(s2)
        assert np.abs(out - expect).max() <= 1e-10

    def test_time_out_of_range(self):
        model = closed_model()
        rho0 = PopulationField.zeros(model.grid, 1)
        rho0.data[0] = hump(model.grid, 0.4, 0.5, 0.2, 0.3)
        with pytest.raises(ConfigurationError, match="nonnegative"):
            solve_linearized(model, rho0, rho0, -1.0)

    def test_time_past_model_t_max(self):
        # the run is made to t, whatever the model's own final time
        model = closed_model(t_max=0.05)
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        base, _ = solve_linearized(model, rho0, rho0, 0.1)
        assert base.reports[-1].t == pytest.approx(0.1, abs=1e-12)
        longer = run(replace(model, t_max=0.1), rho0)
        assert np.array_equal(base.state.data, longer.state.data)


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

    @pytest.mark.parametrize("hs", [[], [0.1, -0.05], [0.1, float("nan")],
                                    [float("inf"), 0.1]],
                             ids=["empty", "negative", "nan", "inf"])
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

    def test_matches_stored_trajectory_algorithm(self):
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.2)
        hs = [0.2, 0.1, 0.05, 0.025]
        assert gateaux_residual(model, rho0, sigma0, 0.2, hs) \
            == stored_trajectory_residual(model, rho0, sigma0, hs)

    def test_pinned_at_mesh_1_64(self):
        # per-population convolutions gave these; convolving the sum of
        # the two populations, which share one kernel, moves the last bits
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 64.0, t_max=0.2)
        rs = gateaux_residual(model, rho0, sigma0, 0.2,
                              [0.2, 0.1, 0.05, 0.025])
        assert rs == pytest.approx([4.411803954120959e-06,
                                    1.10310200865239e-06,
                                    2.75794333544099e-07,
                                    6.8950934423875e-08], rel=1e-9)

    def test_one_convolution_per_shared_kernel_and_pass(self, monkeypatch,
                                                        sequential):
        # each base step smooths rho once, for its own field and the
        # linearized step's speed argument, and sigma once; each h's replay
        # smooths once: the two populations share one kernel, so each pass
        # is one convolution (counted in this process: a forked replay's
        # calls would not be)
        calls, bases = [], []

        def counted(field, k):
            calls.append(1)
            return convolve(field, k)

        def keep_base(*args, **kwargs):
            result = solve_linearized(*args, **kwargs)
            bases.append(result[0])
            return result

        monkeypatch.setattr(velocity, "convolve", counted)
        monkeypatch.setattr(linearized, "solve_linearized", keep_base)
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.2)
        hs = [0.2, 0.1]
        gateaux_residual(model, rho0, sigma0, 0.2, hs)
        assert model.kernels[0] is model.kernels[1]
        assert len(calls) == len(bases[0].reports) * (2 + len(hs))

    def test_memory_independent_of_step_count(self):
        # 29 base steps; storing the base run would hold 30 states
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 128.0, t_max=0.2)
        tracemalloc.start()
        try:
            gateaux_residual(model, rho0, sigma0, 0.2, [0.2, 0.1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * rho0.data.nbytes


@pytest.fixture
def sequential(monkeypatch):
    """gateaux_residual's replays one after another in this process."""
    monkeypatch.setattr(forked, "_usable_cpus", lambda: 1)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers gateaux_residual forks, with its work
    split among up to three processes; skips where the loaded BLAS has
    no thread control, since the replays then never fork."""
    if forked._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread control")
    monkeypatch.setattr(forked, "_usable_cpus", lambda: 3)
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def running(pid):
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


HS = [0.2, 0.1, 0.05, 0.025, 0.0125]

# Runs gateaux_residual with one forked worker, prints the worker's pid,
# and stalls in its linearized solve once the first dt has been streamed.
KILLED_CALLER = """
import os, time
from crowdflow import forked, linearized
fork, step = os.fork, linearized._linearized_step

def announced():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

def stalled(*args, **kwargs):
    print("stalled", flush=True)
    time.sleep(60)
    return step(*args, **kwargs)

forked._usable_cpus = lambda: 2
os.fork, linearized._linearized_step = announced, stalled
model, rho0, sigma0 = linearized.gateaux_benchmark(mesh=1 / 32, t_max=0.1)
linearized.gateaux_residual(model, rho0, sigma0, 0.1, [0.2, 0.1])
"""


class TestForkedReplays:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bitwise_equal_to_sequential(self, monkeypatch, forks, n):
        # P = min(n + 1, cpus) processes; at n = 1 the caller replays
        # nothing and its one worker replays in lockstep with the solve
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.1)
        monkeypatch.setattr(forked, "_usable_cpus", lambda: 1)
        sequential = gateaux_residual(model, rho0, sigma0, 0.1, HS[:n])
        assert forks == []
        for cpus in (2, 3):
            monkeypatch.setattr(forked, "_usable_cpus", lambda: cpus)
            assert gateaux_residual(model, rho0, sigma0, 0.1,
                                    HS[:n]) == sequential
            assert len(forks) == min(n + 1, cpus) - 1
            forks.clear()
            assert_no_child_left()

    @pytest.mark.parametrize("n, cpus, mine", [
        (1, 2, 0), (2, 2, 0), (3, 2, 1), (4, 2, 1), (5, 2, 2), (6, 2, 2),
        (2, 3, 0), (4, 3, 0), (5, 3, 1), (8, 3, 2), (3, 8, 0),
        (1, 1, 1), (3, 1, 3)])
    def test_caller_takes_its_share_after_the_solve(self, monkeypatch,
                                                    forks, n, cpus, mine):
        # the solve counts as two replays: the caller takes
        # max(0, ceil((n + 2) / P) - 2) of them, the first ones; on one
        # CPU, P = 1: nothing is forked and the caller replays every h
        parent, step, seen = os.getpid(), linearized.split_step, []

        def watched(state, model, dt, **kwargs):
            if os.getpid() == parent:
                seen.append(float(state.data.sum()))
            return step(state, model, dt, **kwargs)

        monkeypatch.setattr(forked, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(linearized, "split_step", watched)
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.05)
        hs = [2.0 ** -k for k in range(n)]
        base, _ = solve_linearized(model, rho0, sigma0, 0.05)
        gateaux_residual(model, rho0, sigma0, 0.05, hs)
        steps = len(base.reports)
        assert len(forks) == min(n + 1, cpus) - 1
        assert len(seen) == mine * steps
        firsts = [float((rho0.data + h * sigma0.data).sum()) for h in hs]
        assert seen[::steps] == firsts[:mine]
        assert_no_child_left()

    @pytest.mark.parametrize("missing", ["fork", "blas"])
    def test_sequential_without_fork_or_blas_control(self, monkeypatch,
                                                     forks, missing):
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.1)
        parallel = gateaux_residual(model, rho0, sigma0, 0.1, HS[:3])
        forks.clear()
        if missing == "fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(forked, "_openblas_threads", lambda: None)
        assert gateaux_residual(model, rho0, sigma0, 0.1, HS[:3]) == parallel
        assert forks == []

    def test_worker_error_comes_back(self, monkeypatch, forks):
        parent, step = os.getpid(), linearized.split_step

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                raise NumericError("non-finite wave speed in population 1")
            return step(*args, **kwargs)

        monkeypatch.setattr(linearized, "split_step", failing)
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.1)
        with pytest.raises(NumericError) as err:
            gateaux_residual(model, rho0, sigma0, 0.1, HS[:3])
        assert type(err.value) is NumericError
        assert str(err.value) == "non-finite wave speed in population 1"
        assert len(forks) == 2
        assert_no_child_left()

    def test_worker_error_stops_the_stream(self, monkeypatch, forks):
        # the worker fails on its first dt and closes its stream: the
        # caller's next write raises the worker's error, mid-solve
        parent, step = os.getpid(), linearized.split_step
        lin_step, solved = linearized._linearized_step, []

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                raise NumericError("in the worker")
            return step(*args, **kwargs)

        def slow(*args, **kwargs):
            time.sleep(0.05)  # time for the worker to fail and close
            solved.append(1)
            return lin_step(*args, **kwargs)

        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.2)
        steps = len(solve_linearized(model, rho0, sigma0, 0.2)[0].reports)
        monkeypatch.setattr(forked, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(linearized, "split_step", failing)
        monkeypatch.setattr(linearized, "_linearized_step", slow)
        with pytest.raises(NumericError, match="in the worker"):
            gateaux_residual(model, rho0, sigma0, 0.2, HS[:1])
        assert 0 < len(solved) < steps
        assert_no_child_left()

    def test_worker_dying_without_result_raises(self, monkeypatch, forks):
        parent, step = os.getpid(), linearized.split_step

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return step(*args, **kwargs)

        monkeypatch.setattr(linearized, "split_step", dying)
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.1)
        with pytest.raises(CrowdflowError, match="no result"):
            gateaux_residual(model, rho0, sigma0, 0.1, HS[:2])
        assert_no_child_left()

    def test_worker_killed_by_a_signal_says_so(self, monkeypatch, forks):
        parent, step = os.getpid(), linearized.split_step

        def killed(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return step(*args, **kwargs)

        monkeypatch.setattr(linearized, "split_step", killed)
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.1)
        with pytest.raises(CrowdflowError, match="with signal "
                           f"{int(signal.SIGKILL)} and no result"):
            gateaux_residual(model, rho0, sigma0, 0.1, HS[:2])
        assert_no_child_left()

    def test_own_chunk_error_kills_the_workers(self, monkeypatch, forks):
        # the caller's base run fails at its second step, while both
        # workers are busy with the first dt it streamed
        parent, replay_step = os.getpid(), linearized.split_step
        base_step, calls = solver.split_step, []

        def sleeping(*args, **kwargs):
            if os.getpid() != parent:
                time.sleep(60)  # a worker that would outlast the test
            return replay_step(*args, **kwargs)

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericError("in the base run")
            return base_step(*args, **kwargs)

        monkeypatch.setattr(linearized, "split_step", sleeping)
        monkeypatch.setattr(solver, "split_step", failing)
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.1)
        start = time.monotonic()
        with pytest.raises(NumericError, match="in the base run"):
            gateaux_residual(model, rho0, sigma0, 0.1, HS[:3])
        assert time.monotonic() - start < 30
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="reads process states from /proc")
    def test_worker_exits_when_its_caller_is_killed(self):
        if forked._openblas_threads() is None:
            pytest.skip("no OpenBLAS thread control: the replays never fork")
        src = os.path.dirname(os.path.dirname(linearized.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        with subprocess.Popen([sys.executable, "-c", KILLED_CALLER], env=env,
                              stdout=subprocess.PIPE, text=True) as caller:
            try:
                worker = int(caller.stdout.readline())
                assert caller.stdout.readline() == "stalled\n"
            finally:
                caller.kill()
                caller.wait()
        deadline = time.monotonic() + 10
        try:
            while running(worker):
                assert time.monotonic() < deadline, "worker outlived its caller"
                time.sleep(0.05)
        finally:
            if running(worker):
                os.kill(worker, signal.SIGKILL)

    @pytest.mark.parametrize("fails", [False, True])
    @pytest.mark.parametrize("before, cpus, n, during", [
        (2, 3, 3, 1), (3, 4, 1, 2), (1, 4, 1, 1)],
        ids=["shared", "split", "never-raised"])
    def test_blas_threads_set_and_restored(self, monkeypatch, forks, fails,
                                           before, cpus, n, during):
        # watched in the caller's linearized solve, which now runs beside
        # the workers; a failure there is an error in the caller
        get, put = forked._openblas_threads()
        seen, step, original = [], linearized._linearized_step, get()

        def watched(*args, **kwargs):
            seen.append(get())
            if fails:
                raise NumericError("stop")
            return step(*args, **kwargs)

        monkeypatch.setattr(forked, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(linearized, "_linearized_step", watched)
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.1)
        put(before)
        try:
            gateaux_residual(model, rho0, sigma0, 0.1, HS[:n])
        except NumericError:
            assert fails
        finally:
            after = get()
            put(original)
        assert set(seen) == {during}
        assert after == before
        assert_no_child_left()

    @pytest.mark.parametrize("before, cpus, n, during", [
        (2, 3, 3, 1), (3, 4, 1, 2), (1, 4, 1, 1)],
        ids=["shared", "split", "never-raised"])
    def test_worker_blas_threads(self, monkeypatch, forks, before, cpus, n,
                                 during):
        # a worker reports its thread count through the error it raises
        get, put = forked._openblas_threads()
        parent, original = os.getpid(), get()

        def reporting(*args, **kwargs):
            assert os.getpid() != parent
            raise NumericError(f"{get()} threads")

        monkeypatch.setattr(forked, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(linearized, "split_step", reporting)
        model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 32.0, t_max=0.1)
        put(before)
        try:
            with pytest.raises(NumericError) as err:
                gateaux_residual(model, rho0, sigma0, 0.1, HS[:n])
        finally:
            after = get()
            put(original)
        assert str(err.value) == f"{during} threads"
        assert after == before
        assert_no_child_left()


def stored_trajectory_residual(model, rho0, sigma0, hs):
    """Reference for gateaux_residual at t = model.t_max: store every state
    of the base run, evolve sigma0 along the stored states afterwards, then
    replay the base run's dt sequence from each perturbed datum."""
    states, dts = [rho0.copy()], []

    def keep(report, state, W):
        states.append(state.copy())
        dts.append(report.dt)

    run(model, rho0, on_step=keep)
    sigma = sigma0.copy()
    for rho, dt in zip(states, dts):
        sigma = _linearized_step(sigma, rho, advection_field(rho, model),
                                 model, dt, speed_arg(rho, model))
    rs = []
    for h in hs:
        state = PopulationField(rho0.grid, rho0.data + h * sigma0.data)
        for dt in dts:
            state, _ = split_step(state, model, dt)
        defect = state.data - states[-1].data - h * sigma.data
        rs.append(float(np.abs(defect).sum()) * rho0.grid.cell_area)
    return rs


class TestCostAndGradient:
    def setup_model(self):
        model = closed_model()
        rho0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.4, 0.5, 0.2, 0.3))
        sigma0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.45, 0.55, 0.15, 0.2))
        return model, rho0, sigma0

    def test_total_mass_cost(self):
        model, rho0, sigma0 = self.setup_model()
        cost = CostSpec(f=lambda r: r.sum(axis=0),
                        fprime=lambda r: np.ones_like(r),
                        psi=1.0, t=model.t_max)
        J, DJ = cost_and_gradient(model, rho0, cost, sigma0)
        assert J == pytest.approx(rho0.mass()[0], rel=1e-10)
        assert DJ == pytest.approx(sigma0.mass()[0], abs=1e-10)

    def test_zero_weight(self):
        model, rho0, sigma0 = self.setup_model()
        cost = CostSpec(f=lambda r: r.sum(axis=0),
                        fprime=lambda r: np.ones_like(r),
                        psi=np.zeros((model.grid.nx, model.grid.ny)),
                        t=model.t_max)
        J, DJ = cost_and_gradient(model, rho0, cost, sigma0)
        assert J == 0.0 and DJ == 0.0

    def test_finite_difference_check(self):
        model, rho0, sigma0 = self.setup_model()
        cost = CostSpec(f=lambda r: (r ** 2).sum(axis=0),
                        fprime=lambda r: 2.0 * r,
                        psi=1.0, t=model.t_max)
        _, DJ = cost_and_gradient(model, rho0, cost, sigma0)
        base = run(model, rho0)
        J0 = float((base.state.data ** 2).sum()) * model.grid.cell_area
        errs = []
        for h in (0.2, 0.1, 0.05):
            # replay the base run's dt sequence from the perturbed datum
            pert = PopulationField(model.grid, rho0.data + h * sigma0.data)
            for rep in base.reports:
                pert, _ = split_step(pert, model, rep.dt)
            Jh = float((pert.data ** 2).sum()) * model.grid.cell_area
            errs.append(abs((Jh - J0) / h - DJ))
        assert errs[0] > errs[1] > errs[2]

    def test_dj_linear_in_sigma(self):
        model, rho0, sigma0 = self.setup_model()
        tau0 = PopulationField.from_arrays(
            model.grid, hump(model.grid, 0.5, 0.45, 0.12, -0.15))
        cost = CostSpec(f=lambda r: (r ** 2).sum(axis=0),
                        fprime=lambda r: 2.0 * r, psi=1.0, t=model.t_max)
        _, d1 = cost_and_gradient(model, rho0, cost, sigma0)
        _, d2 = cost_and_gradient(model, rho0, cost, tau0)
        combo = PopulationField(model.grid, 2.0 * sigma0.data - 0.5 * tau0.data)
        _, dc = cost_and_gradient(model, rho0, cost, combo)
        assert dc == pytest.approx(2.0 * d1 - 0.5 * d2, abs=1e-10)

    def test_cost_time_outside_span(self):
        model, rho0, sigma0 = self.setup_model()
        cost = CostSpec(f=lambda r: r.sum(axis=0),
                        fprime=lambda r: np.ones_like(r),
                        psi=1.0, t=-1.0)
        with pytest.raises(ConfigurationError):
            cost_and_gradient(model, rho0, cost, sigma0)
