"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import math
import os
import re
import time
from dataclasses import replace

import numpy as np
from scipy.signal import find_peaks

from crowdflow import (DIFFERENTIABLE, CostSpec, ModelSpec, PopulationField,
                       bump_kernel, constant_direction, constant_speed_law,
                       convolve, cost_and_gradient, gateaux_residual,
                       linear_speed_law, make_grid, norms, preset, run,
                       sample_kernel, split_step, tv_bound_deviation, wd)
from crowdflow.analysis import RunningEnvelope, aggregate_inputs
from crowdflow.cli import main, read_snapshot
from crowdflow.linearized import gateaux_benchmark

from test_solver import symmetric_crossing


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def crossing_model(mesh: float, t_max: float, snapshots=()):
    cfg = preset("crossing").with_mesh(mesh)
    cfg = replace(cfg, t_max=t_max, snapshot_times=tuple(snapshots))
    return cfg.build()


def test_01_conservation_and_runtime():
    model, datum = crossing_model(0.1, 1.0)
    total0 = float(datum.mass().sum())
    worst = {"v": 0.0}

    def on_step(report, state, W):
        total = float(state.mass().sum()) + float(report.escaped.sum())
        worst["v"] = max(worst["v"], abs(total - total0) / total0)

    start = time.perf_counter()
    run(model, datum, on_step=on_step)
    elapsed = time.perf_counter() - start
    ok = worst["v"] <= 1e-10 and elapsed < 60.0
    _verdict(1, "mass conservation",
             ok, f"max rel drift {worst['v']:.2e}, {elapsed:.1f}s")


def test_02_maximum_principle_both_presets():
    worst_lo, worst_hi = 0.0, 1.0
    for name in ("crossing", "evacuation"):
        cfg = preset(name).with_mesh(0.1)
        cfg = replace(cfg, t_max=2.0)
        model, datum = cfg.build()
        res = run(model, datum)
        for rep in res.reports:
            worst_lo = min(worst_lo, float(rep.min.min()))
            worst_hi = max(worst_hi, float(rep.max.max()))
    ok = worst_lo >= -1e-6 and worst_hi <= 1.0 + 1e-6
    _verdict(2, "maximum principle",
             ok, f"range [{worst_lo:.2e}, {worst_hi:.10f}]")


def test_03_convolution_oracle():
    grid = make_grid((0.0, 0.0, 1.0, 1.0), 1.0 / 64.0, 1.0 / 64.0)
    spec = bump_kernel(0.25)
    kern = sample_kernel(spec, grid)
    # independent brute-force double sum from the continuous profiles
    off_x = grid.xc[:, None] - grid.xc[None, :]
    off_y = grid.yc[:, None] - grid.yc[None, :]
    Ka = spec.fx(off_x) * grid.dx
    Kb = spec.fy(off_y) * grid.dy
    rng = np.random.default_rng(42)
    err = 0.0
    for _ in range(50):
        F = rng.random((grid.nx, grid.ny))
        brute = np.einsum("ih,hl,jl->ij", Ka, F, Kb)
        err = max(err, float(np.abs(convolve(F, kern) - brute).max()))

    fine = make_grid((-2.0, -2.0, 2.0, 2.0), 0.025, 0.025)
    mass = sample_kernel(bump_kernel(0.5), fine).mass
    mass_err = abs(mass - (16.0 / 35.0) ** 2)
    ok = err <= 1e-12 and mass_err <= 1e-4
    _verdict(3, "convolution oracle",
             ok, f"max abs err {err:.2e}, mass err {mass_err:.2e}")


def test_04_dimensional_constants():
    errs = (abs(wd(1) - 1.0), abs(wd(2) - math.pi / 4.0),
            abs(wd(3) - 2.0 / 3.0))
    ok = errs[0] <= 1e-12 and errs[1] <= 1e-10 and errs[2] <= 1e-10
    _verdict(4, "cosine-moment constants",
             ok, "errors " + ", ".join(f"{e:.1e}" for e in errs))


def test_05_tv_bound_domination():
    snaps = tuple(np.round(np.arange(0.0, 0.51, 0.1), 3))
    model, datum = crossing_model(0.1, 0.5, snaps)
    envelope = RunningEnvelope(model, datum)
    rows = []

    def on_snapshot(t, state):
        agg = aggregate_inputs(envelope.inputs)
        rows.append((t, float(norms(state).tv.sum()),
                     tv_bound_deviation(t, agg)))

    run(model, datum, on_snapshot=on_snapshot,
        on_step=lambda report, state, W: envelope.include(
            envelope.measure(W)))
    ok = True
    min_slack = math.inf
    for t, tv, bound in rows:
        ok = ok and tv <= bound * (1 + 1e-12)
        if tv > 0:
            min_slack = min(min_slack, bound / tv)
    _verdict(5, "total-variation bound", ok,
             f"{len(rows)} output times, min slack {min_slack:.3g}x")


def test_06_stability_bound(tmp_path):
    code = main(["stability", "--preset", "crossing", "--mesh", "0.1",
                 "--tmax", "0.5", "--out", str(tmp_path),
                 "--perturb", "0.1"])
    rows = (tmp_path / "stability.csv").read_text().splitlines()[1:]
    ok = code == 0 and len(rows) >= 2
    detail = []
    for row in rows:
        t, dist, bound, log_bound = (float(v) for v in row.split(","))
        if math.isinf(bound):
            ok = ok and (dist == 0.0 or math.log(dist) <= log_bound)
        else:
            ok = ok and dist <= bound * (1 + 1e-12)
        detail.append(f"t={t:g}: {dist:.3g} vs {bound:.3g}")
    _verdict(6, "datum stability bound", ok, "; ".join(detail))


def test_07_gateaux_residual():
    hs = (0.2, 0.1, 0.05, 0.025)
    model, rho0, sigma0 = gateaux_benchmark(mesh=1.0 / 64.0, t_max=0.2)
    rs = gateaux_residual(model, rho0, sigma0, 0.2, hs)
    rates = [r / h for r, h in zip(rs, hs)]
    ok = all(a > b for a, b in zip(rates, rates[1:]))
    ok = ok and all(b / a <= 0.6 for a, b in zip(rs, rs[1:]))

    frozen = replace(model, laws=(constant_speed_law(1.0),
                                  constant_speed_law(1.0)))
    r_const = max(gateaux_residual(frozen, rho0, sigma0, 0.2, hs))
    ok = ok and r_const <= 1e-10
    _verdict(7, "directional differentiability", ok,
             "r/h " + ", ".join(f"{v:.2e}" for v in rates)
             + f"; frozen-speed residual {r_const:.1e}")


def _closed_differentiable(t_max=0.2):
    h = 1.0 / 64.0
    grid = make_grid((0.0, 0.0, 1.0, 1.0), h, h,
                     room=(2 * h, 2 * h, 1.0 - 2 * h, 1.0 - 2 * h))
    kern = sample_kernel(bump_kernel(0.25), grid)
    model = ModelSpec(family=DIFFERENTIABLE, grid=grid,
                      laws=(linear_speed_law(1.0, 1.0),),
                      dirs=(constant_direction(grid, 1.0, 0.4, 0.0),),
                      kernels=(kern,), t_max=t_max)
    X = grid.xc[:, None]
    Y = grid.yc[None, :]

    def hump(cx, cy, r, amp):
        d2 = ((X - cx) ** 2 + (Y - cy) ** 2) / r ** 2
        return amp * np.where(d2 < 1,
                              np.cos(0.5 * np.pi * np.sqrt(d2)) ** 2, 0.0)

    rho0 = PopulationField.from_arrays(grid, hump(0.4, 0.5, 0.2, 0.3))
    sigma0 = PopulationField.from_arrays(grid, hump(0.45, 0.55, 0.15, 0.2))
    return model, rho0, sigma0


def test_08_cost_gradient():
    model, rho0, sigma0 = _closed_differentiable()
    base = run(model, rho0)
    area = model.grid.cell_area

    quad = CostSpec(f=lambda r: (r ** 2).sum(axis=0),
                    fprime=lambda r: 2.0 * r, psi=1.0, t=model.t_max)
    _, DJ = cost_and_gradient(model, rho0, quad, sigma0)
    J0 = float((base.state.data ** 2).sum()) * area
    hs = (0.2, 0.1, 0.05, 0.025)
    errs = []
    for h in hs:
        # replay the base run's dt sequence from the perturbed datum
        pert = PopulationField(model.grid, rho0.data + h * sigma0.data)
        for rep in base.reports:
            pert, _ = split_step(pert, model, rep.dt)
        Jh = float((pert.data ** 2).sum()) * area
        errs.append(abs((Jh - J0) / h - DJ))
    C = max(e / h for e, h in zip(errs, hs))
    ok = all(a > b for a, b in zip(errs, errs[1:]))
    ok = ok and all(e <= C * h + 1e-8 for e, h in zip(errs, hs))

    mass_cost = CostSpec(f=lambda r: r.sum(axis=0),
                         fprime=lambda r: np.ones_like(r),
                         psi=1.0, t=model.t_max)
    _, DJm = cost_and_gradient(model, rho0, mass_cost, sigma0)
    mass_err = abs(DJm - float(sigma0.mass().sum()))
    ok = ok and mass_err <= 1e-10
    _verdict(8, "cost gradient", ok,
             f"fitted C {C:.3g}, fd errors "
             + ", ".join(f"{e:.2e}" for e in errs)
             + f"; mass-cost gradient err {mass_err:.1e}")


def test_09_mirror_symmetry():
    model, datum = symmetric_crossing(mesh=0.1, t_max=1.0)
    worst = {"v": 0.0}

    def check(report, state, W):
        worst["v"] = max(worst["v"], float(
            np.abs(state.data[1] - state.data[0][::-1]).max()))

    run(model, datum, on_step=check)
    ok = worst["v"] <= 1e-10
    _verdict(9, "mirror symmetry", ok, f"max asymmetry {worst['v']:.2e}")


def test_10_pattern_formation():
    snaps = tuple(np.round(np.arange(0.0, 3.01, 0.1), 3))
    model, datum = crossing_model(0.05, 3.0, snaps)
    g = model.grid
    area = g.cell_area
    overlaps, profiles = [], {}
    zone = np.abs(g.xc) <= 1.6

    def on_snapshot(t, state):
        overlaps.append((t, float((state.data[0] * state.data[1]).sum()) * area))
        profiles[t] = state.data[0][zone].mean(axis=0)

    run(model, datum, on_snapshot=on_snapshot)
    ts, vals = zip(*overlaps)
    peak_idx = int(np.argmax(vals))
    peak = vals[peak_idx]
    final = vals[-1]
    ok = peak > 0.0 and peak_idx < len(vals) - 1
    ok = ok and final <= 0.8 * peak

    prof = profiles[ts[peak_idx]]
    peaks, _ = find_peaks(prof, prominence=0.02 * prof.max())
    ok = ok and len(peaks) >= 2
    _verdict(10, "crossing pattern regression", ok,
             f"overlap peak {peak:.3g} at t={ts[peak_idx]:g}, final "
             f"{final:.3g} ({100 * (1 - final / peak):.0f}% drop), "
             f"{len(peaks)} lane maxima")


def test_11_determinism(tmp_path):
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert main(["run", "--preset", "crossing", "--mesh", "0.1",
                     "--tmax", "0.5", "--out", str(out)]) == 0
    names = sorted(os.listdir(outs[0]))
    ok = names == sorted(os.listdir(outs[1])) and len(names) >= 3
    for name in names:
        ok = ok and ((outs[0] / name).read_bytes()
                     == (outs[1] / name).read_bytes())
    _verdict(11, "bitwise determinism", ok,
             f"{len(names)} files compared")


REFINEMENT_FLOOR = 1.8  # fixed from ratios 2.36 and 2.27; not to be tuned


def test_12_refinement():
    # the smooth Gateaux datum to t = 0.2 at meshes 1/32 ... 1/256: each
    # run's L1 distance to the 2x2 cell means of the next finer run must
    # fall by at least REFINEMENT_FLOOR a level (first-order LxF on smooth
    # data halves it)
    finals = []
    for mesh in (1 / 32, 1 / 64, 1 / 128, 1 / 256):
        model, rho0, _ = gateaux_benchmark(mesh, 0.2)
        finals.append((model.grid.cell_area, run(model, rho0).state.data))
    dists = []
    for (area, coarse), (_, fine) in zip(finals, finals[1:]):
        n, nx, ny = coarse.shape
        means = fine.reshape(n, nx, 2, ny, 2).mean(axis=(2, 4))
        dists.append(float(np.abs(coarse - means).sum()) * area)
    ratios = [a / b for a, b in zip(dists, dists[1:])]
    ok = (all(a > b for a, b in zip(dists, dists[1:]))
          and all(r >= REFINEMENT_FLOOR for r in ratios))
    _verdict(12, "refinement", ok,
             "L1 distances " + ", ".join(f"{d:.3g}" for d in dists)
             + "; ratios " + ", ".join(f"{r:.3g}" for r in ratios))


# Three populations in the corridor, each with its own drive, coupled by
# an asymmetric avoidance matrix; one kernel group
SEVERAL_INI = """[grid]
mesh = 0.2
[model]
tmax = 1
snapshot_times = 0 0.25 0.5 0.75 1
[population.1]
gx = 1
eps = 0.3 0.7 0.2
datum = 0.9 -6.4 -2.4 -3.2 2.4
[population.2]
gx = -1
eps = 0.5 0.3 0.4
datum = 0.7 3.2 -2.4 6.4 2.4
[population.3]
gy = 1
eps = 0.1 0.6 0.3
datum = 0.6 -1.6 -2.8 1.6 -0.8
"""


def test_13_several_populations(tmp_path, capsys):
    # `bounds` twice on n = 3: the mass identity, the maximum principle,
    # TV domination and bitwise determinism (where several processes step
    # the populations, each writes its own populations' snapshots)
    ini = tmp_path / "three.ini"
    ini.write_text(SEVERAL_INI)
    outs = (tmp_path / "a", tmp_path / "b")
    codes, logs = [], []
    for out in outs:
        codes.append(main(["bounds", "--config", str(ini), "--out", str(out)]))
        logs.append(capsys.readouterr().out.replace(str(out), "OUT"))
    mass = re.search(r"^mass: initial (\S+), final\+escaped (\S+)$", logs[0],
                     re.M)
    m0, m1 = float(mass.group(1)), float(mass.group(2))
    lo, hi = math.inf, -math.inf
    snaps = sorted(outs[0].glob("pop*_t*.csv"))
    for path in snaps:
        data, _ = read_snapshot(str(path))
        lo, hi = min(lo, float(data.min())), max(hi, float(data.max()))
    rows = (outs[0] / "bounds.csv").read_text().splitlines()[1:]
    dominated = all(tv <= bound * (1 + 1e-12) for tv, bound in (
        map(float, row.split(",")[2:4]) for row in rows))
    names = sorted(os.listdir(outs[0]))
    same = names == sorted(os.listdir(outs[1])) and logs[0] == logs[1] \
        and all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
                for name in names)
    ok = (codes == [0, 0] and abs(m1 - m0) <= 1e-10 * m0
          and lo >= -1e-6 and hi <= 1.0 + 1e-6 and len(snaps) == 15
          and len(rows) == 15 and dominated and same)
    _verdict(13, "several populations", ok,
             f"mass {m0:.12g} -> {m1:.12g}, range [{lo:.2e}, {hi:.10f}], "
             f"{len(rows)} TV rows, {len(names)} files compared")
