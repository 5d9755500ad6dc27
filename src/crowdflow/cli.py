"""Command-line front end: run, bounds, gateaux, stability.

Exit codes: 0 success, 1 configuration error, 2 numeric error, 3 bound
or invariant violation in strict mode.  All CSV output is written with
17 significant digits and fixed row order so identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import analysis
from .analysis import (ParameterDeltas, aggregate_inputs, bound_inputs_for,
                       stability_bound_deviation, sup_gradient,
                       tv_bound_deviation)
from .config import RunConfig, parse_config, preset
from .errors import BoundViolationError, ConfigurationError, NumericError
from .grid import PopulationField, norms
from .linearized import gateaux_benchmark, gateaux_residual
from .solver import DEVIATION, ModelSpec, advection_field, run

FMT = "%.17g"


def _fmt(x: float) -> str:
    return FMT % x


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep our codes
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="crowdflow",
                description="Finite-volume solver for nonlocal multi-"
                            "population crowd models")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--preset", choices=("crossing", "evacuation"))
        sp.add_argument("--config", help="INI configuration file")
        sp.add_argument("--mesh", type=float, help="override cell size")
        sp.add_argument("--tmax", type=float, help="override final time")
        sp.add_argument("--cfl", type=float, help="override CFL number")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--strict", action="store_true",
                        help="abort when the maximum principle is violated")
        sp.add_argument("--normalize-kernel", action="store_true",
                        help="rescale the kernel to unit mass")

    common(sub.add_parser("run", help="simulate and write snapshots"))
    common(sub.add_parser("bounds", help="simulate and verify a-priori bounds"))
    g = sub.add_parser("gateaux",
                       help="directional-derivative residual sweep on a "
                            "built-in smooth benchmark")
    common(g)
    g.add_argument("--hs", default="0.2,0.1,0.05,0.025",
                   help="comma-separated perturbation sizes")
    s = sub.add_parser("stability",
                       help="paired runs with a datum perturbation vs. the "
                            "stability envelope")
    common(s)
    s.add_argument("--perturb", type=float, default=0.1,
                   help="L1 size of the datum perturbation")
    return p


def load_config(args) -> RunConfig:
    if args.config and args.preset:
        raise ConfigurationError("give either --preset or --config, not both")
    if args.config:
        cfg = parse_config(args.config)
    elif args.preset:
        cfg = preset(args.preset)
    else:
        raise ConfigurationError("one of --preset or --config is required")
    if args.mesh is not None:
        cfg = cfg.with_mesh(args.mesh)
    if args.tmax is not None:
        cfg = replace(cfg, t_max=args.tmax, snapshot_times=())
    if args.cfl is not None:
        cfg = replace(cfg, cfl=args.cfl)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.strict:
        cfg = replace(cfg, strict=True)
    if args.normalize_kernel:
        cfg = replace(cfg, normalize_kernel=True)
    return cfg


# ---------------------------------------------------------------------------
# snapshot output


def _snapshot_name(pop: int, t: float) -> str:
    return f"pop{pop}_t{t:.3f}.csv"


def _check_snapshot_names(model: ModelSpec) -> None:
    """Reject distinct output times that would write the same file."""
    seen = {}
    for t in sorted({float(s) for s in model.snapshot_times} | {model.t_max}):
        name = _snapshot_name(1, t)
        if name in seen:
            raise ConfigurationError(
                f"snapshot times {seen[name]!r} and {t!r} would both be "
                f"written as {name} (names keep 3 decimals)")
        seen[name] = t


def write_snapshot(state: PopulationField, t: float, out_dir: str) -> list[str]:
    """One CSV per population: header names, header values, then ny rows
    of nx densities (row j = y index ascending).  Deterministic bytes."""
    g = state.grid
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i in range(state.n):
        path = os.path.join(out_dir, _snapshot_name(i + 1, t))
        try:
            with open(path, "w", newline="\n") as fh:
                fh.write("nx,ny,x0,y0,dx,dy,t\n")
                fh.write(",".join([str(g.nx), str(g.ny), _fmt(g.x0),
                                   _fmt(g.y0), _fmt(g.dx), _fmt(g.dy),
                                   _fmt(t)]) + "\n")
                for j in range(g.ny):
                    fh.write(",".join(_fmt(v) for v in state.data[i, :, j]))
                    fh.write("\n")
        except OSError as exc:
            raise ConfigurationError(f"cannot write snapshot {path}: {exc}")
        paths.append(path)
    return paths


def read_snapshot(path: str) -> tuple[np.ndarray, dict]:
    """Read one snapshot CSV back; returns (nx, ny) array and metadata."""
    try:
        with open(path) as fh:
            names = fh.readline().strip().split(",")
            values = fh.readline().strip().split(",")
            meta = dict(zip(names, values))
            nx, ny = int(meta["nx"]), int(meta["ny"])
            rows = [list(map(float, fh.readline().strip().split(",")))
                    for _ in range(ny)]
    except OSError as exc:
        raise ConfigurationError(f"cannot read snapshot {path}: {exc}")
    data = np.array(rows).T  # rows are y slices; store x-major
    if data.shape != (nx, ny):
        raise ConfigurationError(f"snapshot {path} has inconsistent shape")
    meta = {k: (int(v) if k in ("nx", "ny") else float(v))
            for k, v in meta.items()}
    return data, meta


# ---------------------------------------------------------------------------
# subcommands


def _cmd_run(args, with_bounds: bool) -> int:
    cfg = load_config(args)
    model, datum = cfg.build()
    _check_snapshot_names(model)
    os.makedirs(cfg.out_dir, exist_ok=True)
    inputs = bound_inputs_for(model, datum)

    diag_path = os.path.join(cfg.out_dir, "diagnostics.csv")
    header = ["t", "dt"]
    for i in range(model.n):
        header += [f"mass_{i + 1}", f"linf_{i + 1}", f"tv_{i + 1}",
                   f"tv_bound_{i + 1}", f"escaped_{i + 1}"]
    state_tracker = {"grad_v_sup": 0.0, "escaped": np.zeros(model.n),
                     "steps": 0}
    bound_rows = []

    def tv_bounds_at(t: float) -> list[float]:
        vals = []
        for bi in inputs:
            bi.grad_v_sup = state_tracker["grad_v_sup"]
            if model.family == DEVIATION:
                vals.append(tv_bound_deviation(t, bi))
            else:
                vals.append(analysis.bounds_differentiable(t, bi)[1])
        return vals

    with open(diag_path, "w", newline="\n") as diag:
        diag.write(",".join(header) + "\n")

        def write_diag(t, dt, state, escaped):
            rec = norms(state)
            tvb = tv_bounds_at(t)
            row = [_fmt(t), _fmt(dt)]
            for i in range(model.n):
                row += [_fmt(rec.l1[i]), _fmt(rec.linf[i]), _fmt(rec.tv[i]),
                        _fmt(tvb[i]), _fmt(escaped[i])]
            diag.write(",".join(row) + "\n")

        def on_step(report, state, W):
            state_tracker["grad_v_sup"] = max(
                state_tracker["grad_v_sup"], sup_gradient(W, model.grid))
            state_tracker["escaped"] = state_tracker["escaped"] + report.outflow
            state_tracker["steps"] += 1
            if state_tracker["steps"] % cfg.diag_every == 0:
                write_diag(report.t, report.dt, state,
                           state_tracker["escaped"])

        def on_snapshot(t, state):
            write_snapshot(state, t, cfg.out_dir)
            if with_bounds:
                rec = norms(state)
                tvb = tv_bounds_at(t)
                for i in range(model.n):
                    meas = float(rec.tv[i])
                    slack = tvb[i] / meas if meas > 0 else math.inf
                    bound_rows.append((t, i + 1, meas, tvb[i], slack,
                                       float(rec.linf[i]),
                                       model.R if model.family == DEVIATION
                                       else analysis.bounds_differentiable(
                                           t, inputs[i])[0]))

        write_diag(0.0, 0.0, datum, np.zeros(model.n))
        result = run(model, datum, on_snapshot=on_snapshot, on_step=on_step)
        write_diag(model.t_max, result.reports[-1].dt if result.reports else 0.0,
                   result.state, result.escaped)

    total0 = float(datum.mass().sum())
    total1 = float(result.state.mass().sum() + result.escaped.sum())
    print(f"final t = {model.t_max:g}, steps = {len(result.reports)}")
    print(f"mass: initial {total0:.12g}, final+escaped {total1:.12g}")
    if with_bounds:
        bpath = os.path.join(cfg.out_dir, "bounds.csv")
        with open(bpath, "w", newline="\n") as fh:
            fh.write("t,population,tv,tv_bound,slack,linf,linf_bound\n")
            for row in bound_rows:
                fh.write(",".join([_fmt(row[0]), str(row[1])]
                                  + [_fmt(v) for v in row[2:]]) + "\n")
        violated = [r for r in bound_rows
                    if np.isfinite(r[3]) and r[2] > r[3] * (1 + 1e-12)]
        for t, i, meas, bound, *_ in violated:
            print(f"bound violation: population {i} at t={t:g}: "
                  f"TV {meas:.6g} > bound {bound:.6g}")
        if violated and cfg.strict:
            raise BoundViolationError("measured TV exceeded its envelope")
        print(f"bound report: {bpath}")
    return 0


def _cmd_gateaux(args) -> int:
    out_dir = args.out or "out"
    t_max = args.tmax if args.tmax is not None else 0.2
    mesh = args.mesh if args.mesh is not None else 1.0 / 64.0
    hs = [float(h) for h in args.hs.split(",") if h]
    if not hs or any(h <= 0 for h in hs):
        raise ConfigurationError("perturbation sizes must be positive")
    model, rho0, sigma0 = gateaux_benchmark(mesh, t_max)
    base = run(model, rho0, record=True).trajectory
    rows = []
    print(f"{'h':>10} {'r(h)':>14} {'r(h)/h':>14}")
    for h in hs:
        r = gateaux_residual(model, rho0, sigma0, t_max, h, base_traj=base)
        rows.append((h, r, r / h))
        print(f"{h:10.4g} {r:14.6e} {r / h:14.6e}")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "gateaux.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("h,residual,residual_over_h\n")
        for h, r, ratio in rows:
            fh.write(",".join(_fmt(v) for v in (h, r, ratio)) + "\n")
    print(f"residual table: {path}")
    return 0


def _cmd_stability(args) -> int:
    cfg = load_config(args)
    if cfg.family != DEVIATION:
        raise ConfigurationError("stability compares deviation-family runs")
    model, datum1 = cfg.build()
    mass1 = float(np.abs(datum1.data[0]).sum()) * model.grid.cell_area
    if args.perturb < 0:
        raise ConfigurationError("perturbation size must be nonnegative")
    if args.perturb > 0 and mass1 <= 0:
        raise ConfigurationError("population 1 datum is empty; nothing to "
                                 "perturb")
    # shrink population 1 so the datum stays within [0, R]
    shrink = args.perturb / mass1 if mass1 > 0 else 0.0
    if shrink > 1:
        raise ConfigurationError("perturbation larger than the datum mass")
    data2 = datum1.data.copy()
    data2[0] *= (1.0 - shrink)
    datum2 = PopulationField(model.grid, data2)

    times = sorted(set([0.0] + [float(t) for t in model.snapshot_times]
                       + [model.t_max]))
    model = replace(model, snapshot_times=tuple(times))
    states1, states2 = {}, {}
    run(model, datum1, on_snapshot=lambda t, s: states1.setdefault(t, s.copy()))
    run(model, datum2, on_snapshot=lambda t, s: states2.setdefault(t, s.copy()))

    inputs = bound_inputs_for(model, datum1)
    inputs2 = bound_inputs_for(model, datum2)
    # both runs share every model parameter; only the datum differs
    agg1 = aggregate_inputs(inputs)
    agg2 = aggregate_inputs(inputs2)
    agg1.grad_v_sup = max(
        sup_gradient(advection_field(d, model), model.grid)
        for d in (datum1, datum2))
    drho0 = float(np.abs(datum1.data - datum2.data).sum()) * model.grid.cell_area
    deltas = ParameterDeltas(drho0_l1=drho0)

    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "stability.csv")
    print(f"{'t':>8} {'measured L1':>14} {'bound':>14} {'log bound':>12}")
    with open(path, "w", newline="\n") as fh:
        fh.write("t,measured_l1,bound,log_bound\n")
        for t in times:
            s1, s2 = states1[t], states2[t]
            dist = float(np.abs(s1.data - s2.data).sum()) * model.grid.cell_area
            sb = stability_bound_deviation(t, agg1, agg2, deltas)
            fh.write(",".join(_fmt(v) for v in (t, dist, sb.value,
                                                sb.log_value)) + "\n")
            print(f"{t:8.3f} {dist:14.6e} {sb.value:14.6e} {sb.log_value:12.4f}")
    print(f"stability table: {path}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args, with_bounds=False)
        if args.command == "bounds":
            return _cmd_run(args, with_bounds=True)
        if args.command == "gateaux":
            return _cmd_gateaux(args)
        if args.command == "stability":
            return _cmd_stability(args)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except BoundViolationError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
