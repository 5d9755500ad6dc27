"""Command-line front end: run, bounds, gateaux, stability.

Exit codes: 0 success, 1 configuration error (or any other package
error, such as a forked worker that ended without a reply), 2 numeric
error, 3 bound or invariant violation in strict mode.  All CSV output
is written with 17 significant digits and fixed row order so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .analysis import diagnostics_header, run_tables, stability_table
from .config import RunConfig, parse_config, preset
from .errors import (BoundViolationError, ConfigurationError, CrowdflowError,
                     NumericError)
from .grid import PopulationField
from .linearized import check_steps, gateaux_benchmark, gateaux_residual
from .solver import DEVIATION, ModelSpec, check_datum, output_times

def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep our codes
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="crowdflow",
                description="Finite-volume solver for nonlocal multi-"
                            "population crowd models")
    sub = p.add_subparsers(dest="command", required=True)

    def shared(sp):  # every command reads these
        sp.add_argument("--mesh", type=float, help="override cell size")
        sp.add_argument("--tmax", type=float, help="override final time")
        sp.add_argument("--out", help="output directory")

    def common(sp):  # the commands that run a configured model
        shared(sp)
        sp.add_argument("--preset", choices=("crossing", "evacuation"))
        sp.add_argument("--config", help="INI configuration file")
        sp.add_argument("--cfl", type=float, help="override CFL number")
        sp.add_argument("--strict", action="store_true",
                        help="abort when the deviation family's maximum "
                             "principle or, under bounds, an envelope is "
                             "violated")
        sp.add_argument("--normalize-kernel", action="store_true",
                        help="rescale the kernel to unit mass")

    common(sub.add_parser("run", help="simulate and write snapshots"))
    common(sub.add_parser("bounds", help="simulate and verify the deviation "
                                         "family's a-priori bounds"))
    g = sub.add_parser("gateaux",
                       help="directional-derivative residual sweep on a "
                            "built-in smooth benchmark")
    shared(g)
    g.set_defaults(mesh=1.0 / 64.0, tmax=0.2, out="out")
    g.add_argument("--hs", type=_float_list, default="0.2,0.1,0.05,0.025",
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
# output


def _write_rows(fh, rows) -> None:
    """Write one block as np.savetxt(fh, rows, fmt="%.17g", delimiter=",")
    does, byte for byte, one line at a time.

    A 1-D block is one value per line.  The runs of +0.0 (tested by bit
    pattern, so -0.0 still prints "-0") at either end of a row are
    written as cached "0"s, a row of all +0.0 as one cached line; only
    the span between them goes through "%.17g".
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    n = rows.shape[1]
    nonzero = rows.view(np.int64) != 0
    first = nonzero.argmax(axis=1).tolist()
    end = (n - nonzero[:, ::-1].argmax(axis=1)).tolist()
    # 2k chars of lead or trail are k zeros, 6k - 1 of fmt k formats
    lead, trail, fmt = "0," * n, ",0" * n, "%.17g," * n
    zero_line = trail[1:] + "\n"
    for row, any_, a, b in zip(rows, nonzero.any(axis=1).tolist(), first,
                               end):
        if not any_:
            fh.write(zero_line)
            continue
        fh.write(lead[:2 * a] + fmt[:6 * (b - a) - 1]
                 % tuple(row[a:b].tolist()) + trail[:2 * (n - b)] + "\n")


def _write_table(path: str, header: str, *blocks) -> None:
    """CSV file: the header line, then the rows of each block, every value
    as "%.17g" (an integral value prints as an integer).  Deterministic."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(header + "\n")
            for rows in blocks:
                _write_rows(fh, rows)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}")


def _make_out_dir(path: str) -> str:
    """Create the output directory (and its parents) if it is missing."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {path}: "
                                 f"{exc}")
    return path


_SNAPSHOT_HEADER = "nx,ny,x0,y0,dx,dy,t"


def _snapshot_name(pop: int, t: float) -> str:
    return f"pop{pop}_t{t:.3f}.csv"


def _check_snapshot_names(model: ModelSpec) -> None:
    """Reject distinct output times that would write the same file."""
    seen = {}
    for t in output_times(model.snapshot_times, model.t_max):
        name = _snapshot_name(1, t)
        if name in seen:
            raise ConfigurationError(
                f"snapshot times {seen[name]!r} and {t!r} would both be "
                f"written as {name} (names keep 3 decimals)")
        seen[name] = t


def write_snapshot(state: PopulationField, t: float,
                   out_dir: str) -> list[str]:
    """One CSV per population: header names, header values, then ny rows
    of nx densities (row j = y index ascending).  Deterministic bytes.
    Population i of state is written as population state.first + i.
    Returns every population's path.
    """
    g = state.grid
    _make_out_dir(out_dir)
    meta = [[g.nx, g.ny, g.x0, g.y0, g.dx, g.dy, t]]
    paths = [os.path.join(out_dir, _snapshot_name(state.first + i + 1, t))
             for i in range(state.n)]
    for path, data in zip(paths, state.data):
        _write_table(path, _SNAPSHOT_HEADER, meta, data.T)
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
        data = np.array(rows).T  # rows are y slices; store x-major
        meta = {k: (int(v) if k in ("nx", "ny") else float(v))
                for k, v in meta.items()}
    except OSError as exc:
        raise ConfigurationError(f"cannot read snapshot {path}: {exc}")
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"malformed snapshot {path}: {exc!r}")
    if data.shape != (nx, ny):
        raise ConfigurationError(f"snapshot {path} has inconsistent shape")
    return data, meta


# ---------------------------------------------------------------------------
# subcommands


def _cmd_run(args, with_bounds: bool) -> int:
    cfg = load_config(args)
    deviation = cfg.family == DEVIATION
    if with_bounds and not deviation:
        raise ConfigurationError(
            "bounds checks the deviation family's envelopes; the "
            "differentiable family's estimates are not evaluated")
    if cfg.strict and not deviation:
        raise ConfigurationError(
            "strict mode of run checks the deviation family's maximum "
            "principle; a differentiable run has none to check")
    model, datum = cfg.build()
    check_datum(model, datum)  # before any output or envelope input
    _check_snapshot_names(model)
    _make_out_dir(cfg.out_dir)
    diag_rows = []
    try:
        result, bound_rows = run_tables(
            model, datum, cfg.diag_every, with_bounds,
            lambda t, s: write_snapshot(s, t, cfg.out_dir), diag_rows)
    finally:  # a failed run still leaves the rows it reached
        _write_table(os.path.join(cfg.out_dir, "diagnostics.csv"),
                     diagnostics_header(model), diag_rows)

    total0 = float(datum.mass().sum())
    total1 = float(result.state.mass().sum() + result.escaped.sum())
    print(f"final t = {model.t_max:g}, steps = {len(result.reports)}")
    print(f"mass: initial {total0:.12g}, final+escaped {total1:.12g}")
    if with_bounds:
        bpath = os.path.join(cfg.out_dir, "bounds.csv")
        _write_table(bpath, "t,population,tv,tv_bound,slack,linf,linf_bound",
                     bound_rows)
        # a NaN envelope dominates nothing: it counts as a violation
        violated = [r for r in bound_rows if not r[2] <= r[3] * (1 + 1e-12)]
        for t, i, meas, bound, *_ in violated:
            print(f"bound violation: population {i} at t={t:g}: "
                  f"TV {meas:.6g} > bound {bound:.6g}")
        if violated and cfg.strict:
            raise BoundViolationError("measured TV exceeded its envelope")
        print(f"bound report: {bpath}")
    return 0


def _cmd_gateaux(args) -> int:
    check_steps(args.hs)  # before the output directory is made
    model, rho0, sigma0 = gateaux_benchmark(args.mesh, args.tmax)
    path = os.path.join(_make_out_dir(args.out), "gateaux.csv")
    rs = gateaux_residual(model, rho0, sigma0, args.tmax, args.hs)
    rows = [(h, r, r / h) for h, r in zip(args.hs, rs)]
    print(f"{'h':>10} {'r(h)':>14} {'r(h)/h':>14}")
    for h, r, ratio in rows:
        print(f"{h:10.4g} {r:14.6e} {ratio:14.6e}")
    _write_table(path, "h,residual,residual_over_h", rows)
    print(f"residual table: {path}")
    return 0


def _cmd_stability(args) -> int:
    cfg = load_config(args)
    if cfg.family != DEVIATION:
        raise ConfigurationError("stability compares deviation-family runs")
    if not 0 <= args.perturb < math.inf:
        raise ConfigurationError(
            "perturbation size must be nonnegative and finite")
    model, datum1 = cfg.build()
    check_datum(model, datum1)  # datum2 only shrinks population 1
    mass1 = float(np.abs(datum1.data[0]).sum()) * model.grid.cell_area
    if args.perturb > 0 and mass1 <= 0:
        raise ConfigurationError("population 1 datum is empty; nothing to "
                                 "perturb")
    # shrink population 1 so the datum stays within [0, R]
    shrink = args.perturb / mass1 if mass1 > 0 else 0.0
    if shrink > 1:
        raise ConfigurationError("perturbation larger than the datum mass")
    data2 = datum1.data.copy()
    data2[0] *= (1.0 - shrink)
    path = os.path.join(_make_out_dir(cfg.out_dir), "stability.csv")
    table = stability_table(model, datum1, PopulationField(model.grid, data2))
    print(f"{'t':>8} {'measured L1':>14} {'bound':>14} {'log bound':>12}")
    for t, dist, sb in table:
        print(f"{t:8.3f} {dist:14.6e} {sb.value:14.6e} {sb.log_value:12.4f}")
    _write_table(path, "t,measured_l1,bound,log_bound",
                 [(t, dist, sb.value, sb.log_value) for t, dist, sb in table])
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
    except CrowdflowError as exc:  # e.g. a worker that ended without a reply
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
