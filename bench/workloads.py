"""The benchmark's workloads: command lines, seeded inputs, output checks.

Each workload is one `crowdflow` subcommand on one kind of input.  The
deviation workloads get a fresh INI per invocation, generated from the
workload seed and the invocation index; the CLI receives only that file.
`gateaux-fine` runs the command's built-in datum, so the seed does not
change its input.
"""

from __future__ import annotations

import math
import os
import random
import re
from dataclasses import dataclass

# Acceptance tolerances of the program (criteria 1, 2, 5 and 7).
MASS_REL_TOL = 1e-10
MAX_PRINCIPLE_TOL = 1e-6
GATEAUX_HALVING_RATIO = 0.6

R = 1.0
ROOM = (-8.0, -3.0, 8.0, 3.0)      # room of both presets
VALUE_JITTER = 0.1                 # datum value +- this, clipped to [0, R]
CORNER_JITTER = 0.4                # each block corner +- this

# Span sets every traced invocation of a workload must hit at least once.
_SOLVER = ("solver.advection_field", "solver.cfl_dt", "solver.split_step",
           "solver.run")
_DEVIATION_SPANS = _SOLVER + (
    "kernel.convolve_gradient", "nonlocal_ops.gradient_avoidance",
    "nonlocal_ops.saturate", "cli.write_snapshot", "grid.norms",
    "analysis.tv_bound_deviation", "analysis.sup_gradient",
    "cli.bound_inputs_for", "nonlocal_ops.estimate_ci",
    "analysis.kernel_norms", "analysis.direction_norms",
    "config.RunConfig.build", "kernel.sample_kernel")
_GATEAUX_SPANS = _SOLVER + (
    "kernel.convolve", "velocity.smoothed_total_density",
    "linearized.solve_linearized", "linearized.gateaux_residual",
    "kernel.sample_kernel")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                      # crowdflow subcommand
    expected_spans: tuple[str, ...]
    # deviation workloads only: INI body around the jittered data
    preset: str = ""
    tmax: float = 0.0
    snapshot_times: tuple[float, ...] = ()
    blocks: tuple[tuple[float, tuple[float, float, float, float]], ...] = ()
    extra_ini: str = ""

    @property
    def deviation(self) -> bool:
        return bool(self.preset)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="crossing-fine",
        why="crossing preset at its mesh 0.025 (640x320): four gradient-"
            "avoidance calls a step, so dense convolve_gradient dominates",
        command="run", expected_spans=_DEVIATION_SPANS,
        preset="crossing", tmax=0.1, snapshot_times=(0.0, 0.1),
        blocks=((0.9, (-6.4, -2.4, -3.2, 2.4)),
                (0.7, (3.2, -2.4, 6.4, 2.4)))),
    Workload(
        name="evacuation-io",
        why="bounds on evacuation at mesh 0.05 (320x160), 13 snapshots and "
            "diagnostics every step: snapshot I/O, no duplicated gradient",
        command="bounds", expected_spans=_DEVIATION_SPANS,
        preset="evacuation", tmax=0.6,
        snapshot_times=tuple(round(0.05 * i, 2) for i in range(13)),
        blocks=((0.5, (-6.4, -2.4, -3.2, 2.4)),
                (0.5, (-6.4, -2.4, -3.2, 2.4))),
        extra_ini="[grid]\nmesh = 0.05\n"),
    Workload(
        name="gateaux-fine",
        why="gateaux at mesh 1/256 (256x256): the only differentiable-family "
            "and linearized work, dense convolve, trajectory memory",
        command="gateaux", expected_spans=_GATEAUX_SPANS),
)}


def _jittered_blocks(w: Workload, rng: random.Random) -> list[str]:
    rx0, ry0, rx1, ry1 = ROOM
    lines = []
    for i, (value, rect) in enumerate(w.blocks):
        v = min(max(value + rng.uniform(-VALUE_JITTER, VALUE_JITTER), 0.0), R)
        x0, y0, x1, y1 = (c + rng.uniform(-CORNER_JITTER, CORNER_JITTER)
                          for c in rect)
        if not (rx0 <= x0 < x1 <= rx1 and ry0 <= y0 < y1 <= ry1):
            raise ValueError(f"jittered block {i + 1} leaves the room")
        lines.append(f"[population.{i + 1}]\n"
                     f"datum = {v:.6f} {x0:.6f} {y0:.6f} {x1:.6f} {y1:.6f}\n")
    return lines


def cli_args(w: Workload, seed: int, index: int, out_dir: str) -> list[str]:
    """Arguments after `crowdflow` for invocation `index` of a run.

    Writes the generated INI into out_dir; the command writes its own
    output files there as well.
    """
    os.makedirs(out_dir, exist_ok=True)
    if not w.deviation:
        return [w.command, "--mesh", "0.00390625", "--out", out_dir]
    rng = random.Random(seed * 1_000_003 + index)
    snaps = ", ".join(f"{t:g}" for t in w.snapshot_times)
    ini = (f"[model]\npreset = {w.preset}\ntmax = {w.tmax:g}\nr = {R:g}\n"
           f"snapshot_times = {snaps}\n"
           + w.extra_ini + "".join(_jittered_blocks(w, rng))
           + f"[output]\ndir = {out_dir}\n"
           + ("diag_every = 1\n" if w.command == "bounds" else ""))
    path = os.path.join(out_dir, "input.ini")
    with open(path, "w") as fh:
        fh.write(ini)
    return [w.command, "--config", path]


def check_outputs(w: Workload, log: str,
                  out_dir: str) -> tuple[list[str], int]:
    """Acceptance checks on one finished invocation.

    Returns (problems, cell_steps), where cell_steps is populations x nx
    x ny x steps for the deviation workloads and 0 for gateaux-fine,
    which prints no step count.
    """
    if not w.deviation:
        return _check_gateaux(os.path.join(out_dir, "gateaux.csv")), 0
    from crowdflow.cli import read_snapshot

    problems = []
    mass = re.search(r"^mass: initial (\S+), final\+escaped (\S+)$", log, re.M)
    steps = re.search(r"^final t = \S+, steps = (\d+)$", log, re.M)
    if mass is None or steps is None:
        return ["missing 'mass:' or 'steps =' line"], 0
    m0, m1 = float(mass.group(1)), float(mass.group(2))
    if not abs(m0 - m1) <= MASS_REL_TOL * m0:
        problems.append(f"mass identity: initial {m0!r}, final+escaped {m1!r}")
    cells = 0
    t_final = max(w.snapshot_times)
    for i in range(len(w.blocks)):
        path = os.path.join(out_dir, f"pop{i + 1}_t{t_final:.3f}.csv")
        if not os.path.exists(path):
            problems.append(f"missing final snapshot {os.path.basename(path)}")
            continue
        data, meta = read_snapshot(path)
        lo, hi = float(data.min()), float(data.max())
        if not (lo >= -MAX_PRINCIPLE_TOL and hi <= R + MAX_PRINCIPLE_TOL):
            problems.append(f"maximum principle: population {i + 1} in "
                            f"[{lo!r}, {hi!r}]")
        cells += meta["nx"] * meta["ny"]
    if w.command == "bounds":
        problems += _check_bounds(os.path.join(out_dir, "bounds.csv"))
    return problems, cells * int(steps.group(1))


def _rows(path: str) -> list[dict[str, float]]:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        return [dict(zip(names, map(float, line.split(","))))
                for line in fh if line.strip()]


def _check_bounds(path: str) -> list[str]:
    if not os.path.exists(path):
        return ["missing bounds.csv"]
    # a NaN envelope dominates nothing, so it fails too
    return [f"tv {r['tv']!r} > tv_bound {r['tv_bound']!r} at t={r['t']:g}, "
            f"population {int(r['population'])}"
            for r in _rows(path) if not r["tv"] <= r["tv_bound"]]


def _check_gateaux(path: str) -> list[str]:
    if not os.path.exists(path):
        return ["missing gateaux.csv"]
    rows = _rows(path)
    if len(rows) < 2:
        return [f"gateaux.csv has {len(rows)} rows"]
    problems = []
    for a, b in zip(rows, rows[1:]):
        if not b["residual_over_h"] < a["residual_over_h"]:
            problems.append(f"r(h)/h not decreasing at h={b['h']:g}")
        if not math.isclose(b["h"], a["h"] / 2):
            problems.append(f"h={b['h']:g} does not halve h={a['h']:g}")
        elif not b["residual"] <= GATEAUX_HALVING_RATIO * a["residual"]:
            problems.append(f"r(h/2)/r(h) > {GATEAUX_HALVING_RATIO} "
                            f"at h={b['h']:g}")
    return problems
