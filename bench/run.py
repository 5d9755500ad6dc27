"""crowdflow benchmark: the CLI in a closed loop, one invocation at a time.

python3 bench/run.py --workload crossing-fine --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Every invocation is a fresh
Python process running the checkout's `crowdflow` CLI, as a user runs it,
with the BLAS thread count capped at the number of usable cores.  Each
invocation's outputs are checked against the acceptance tolerances.

--trace 0 reports the end-to-end metrics: median wall time per
invocation, median set-up time (import, configuration, model and datum in
a fresh process) and median peak RSS.  --trace 1 reports per-layer
metrics instead: for every span, calls, self time and share of the
traced wall time, from invocations whose public crowdflow functions are
wrapped from outside (bench/child.py), plus warm micro-timings of single
calls, also with one BLAS thread.  A human-readable report precedes the
last line of standard output, which is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # keep bench/ free of bytecode
from workloads import WORKLOADS, Workload, check_outputs, cli_args

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_CLI = "from crowdflow.cli import entry; entry()"  # the console script
SETUP_REPEATS = 5
MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 120.0

# Per-layer spans, reported on every workload (0 where a layer does no
# work).  Names are <module>.<function> as defined in src/crowdflow.
SPANS = (
    "kernel.convolve_gradient", "nonlocal_ops.gradient_avoidance",
    "nonlocal_ops.saturate", "kernel.convolve",
    "velocity.smoothed_total_density", "linearized.solve_linearized",
    "linearized.gateaux_residual", "solver.advection_field", "solver.cfl_dt",
    "solver.split_step", "solver.run", "cli.write_snapshot", "grid.norms",
    "analysis.tv_bound_deviation", "analysis.sup_gradient",
    "cli.bound_inputs_for", "nonlocal_ops.estimate_ci",
    "analysis.kernel_norms", "analysis.direction_norms",
    "config.RunConfig.build", "kernel.sample_kernel")


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def child_env(threads: int | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    n = str(threads or len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    return env


def spawn(argv: list[str], env: dict,
          log_path: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def child_json(argv: list[str], env: dict, log_path: Path) -> dict:
    code, _, _ = spawn(argv, env, log_path)
    text = log_path.read_text()
    if code != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {code}:\n{text}")
    return json.loads(text.strip().splitlines()[-1])


class Runner:
    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.seed, self.work = w, seed, work
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, index: int, traced: bool) -> dict | None:
        """One checked CLI invocation; None when it failed."""
        out = self.work / f"inv{self.attempted}"
        args = cli_args(self.w, self.seed, index, str(out))
        spans_path = out / "spans.json"
        if traced:
            argv = [sys.executable, str(CHILD), "trace", str(spans_path),
                    *args]
        else:
            argv = [sys.executable, "-c", RUN_CLI, *args]
        self.attempted += 1
        code, wall, rss = spawn(argv, self.env, self.work / "log.txt")
        log = (self.work / "log.txt").read_text()
        problems = [f"exit code {code}"] if code != 0 else []
        cell_steps = 0
        if not problems:
            try:
                found, cell_steps = check_outputs(self.w, log, str(out))
            except Exception as exc:  # unreadable output counts as failed
                found = [f"output check raised {exc!r}"]
            problems += found
        spans = json.loads(spans_path.read_text()) if traced and not problems \
            else None
        shutil.rmtree(out)
        if problems:
            self.failures.append(f"invocation {index}: " + "; ".join(problems)
                                 + "\n" + log[-2000:])
            return None
        return {"wall": wall, "rss": rss, "cell_steps": cell_steps,
                "spans": spans}

    def setup_times(self) -> tuple[list[float], dict]:
        out = self.work / "setup"
        args = cli_args(self.w, self.seed, 0, str(out))
        times, machine = [], {}
        for _ in range(SETUP_REPEATS):
            rec = child_json([sys.executable, str(CHILD), "setup", *args],
                             self.env, self.work / "setup.txt")
            times.append(rec["setup_s"])
            machine = rec["machine"]
        shutil.rmtree(out)
        return times, machine


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine, where Linux has them."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
        return ticks[7], sum(ticks)
    except (OSError, IndexError, ValueError):
        return None


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def end_to_end(r: Runner, seconds: float) -> tuple[dict, list[str]]:
    deadline = time.perf_counter() + seconds
    setups, machine = r.setup_times()
    if machine["blas_threads"] is not None and \
            machine["blas_threads"] > machine["nproc"]:
        raise BenchError(f"BLAS runs {machine['blas_threads']} threads on "
                         f"{machine['nproc']} cores")
    # The first invocation of a run is checked but not timed: it is
    # slower while the machine backs freshly touched memory.
    r.invoke(0, traced=False)
    runs = []
    while r.attempted <= MIN_INVOCATIONS or runs and time.perf_counter() \
            + statistics.median(x["wall"] for x in runs) < deadline:
        res = r.invoke(r.attempted, traced=False)
        if res is not None:
            runs.append(res)
    if not runs:
        raise BenchError("every invocation failed:\n" + "\n".join(r.failures))
    walls = [x["wall"] for x in runs]
    q1, wall, q3 = quartiles(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(x["rss"] for x in runs), "MB"),
    }
    report = [f"machine: {json.dumps(machine)}",
              f"wall_s: median {wall:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s,"
              f" n = {len(walls)}: " + " ".join(f"{x:.3f}" for x in walls),
              f"setup_s: median {metrics['setup_s'][0]:.4f} s of "
              f"{len(setups)} (quartiles {quartiles(setups)[0]:.4f} .. "
              f"{quartiles(setups)[2]:.4f} s)",
              f"peak_rss_mb: median {metrics['peak_rss_mb'][0]:.1f} MB"]
    if r.w.deviation:
        rate = statistics.median(x["cell_steps"] / x["wall"] for x in runs)
        report.append(f"cell_steps_per_s: median {rate:.4g} 1/s "
                      f"(populations x nx x ny x steps / wall)")
    else:
        report.append("cell_steps_per_s: not defined (gateaux prints no "
                      "step count)")
    return metrics, report


def layer_profile(spans: list[list]) -> tuple[dict, dict]:
    """Per span name: (calls, self seconds)."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for (name, start, end, _), inner in zip(spans, child_time):
        calls[name] += 1
        self_s[name] += end - start - inner
    return calls, self_s


def resolve(span: str, wrapped: set[str]) -> str | None:
    """The wrapped name that measures `span`: the same name, or else the
    one function with the same qualified name in another module (a
    binding that moved)."""
    if span in wrapped:
        return span
    qual = span.split(".", 1)[1]
    moved = [n for n in wrapped if n.split(".", 1)[1] == qual]
    return moved[0] if len(moved) == 1 else None


def per_layer(r: Runner, seconds: float) -> tuple[dict, list[str]]:
    deadline = time.perf_counter() + seconds / 2
    plain, traced = [], []
    # The same input each time, so span counts repeat exactly.  The first
    # invocation warms the machine up and is not timed; the order within
    # a pair alternates so that drift in machine speed cancels.
    if r.invoke(0, traced=False) is not None:
        while not traced or time.perf_counter() + plain[-1]["wall"] \
                + traced[-1]["wall"] < deadline:
            first = len(traced) % 2 == 1
            a = r.invoke(0, traced=first)
            b = r.invoke(0, traced=not first)
            if a is None or b is None:
                break
            plain.append(b if first else a)
            traced.append(a if first else b)
    if r.failures:
        raise BenchError("traced run failed:\n" + "\n".join(r.failures))
    wall_plain = statistics.median(x["wall"] for x in plain)
    wall_traced = statistics.median(x["wall"] for x in traced)
    wrapped = set(traced[0]["spans"]["wrapped"])
    profiles = [layer_profile(x["spans"]["spans"]) for x in traced]

    metrics: dict[str, tuple[float, str]] = {}
    report = []
    for span in SPANS:
        name = resolve(span, wrapped)
        calls = statistics.median(c.get(name, 0) for c, _ in profiles)
        self_s = statistics.median(s.get(name, 0.0) for _, s in profiles)
        if span in r.w.expected_spans and not calls:
            raise BenchError(f"expected span {span} recorded no calls on "
                             f"{r.w.name}" + ("" if name else
                                              " (no public function by "
                                              "that name)"))
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.self_s"] = (self_s, "s")
        metrics[f"{span}.share"] = (self_s / wall_traced, "share")
    metrics["trace.overhead_share"] = (wall_traced / wall_plain - 1.0, "share")

    names = set().union(*(s for _, s in profiles))
    top = sorted(((statistics.median(s.get(n, 0.0) for _, s in profiles), n)
                  for n in names), reverse=True)
    report.append(f"traced wall {wall_traced:.4f} s vs untraced "
                  f"{wall_plain:.4f} s over {len(traced)} pair(s); "
                  f"top self time:")
    report += [f"  {n:<40} {s:9.4f} s  {s / wall_traced:6.1%}"
               for s, n in top[:8]]

    micro, micro_report = micro_timings(r)
    metrics.update(micro)
    return metrics, report + micro_report


MICRO_UNITS = {"ms": "ms", "gflop": "GFLOP.computed", "gflops": "GFLOP/s",
               "mb": "MB", "mb_per_s": "MB/s"}


def micro_timings(r: Runner) -> tuple[dict, list[str]]:
    metrics, report = {}, []
    out = r.work / "micro"
    out.mkdir()
    for threads in (None, 1):
        rec = child_json([sys.executable, str(CHILD), "micro", str(out)],
                         child_env(threads), r.work / "micro.txt")
        want = threads or rec["machine"]["nproc"]
        got = rec["machine"]["blas_threads"]
        if got is not None and got != want:
            raise BenchError(f"micro-timings asked for {want} BLAS threads, "
                             f"got {got}")
        if rec["unsteady"]:
            report.append(f"not steady within the time limit: "
                          f"{', '.join(rec['unsteady'])}")
        for name, value in rec["metrics"].items():
            # <module>.<function>.<quantity>.<size>[.1t]
            metrics[name] = (value, MICRO_UNITS[name.split(".")[2]])
        if threads is None:
            report.append(f"machine: {json.dumps(rec['machine'])}")
        report.append(f"micro ({got} BLAS thread(s)): " + ", ".join(
            f"{n} {v:.4g}" for n, v in rec["metrics"].items()))
    shutil.rmtree(out)
    return metrics, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind through spawn(), which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "crowdflow" / "cli.py").is_file():
        print(f"no crowdflow sources under {SRC}", file=sys.stderr)
        return 2
    # The parent reads snapshots with crowdflow.cli.read_snapshot; it
    # needs no BLAS threads of its own.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    import compileall
    if not compileall.compile_dir(str(SRC / "crowdflow"), quiet=2):
        print("crowdflow sources do not compile", file=sys.stderr)
        return 2

    ticks0 = cpu_ticks()
    w = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        r = Runner(w, args.seed, work)
        if args.trace:
            metrics, report = per_layer(r, args.seconds)
        else:
            metrics, report = end_to_end(r, args.seconds)
    except BenchError as exc:
        print(f"benchmark error on {w.name}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    failed = len(r.failures)
    print(f"workload {w.name} (seed {args.seed}"
          + (", built-in datum: the seed does not apply" if not w.deviation
             else "") + f"): {w.why}")
    print(f"failed_share: {failed}/{r.attempted} = "
          f"{failed / r.attempted:.4g} share")
    for line in r.failures:
        print(f"FAILED {line}")
    for line in report:
        print(line)
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # time the hypervisor gave to other guests; it inflates wall times
        print(f"steal: {(ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]):.1%}"
              f" of machine CPU time during the run")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": r.attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
