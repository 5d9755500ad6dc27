"""The populations of a deviation run stepped in several processes.

`analysis.run_tables` steps a model of n >= 2 populations with a
GradientAvoidance operator in P = min(n, usable CPUs) processes, each
owning a contiguous chunk of populations.  Every test compares with the
one-process run, taken with one usable CPU: the outputs, the errors and
their messages are the same, and no worker outlives the command.  The
byte identity of every output at 1, 2 and 3 CPUs, for 1, 2 and 3
populations, is tests/test_snapshot_writer.py's
test_outputs_do_not_depend_on_the_writer; `stability`, whose two runs
step through run_tables too, has test_stability_does_not_depend_on_the_cpus
and a case in each lifecycle test.
"""

import os
import signal
import subprocess
import sys
import time
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from crowdflow import (DEVIATION, GradientAvoidance, NumericError,
                       PopulationField, StepReport, analysis, cli, forked,
                       gradient_avoidance, parse_config, preset, run_tables,
                       solver)

from test_cli import DIFFERENTIABLE_INI
from test_linearized import assert_no_child_left, running
from test_snapshot_writer import (BLOCKS, CONFIGS, CROSSING, command, files,
                                  forks, populations_ini)  # noqa: F401


@pytest.fixture
def jobs(monkeypatch):
    """The name of the job of each worker the command starts."""
    started, init = [], forked.Worker.__init__

    def recorded(self, job, earlier):
        started.append(getattr(job, "func", job).__name__)
        init(self, job, earlier)

    monkeypatch.setattr(forked.Worker, "__init__", recorded)
    return started


def poisoned(monkeypatch, pops, k):
    """Make the k-th split_step of each process put NaN into the field of
    each population of pops (0-based) that its state holds: a
    NumericError of that population in that step."""
    step, calls = solver.split_step, []

    def wrapped(state, model, dt, W=None, faces=(None, None)):
        calls.append(1)
        if len(calls) == k:
            for p in pops:
                if state.first <= p < state.first + state.n:
                    W[p - state.first] = np.nan
        return step(state, model, dt, W, faces)

    monkeypatch.setattr(solver, "split_step", wrapped)


@pytest.mark.parametrize("verb, n, cpus, pops", [
    ("bounds", 2, 2, (1,)), ("bounds", 2, 2, (0, 1)),
    ("bounds", 3, 2, (2,)), ("bounds", 3, 3, (1, 2)),
    ("stability", 3, 3, (1, 2))],
    ids=["worker", "both", "uneven-worker", "two-workers", "stability"])
def test_numeric_error_is_the_one_process_error(tmp_path, monkeypatch,
                                                capsys, forks, verb, n, cpus,
                                                pops):
    # a NaN field in step 3 (of stability's first run): exit 2 with the
    # one-process message, which names the lowest failing population, and
    # the same files
    ini = tmp_path / "c.ini"
    ini.write_text(populations_ini(n))
    results = []
    for c in (1, cpus):
        poisoned(monkeypatch, pops, 3)
        out = tmp_path / str(c)
        code, stdout, err = command(monkeypatch, capsys, c, [
            verb, "--config", str(ini), "--out", str(out)])
        assert_no_child_left()
        results.append((code, stdout, err, files(out)))
    assert results[1] == results[0]
    code, stdout, err, _ = results[0]
    assert (code, stdout) == (2, "")
    assert err.startswith(f"numeric error: non-finite density in "
                          f"population {min(pops)} at cell")
    assert len(forks) == cpus - 1


@pytest.mark.parametrize("first, k", [(0, 3), (1, 2), (2, 1)])
def test_shared_rows_are_the_operator_rows(first, k):
    # three overlapping populations: the rows of populations first ...
    # first + k - 1, from gradients the other processes left in G, are
    # gradient_avoidance's bit for bit
    model, _ = preset("crossing").with_mesh(0.4).build()
    g, rng = model.grid, np.random.default_rng(5)
    data = np.zeros((3, g.nx, g.ny))
    data[:, 8:30, 3:17] = rng.random((3, 22, 14))
    state = PopulationField(g, data)
    op = GradientAvoidance(rng.random((3, 3)), model.deviation.kernel)
    G, boxes = np.zeros((3, 2, g.nx, g.ny)), []
    whole = gradient_avoidance(state, op.eps, op.kernel, G,
                               lambda b: boxes.append(b) or b)
    assert np.array_equal(whole, op(state))
    part = gradient_avoidance(PopulationField(g, data[first:first + k], first),
                              op.eps, op.kernel, G, lambda own: boxes[0])
    assert np.array_equal(part, whole[first:first + k])


def test_skipped_gradients_are_shared(tmp_path, monkeypatch, capsys,
                                      forks):
    # population 3 avoided by no one and population 2 empty: the boxes
    # shared for them are empty, and every output is the one-process run's
    ini = tmp_path / "c.ini"
    text = populations_ini(3)
    for row in ("0.3 0.7 0.2", "0.5 0.3 0.4", "0.1 0.6 0.3"):
        text = text.replace(f"eps = {row}", f"eps = {row[:-3]}0")
    ini.write_text(text.replace("datum = 0.7 3.2 -2.4 6.4 2.4\n", ""))
    out, results = tmp_path / "out", []
    for cpus in (1, 2, 3):
        results.append(command(monkeypatch, capsys, cpus, [
            "bounds", "--config", str(ini), "--out", str(out)])
            + (files(out),))
        assert_no_child_left()
        for path in out.iterdir():
            path.unlink()
    code, _, err, _ = results[0]
    assert (code, err) == (0, "") and len(forks) == 1 + 2
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("blocked, verb", [
    (blocked, verb) for verb in ("run", "bounds") for blocked in (
        "pop1_t0.100.csv", "pop2_t0.100.csv", "pop2_t0.300.csv")],
    ids=["caller", "worker", "worker-last",
         "caller-bounds", "worker-bounds", "worker-last-bounds"])
def test_write_error_in_a_stepping_process(tmp_path, monkeypatch, capsys,
                                           forks, blocked, verb):
    # a directory where a snapshot goes: the one-process message and
    # files, whichever process writes it, except that the worker's
    # snapshot of the time where the caller's failed is on disk, whole;
    # under bounds the snapshot's exchange also carries the bounds rows
    ini = tmp_path / "c.ini"
    ini.write_text(CROSSING)
    results = []
    for cpus in (1, 2, 1):
        out = tmp_path / str(len(results))
        if len(results) < 2:
            (out / blocked).mkdir(parents=True)
        code, stdout, err = command(monkeypatch, capsys, cpus, [
            verb, "--config", str(ini), "--out", str(out)])
        assert_no_child_left()
        results.append((code, stdout, err.replace(str(out), "OUT"),
                        files(out)))
    (code, stdout, err, one), (*split, two), (*_, whole) = results
    assert split == [code, stdout, err]
    assert (code, stdout) == (1, "")
    assert err.startswith(f"configuration error: cannot write OUT/{blocked}")
    extra = {"pop2_t0.100.csv"} if blocked == "pop1_t0.100.csv" else set()
    assert two == one | {name: whole[name] for name in extra}
    assert len(forks) == 1


def test_strict_violation_writes_no_later_snapshot(tmp_path, monkeypatch,
                                                   capsys, forks):
    # a range check that fails at t = 0.1: no process writes that
    # snapshot, as in one process
    ini = tmp_path / "c.ini"
    ini.write_text(CROSSING)
    check = solver.check_range

    def failing(model, report):
        check(replace(model, R=0.5 if report.t >= 0.1 - 1e-12 else model.R),
              report)

    monkeypatch.setattr(solver, "check_range", failing)
    monkeypatch.setattr(analysis, "check_range", failing)
    results = []
    for cpus in (1, 2):
        out = tmp_path / str(cpus)
        code, stdout, err = command(monkeypatch, capsys, cpus, [
            "run", "--strict", "--config", str(ini), "--out", str(out)])
        assert_no_child_left()
        results.append((code, stdout, err, files(out)))
    assert results[1] == results[0]
    code, _, err, written = results[0]
    assert code == 3 and err.startswith("bound violation: maximum principle")
    assert sorted(written) == ["diagnostics.csv", "pop1_t0.000.csv",
                               "pop2_t0.000.csv"]


def test_killed_worker_ends_the_command(tmp_path, monkeypatch, capsys,
                                        forks):
    # the worker is killed in its second step: of the run, and of
    # stability's first run
    step, calls = solver.split_step, []

    def killing(state, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2 and state.first > 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return step(state, *args, **kwargs)

    monkeypatch.setattr(solver, "split_step", killing)
    ini = tmp_path / "c.ini"
    ini.write_text(CROSSING)
    for verb in ("run", "stability"):
        calls.clear()
        code, stdout, err = command(monkeypatch, capsys, 2, [
            verb, "--config", str(ini), "--out", str(tmp_path / verb)])
        assert (code, stdout) == (1, "")
        assert err == ("error: forked worker ended with signal 9 and no "
                       "result\n")
        assert_no_child_left()
    assert len(forks) == 2


@pytest.mark.parametrize("outcome", ["ok", "numeric", "configuration"])
@pytest.mark.parametrize("before, cpus, during", [
    (2, 2, 1), (3, 4, 2), (1, 4, 1)], ids=["halved", "quad", "one"])
def test_blas_threads_set_and_restored(tmp_path, monkeypatch, capsys, forks,
                                       jobs, outcome, before, cpus, during):
    # two populations share min(2, cpus) processes, in bounds and in each
    # of stability's two runs: the caller steps on cpus // 2 BLAS threads
    # at most, and has its own count back after; a datum outside the room
    # stops the command before it steps or forks
    if forked._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread control: no process is forked")
    get, put = forked._openblas_threads()
    seen, step, original = [], solver.split_step, get()

    def watched(*args, **kwargs):
        seen.append(get())
        if outcome == "numeric":
            raise NumericError("stop")
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "split_step", watched)
    ini = tmp_path / "c.ini"
    ini.write_text(CROSSING if outcome != "configuration" else
                   populations_ini(2).replace(BLOCKS[0],
                                              "0.9 -6.4 3.2 -3.2 3.8"))
    for verb, runs in (("bounds", 1), ("stability", 2)):
        seen.clear()
        jobs.clear()
        put(before)
        try:
            code, _, _ = command(monkeypatch, capsys, cpus, [
                verb, "--config", str(ini), "--out", str(tmp_path / verb)])
        finally:
            after = get()
            put(original)
        assert code == {"ok": 0, "numeric": 2, "configuration": 1}[outcome]
        assert set(seen) == (set() if outcome == "configuration"
                             else {during})
        assert after == before
        assert jobs == {"ok": ["work"] * runs, "numeric": ["work"],
                        "configuration": []}[outcome]
        assert_no_child_left()


@pytest.mark.parametrize("name", ["crossing", "three"])
def test_stability_does_not_depend_on_the_cpus(tmp_path, monkeypatch, capsys,
                                               forks, name):
    # both runs of the pair are stepped in min(n, cpus) processes: the
    # table, stdout and stability.csv are the one-process command's
    ini = tmp_path / "c.ini"
    ini.write_text({"crossing": CROSSING, "three": populations_ini(3)}[name])
    n, results = {"crossing": 2, "three": 3}[name], []
    for cpus in (1, 2, 3):
        out = tmp_path / str(cpus)
        code, stdout, err = command(monkeypatch, capsys, cpus, [
            "stability", "--config", str(ini), "--out", str(out)])
        assert_no_child_left()
        assert len(forks) == 2 * (min(n, cpus) - 1)
        forks.clear()
        results.append((code, stdout.replace(str(out), "OUT"), err,
                        files(out)))
    assert results[0][0] == 0 and results[0][2] == ""
    assert list(results[0][3]) == ["stability.csv"]
    assert len(results[0][1].splitlines()) == 2 + 4  # t = 0, 0.1, 0.2, 0.3
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("name", ["crossing", "evacuation", "three"])
def test_envelope_inputs_do_not_depend_on_the_cpus(tmp_path, monkeypatch,
                                                   capsys, forks, name):
    # each stepping process measures its own populations' inputs: every
    # BoundInputs field is the whole-model bound_inputs_for's, bit for
    # bit, at 1, 2 and 3 CPUs (three populations cut unevenly at 2), and
    # diagnostics.csv, bounds.csv and stability.csv keep their bytes
    ini = tmp_path / "c.ini"
    ini.write_text(CONFIGS[name][0])
    model, datum = parse_config(str(ini)).build()
    want = [bits(astuple(bi)) for bi in analysis.bound_inputs_for(model,
                                                                  datum)]
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(forked, "_usable_cpus", lambda: cpus)
        envelope = analysis.RunningEnvelope(model)
        measured = []
        include = envelope.include

        def first_include(sup):  # after the first step: inputs measured
            if not measured:
                measured.extend(bits(astuple(replace(bi, grad_v_sup=0.0)))
                                for bi in envelope.inputs)
            include(sup)

        monkeypatch.setattr(envelope, "include", first_include)
        run_tables(model, datum, 1, True, lambda t, s: None, [],
                   envelope=envelope)
        assert measured == want
        out = tmp_path / str(cpus)
        for verb in ("bounds", "stability"):
            code, _, err = command(monkeypatch, capsys, cpus, [
                verb, "--config", str(ini), "--out", str(out)])
            assert (code, err) == (0, "")
        assert_no_child_left()
        results.append(([bits(astuple(bi)) for bi in envelope.inputs],
                        files(out)))
    assert sorted(results[0][1]) == sorted(
        ["diagnostics.csv", "bounds.csv", "stability.csv",
         *(f"pop{i + 1}_t{t}.csv" for i in range(model.n)
           for t in ("0.000", "0.100", "0.200", "0.300"))])
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("name, cpus", [("crossing", 2), ("three", 2),
                                        ("three", 3)])
def test_caller_measures_its_own_chunk_after_the_fork(tmp_path, monkeypatch,
                                                      capsys, forks, name,
                                                      cpus):
    # in a split bounds run the caller evaluates the operator, and samples
    # C_I, on its own populations only, and only once every worker is
    # forked: it never holds a whole-model operator value
    ini = tmp_path / "c.ini"
    ini.write_text(CONFIGS[name][0])
    n, caller, seen = CONFIGS[name][1], os.getpid(), []
    avoid, estimate = analysis.gradient_avoidance, analysis.estimate_ci

    def watched_avoid(state, *args, **kwargs):
        if os.getpid() == caller:
            seen.append(("gradient_avoidance", state.first, state.n,
                         len(forks)))
        return avoid(state, *args, **kwargs)

    def watched_estimate(op, samples, *args, **kwargs):
        if os.getpid() == caller:
            seen.append(("estimate_ci", samples[0].first, samples[0].n,
                         len(forks)))
        return estimate(op, samples, *args, **kwargs)

    monkeypatch.setattr(analysis, "gradient_avoidance", watched_avoid)
    monkeypatch.setattr(analysis, "estimate_ci", watched_estimate)
    code, _, err = command(monkeypatch, capsys, cpus, [
        "bounds", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert (code, err) == (0, "")
    assert_no_child_left()
    calls = {call for call, *_ in seen}
    assert calls == {"gradient_avoidance", "estimate_ci"}
    assert {tuple(rest) for _, *rest in seen} == {(0, n // cpus, cpus - 1)}


# name: INI of a run_tables call
RUN_TABLES_INIS = {"crossing": CROSSING, "three": populations_ini(3),
                   "one": populations_ini(1),
                   "differentiable": DIFFERENTIABLE_INI}


def bits(value) -> tuple:
    """The shape and bytes of a value as a float64 array."""
    a = np.asarray(value, dtype=np.float64)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(RUN_TABLES_INIS))
def test_run_tables_result_is_the_run_result(tmp_path, monkeypatch, name,
                                             cpus):
    # every StepReport field, the final state and the escaped mass of
    # run_tables' RunResult are solver.run's, bit for bit, however many
    # processes step the run
    ini = tmp_path / "c.ini"
    ini.write_text(RUN_TABLES_INIS[name])
    model, datum = parse_config(str(ini)).build()
    want = solver.run(model, datum)
    monkeypatch.setattr(forked, "_usable_cpus", lambda: cpus)
    got, _ = run_tables(model, datum, 1, model.family == DEVIATION,
                        lambda t, s: None, [])
    assert_no_child_left()
    assert len(got.reports) == len(want.reports) > 0
    for a, b in zip(got.reports, want.reports):
        for f in fields(StepReport):
            assert bits(getattr(a, f.name)) == bits(getattr(b, f.name)), \
                (a.step, f.name)
    assert type(got.reports[-1].step) is int
    assert bits(got.state.data) == bits(want.state.data)
    assert got.state.first == want.state.first == 0
    assert bits(got.escaped) == bits(want.escaped)


def test_custom_operator_stays_in_one_process(monkeypatch, forks):
    # only GradientAvoidance is split: a custom operator gives the same
    # tables from one process
    monkeypatch.setattr(forked, "_usable_cpus", lambda: 2)
    model, datum = preset("crossing").with_mesh(0.4).build()
    model = replace(model, t_max=0.2, snapshot_times=(0.0, 0.1))
    op = model.deviation
    tables = []
    for deviation in (op, lambda state: op(state)):
        diag_rows = []
        result, bound_rows = run_tables(
            replace(model, deviation=deviation), datum, 1, True,
            lambda t, s: None, diag_rows)
        tables.append((result.state.data, diag_rows, bound_rows))
    assert len(forks) == 1
    (data, diag, bounds), (data1, diag1, bounds1) = tables
    assert np.array_equal(data1, data)
    assert diag1 == diag and bounds1 == bounds
    assert_no_child_left()


# Runs `crowdflow run` in two processes, prints the worker's pid, and
# stalls the caller in its first step.
KILLED_CALLER = """
import os, sys, time
from crowdflow import cli, forked, solver
fork, step, caller = os.fork, solver.split_step, os.getpid()

def announced():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

def stalled(*args, **kwargs):
    if os.getpid() == caller:
        print("stalled", flush=True)
        time.sleep(60)
    return step(*args, **kwargs)

forked._usable_cpus = lambda: 2
os.fork, solver.split_step = announced, stalled
cli.main(sys.argv[1:])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="reads process states from /proc")
def test_worker_exits_when_its_caller_is_killed(tmp_path):
    if forked._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread control: no worker is forked")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    ini = tmp_path / "c.ini"
    ini.write_text(CROSSING)
    argv = [sys.executable, "-c", KILLED_CALLER, "run", "--config", str(ini),
            "--out", str(tmp_path / "out")]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                          text=True) as caller:
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
