"""The snapshot writer that `run` and `bounds` fork: the outputs do not
depend on whether it runs, and it never outlives or loses its caller's
snapshots.

Where it can fork, and the run is stepped in one process, the command
sends each snapshot's densities down a pipe to one writer process, which
formats every population of every snapshot.  A deviation run of two or
more populations is stepped in several processes instead
(tests/test_split_steps.py), each writing its own snapshots, and forks
no writer; so the writer's tests run one population.  Every test
compares with the in-process path, taken with one usable CPU.
"""

import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from crowdflow import NumericError, parse_config, run
from crowdflow import cli, forked, solver
from crowdflow.cli import main

from test_linearized import assert_no_child_left, running

SNAPSHOT_TIMES = "snapshot_times = 0 0.1 0.2 0.3\n"
CROSSING = ("[grid]\nmesh = 0.2\n[model]\npreset = crossing\ntmax = 0.3\n"
            + SNAPSHOT_TIMES)
# n populations in the default corridor, one kernel group, asymmetric eps
BLOCKS = ("0.9 -6.4 -2.4 -3.2 2.4", "0.7 3.2 -2.4 6.4 2.4",
          "0.6 -1.6 -2.8 1.6 -0.8")
DRIVES = ("gx = 1\n", "gx = -1\n", "gy = 1\n")
EPS = ((0.3, 0.7, 0.2), (0.5, 0.3, 0.4), (0.1, 0.6, 0.3))


def populations_ini(n: int) -> str:
    ini = "[grid]\nmesh = 0.2\n[model]\ntmax = 0.3\n" + SNAPSHOT_TIMES
    for i in range(n):
        eps = " ".join(str(e) for e in EPS[i][:n])
        ini += (f"[population.{i + 1}]\nvmax = 4\n{DRIVES[i]}eps = {eps}\n"
                f"datum = {BLOCKS[i]}\n")
    return ini


# name: (INI, populations)
CONFIGS = {"crossing": (CROSSING, 2),
           "evacuation": (CROSSING.replace("crossing", "evacuation"), 2),
           "one": (populations_ini(1), 1), "three": (populations_ini(3), 3)}
ONE = populations_ini(1)  # stepped in one process: the writer's case


def forked_count(n: int, cpus: int) -> int:
    """The processes a run of n populations forks with cpus usable CPUs
    and inner output times: a writer for one population, else a worker
    for each chunk of populations but the caller's."""
    return int(cpus > 1) if n == 1 else min(n, cpus) - 1


@pytest.fixture
def jobs(monkeypatch):
    """The name of the job of each worker the command starts."""
    started, init = [], forked.Worker.__init__

    def recorded(self, job, earlier):
        started.append(getattr(job, "func", job).__name__)
        init(self, job, earlier)

    monkeypatch.setattr(forked.Worker, "__init__", recorded)
    return started


@pytest.fixture
def forks(monkeypatch):
    """The pids the command forks; skips where the loaded BLAS has no
    thread control, since the writer is then never forked."""
    if forked._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread control: no writer is forked")
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def files(out) -> dict[str, bytes]:
    """The bytes of each file in out (directories left out)."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())
            if path.is_file()}


def command(monkeypatch, capsys, cpus, argv):
    """main(argv) with cpus usable CPUs: (exit code, stdout, stderr)."""
    monkeypatch.setattr(forked, "_usable_cpus", lambda: cpus)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("verb", ["run", "bounds"])
def test_outputs_do_not_depend_on_the_writer(tmp_path, monkeypatch, capsys,
                                             forks, verb, name):
    ini, out = tmp_path / "c.ini", tmp_path / "out"
    text, n = CONFIGS[name]
    ini.write_text(text)
    results = []
    for cpus in (1, 2, 3):
        code, stdout, err = command(monkeypatch, capsys, cpus,
                                    [verb, "--config", str(ini),
                                     "--out", str(out)])
        results.append((code, stdout, err, files(out)))
        assert len(forks) == forked_count(n, cpus)
        forks.clear()
        assert_no_child_left()
        for path in out.iterdir():
            path.unlink()
    assert results[0][0] == 0 and results[0][2] == ""
    assert len([f for f in results[0][3] if f.startswith("pop")]) == 4 * n
    assert results[1] == results[0]
    assert results[2] == results[0]


@pytest.mark.parametrize("argv", [
    ["--preset", "crossing", "--tmax", "0.3"],
    ["--config", "{ini}"]], ids=["preset", "ini"])
def test_no_writer_without_an_inner_output_time(tmp_path, monkeypatch,
                                                capsys, forks, jobs, argv):
    # with output times 0 and t_max alone, the command's stepping
    # processes write every snapshot themselves
    ini = tmp_path / "c.ini"
    ini.write_text(CROSSING.replace(SNAPSHOT_TIMES,
                                    "snapshot_times = 0 0.3\n"))
    code, _, _ = command(monkeypatch, capsys, 2, [
        "bounds", *[a.format(ini=ini) for a in argv], "--mesh", "0.4",
        "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(forks) == 1 and "_write_snapshots" not in jobs


def test_no_writer_for_a_time_run_reports_as_zero(tmp_path, monkeypatch,
                                                   capsys, forks):
    # run reports 1e-13 as its t = 0 call, so only 0 and t_max are output
    ini = tmp_path / "c.ini"
    ini.write_text(ONE.replace(SNAPSHOT_TIMES, "snapshot_times = 1e-13 0.1\n")
                   .replace("tmax = 0.3", "tmax = 0.1"))
    code, _, _ = command(monkeypatch, capsys, 2, [
        "run", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert code == 0
    assert forks == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_writer_takes_whole_snapshots(tmp_path, monkeypatch, capsys, forks,
                                      n):
    # the writer writes every population of every snapshot, the last one
    # too; this process writes diagnostics.csv only.  With two or more
    # populations there is no writer: this process steps population 1
    # and writes its snapshots, and its worker writes the others'
    parent, written, write = os.getpid(), [], cli._write_table

    def recorded(path, *args):
        if os.getpid() == parent:
            written.append(os.path.basename(path))
        return write(path, *args)

    monkeypatch.setattr(cli, "_write_table", recorded)
    ini = tmp_path / "c.ini"
    ini.write_text(populations_ini(n))
    code, _, _ = command(monkeypatch, capsys, 2, [
        "run", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert code == 0
    own = [] if n == 1 else [f"pop1_t{t}.csv" for t in
                             ("0.000", "0.100", "0.200", "0.300")]
    assert written == own + ["diagnostics.csv"]
    assert len(os.listdir(tmp_path / "out")) == 4 * n + 1
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("blocked", [
    "pop1_t0.100.csv", "pop1_t0.300.csv", "diagnostics.csv"],
    ids=["mid-run", "writer-share", "caller-diagnostics"])
def test_write_error_in_the_writer(tmp_path, monkeypatch, capsys, forks,
                                   blocked):
    # a directory where a snapshot, or the caller's diagnostics.csv,
    # goes: exit 1 with the in-process message, before the run's report,
    # no child left, and the in-process diagnostics rows
    ini = tmp_path / "c.ini"
    ini.write_text(ONE)
    results = []
    for cpus in (1, 2):
        out = tmp_path / str(cpus)
        (out / blocked).mkdir(parents=True)
        code, stdout, err = command(monkeypatch, capsys, cpus, [
            "run", "--config", str(ini), "--out", str(out)])
        assert (code, stdout) == (1, "")
        assert_no_child_left()
        written = files(out)
        snaps = {k: v for k, v in written.items() if k.startswith("pop")}
        results.append((err.replace(str(out), "OUT"), snaps,
                        written.get("diagnostics.csv")))
    (err, snaps, diag), (err2, snaps2, diag2) = results
    assert err.startswith(f"configuration error: cannot write OUT/{blocked}")
    assert err2 == err
    # what the in-process path wrote before it stopped, the writer wrote
    assert {k: snaps2.get(k) for k in snaps} == snaps
    if blocked == "diagnostics.csv":  # written after every snapshot
        assert len(snaps2) == len(snaps) == 4
    else:
        assert diag is not None and diag2 == diag
    assert len(forks) == 1


def test_caller_error_lets_the_writer_finish(tmp_path, monkeypatch, capsys,
                                             forks):
    # a slow writer and a numeric error at the step after t = 0.2: told
    # to finish, not killed, the writer writes every snapshot it was sent
    ini = tmp_path / "c.ini"
    ini.write_text(ONE)
    model, datum = parse_config(str(ini)).build()
    k = len(run(replace(model, t_max=0.2, snapshot_times=(0.0, 0.1)),
                datum).reports) + 1
    parent, step, write = os.getpid(), solver.split_step, cli._write_table

    def slow(path, *args):
        if os.getpid() != parent:
            time.sleep(0.1)
        return write(path, *args)

    monkeypatch.setattr(cli, "_write_table", slow)
    results = []
    for cpus in (1, 2):
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == k:
                raise NumericError("injected")
            return step(*args, **kwargs)

        monkeypatch.setattr(solver, "split_step", failing)
        out = tmp_path / str(cpus)
        code, _, err = command(monkeypatch, capsys, cpus, [
            "run", "--config", str(ini), "--out", str(out)])
        assert (code, err) == (2, "numeric error: injected\n")
        assert_no_child_left()
        results.append(files(out))
    assert results[1] == results[0]
    assert sorted(results[0]) == ["diagnostics.csv"] + [
        f"pop1_t{t}.csv" for t in ("0.000", "0.100", "0.200")]
    assert len(forks) == 1


@pytest.mark.parametrize("case", ["outside-room", "colliding-names"])
@pytest.mark.parametrize("verb", ["run", "bounds"])
def test_configuration_error_after_the_fork(tmp_path, monkeypatch, capsys,
                                            forks, verb, case):
    # found after the writer is forked: no directory, no child left
    ini = tmp_path / "c.ini"
    if case == "outside-room":
        ini.write_text(ONE.replace(BLOCKS[0], "0.9 -6.4 3.2 -3.2 3.8"))
    else:
        ini.write_text(ONE.replace(SNAPSHOT_TIMES, "snapshot_times = "
                                   "0 0.0011 0.0014 0.3\n"))
    out = tmp_path / "out"
    code, stdout, err = command(monkeypatch, capsys, 2, [
        verb, "--config", str(ini), "--out", str(out)])
    assert (code, stdout) == (1, "")
    assert err.startswith("configuration error:")
    assert not out.exists()
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("outcome", ["ok", "numeric", "configuration"])
@pytest.mark.parametrize("before, cpus, during", [
    (2, 2, 1), (3, 4, 2), (1, 4, 1)], ids=["halved", "quad", "one"])
def test_blas_threads_set_and_restored(tmp_path, monkeypatch, capsys, forks,
                                       outcome, before, cpus, during):
    get, put = forked._openblas_threads()
    seen, step, original = [], solver.split_step, get()

    def watched(*args, **kwargs):
        seen.append(get())
        if outcome == "numeric":
            raise NumericError("stop")
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "split_step", watched)
    ini = tmp_path / "c.ini"
    ini.write_text(ONE if outcome != "configuration" else
                   ONE.replace(BLOCKS[0], "0.9 -6.4 3.2 -3.2 3.8"))
    put(before)
    try:
        code, _, _ = command(monkeypatch, capsys, cpus, [
            "bounds", "--config", str(ini), "--out", str(tmp_path / "out")])
    finally:
        after = get()
        put(original)
    assert code == {"ok": 0, "numeric": 2, "configuration": 1}[outcome]
    assert set(seen) == (set() if outcome == "configuration" else {during})
    assert after == before
    assert len(forks) == 1
    assert_no_child_left()


# Runs `crowdflow run` with a writer, prints the writer's pid, and stalls
# in the first step, after the t = 0 snapshot has been sent.
KILLED_CALLER = """
import os, sys, time
from crowdflow import cli, forked, solver
fork, step = os.fork, solver.split_step

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
os.fork, solver.split_step = announced, stalled
cli.main(sys.argv[1:])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="reads process states from /proc")
def test_writer_exits_when_its_caller_is_killed(tmp_path):
    if forked._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread control: no writer is forked")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    ini = tmp_path / "c.ini"
    ini.write_text(ONE)
    argv = [sys.executable, "-c", KILLED_CALLER, "run", "--config", str(ini),
            "--out", str(tmp_path / "out")]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                          text=True) as caller:
        try:
            writer = int(caller.stdout.readline())
            assert caller.stdout.readline() == "stalled\n"
        finally:
            caller.kill()
            caller.wait()
    deadline = time.monotonic() + 10
    try:
        while running(writer):
            assert time.monotonic() < deadline, "writer outlived its caller"
            time.sleep(0.05)
    finally:
        if running(writer):
            os.kill(writer, signal.SIGKILL)
