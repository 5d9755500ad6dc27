"""Snapshots of `run` and `bounds`: the process that steps a population
writes its snapshots, and the outputs do not depend on how many
processes step the run.

A deviation run of two or more populations is stepped in several
processes (tests/test_split_steps.py); one population, like the
differentiable family, steps in the command's own process and forks
nothing.  Every test compares with the run taken with one usable CPU.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from crowdflow import NumericError, cli, forked, solver
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
ONE = populations_ini(1)  # stepped in the command's own process


def forked_count(n: int, cpus: int) -> int:
    """The processes a run of n populations forks with cpus usable CPUs:
    a worker for each chunk of populations but the caller's."""
    return min(n, cpus) - 1


@pytest.fixture
def forks(monkeypatch):
    """The pids the command forks; skips where the loaded BLAS has no
    thread control, since nothing is then forked."""
    if forked._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread control: nothing is forked")
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_writer_takes_whole_snapshots(tmp_path, monkeypatch, capsys, forks,
                                      n):
    # this process steps population 1 and writes its snapshots, the last
    # one too, and diagnostics.csv; with two or more populations its
    # worker writes the others'
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
    own = [f"pop1_t{t}.csv" for t in ("0.000", "0.100", "0.200", "0.300")]
    assert written == own + ["diagnostics.csv"]
    assert len(os.listdir(tmp_path / "out")) == 4 * n + 1
    assert len(forks) == forked_count(n, 2)
    assert_no_child_left()


@pytest.mark.parametrize("blocked", [
    "pop1_t0.100.csv", "pop1_t0.300.csv", "diagnostics.csv"],
    ids=["mid-run", "writer-share", "caller-diagnostics"])
def test_write_error_in_the_writer(tmp_path, monkeypatch, capsys, forks,
                                   blocked):
    # a directory where a snapshot, or diagnostics.csv, goes: exit 1
    # with the same message at 1 and 2 CPUs, before the run's report, no
    # child left, and the same snapshots and diagnostics rows
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
    assert snaps2 == snaps
    if blocked == "diagnostics.csv":  # written after every snapshot
        assert len(snaps) == 4
    else:
        assert diag is not None and diag2 == diag
    assert forks == []


@pytest.mark.parametrize("case", ["outside-room", "colliding-names"])
@pytest.mark.parametrize("verb", ["run", "bounds"])
def test_configuration_error_after_the_fork(tmp_path, monkeypatch, capsys,
                                            forks, verb, case):
    # found before the run: no directory, nothing forked
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
    assert forks == []


@pytest.mark.parametrize("outcome", ["ok", "numeric", "configuration"])
@pytest.mark.parametrize("before, cpus, during", [
    (2, 2, 2), (3, 4, 3), (1, 4, 1)], ids=["halved", "quad", "one"])
def test_blas_threads_set_and_restored(tmp_path, monkeypatch, capsys, forks,
                                       outcome, before, cpus, during):
    # the settings of the two-population cases in test_split_steps: one
    # population forks nothing, so it steps on the caller's own BLAS
    # thread count, whatever the CPUs, and leaves that count as it was
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
    assert forks == []
    assert_no_child_left()


# Runs `crowdflow run` in two processes; the worker prints its pid as it
# starts to write its first snapshot, and stalls there while its caller
# waits on it in the lockstep exchange.
KILLED_WHILE_WRITING = """
import os, sys, time
from crowdflow import cli, forked
write, caller = cli._write_table, os.getpid()

def stalled(path, *args):
    if os.getpid() != caller and path.endswith("_t0.000.csv"):
        print(os.getpid(), flush=True)
        time.sleep(1)
    return write(path, *args)

forked._usable_cpus = lambda: 2
cli._write_table = stalled
cli.main(sys.argv[1:])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="reads process states from /proc")
def test_writer_exits_when_its_caller_is_killed(tmp_path):
    # a worker writes its populations' snapshots between exchanges with
    # its caller: killed then, the caller is missed at the worker's next
    # exchange, and the worker exits
    if forked._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread control: no worker is forked")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    ini = tmp_path / "c.ini"
    ini.write_text(CROSSING)
    argv = [sys.executable, "-c", KILLED_WHILE_WRITING, "run", "--config",
            str(ini), "--out", str(tmp_path / "out")]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                          text=True) as caller:
        try:
            writer = int(caller.stdout.readline())
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
    assert (tmp_path / "out" / "pop2_t0.000.csv").exists()
