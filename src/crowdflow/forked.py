"""Forked workers: the one place where the package forks, and the
process plumbing the Gateaux replays and the population steps of
analysis.run_tables share.

sharing(wanted) is the scope forked work runs in.  It decides how many
processes P share the CPUs: min(wanted, usable CPUs) where os.fork and
the thread control of the OpenBLAS that numpy loaded exist, and 1
otherwise, where the caller does all of the work itself.  While P >= 2,
the caller runs BLAS on min(threads, CPUs // P) threads, never more than
before.  When the scope ends, by return or error, the count is restored
and every worker that finish() has not reaped is killed and reaped.

A Worker, forked by the start() the scope yields, runs one job on a
Channel.  Caller and worker exchange float64 arrays, never pickles, in
one format: post() writes a frame, the array's size and then its
floats, and receive() at the other end reads it back, flat; Lockstep
exchanges rows of floats that way, and a job posts its results so too.
A worker whose pipe from the caller ends before a whole frame knows
that the caller is gone: it exits at that read, without a reply, so
none outlives its caller.  A job's end sends back one pickled reply,
which holds no floats: the exception it stopped at, if any, and the
warnings it recorded, which the caller re-issues through its own
filters.  Large arrays that every process reads are shared_array()s:
shared memory, written before or between the exchanges that order its
readers and writers.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import mmap
import os
import pickle
import struct
import sys
import warnings
from typing import Callable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import CrowdflowError

Job = Callable[["Channel"], None]


@contextlib.contextmanager
def sharing(wanted: int) -> Iterator[tuple[int, Callable[[Job], Worker]]]:
    """(P, start) for work that wanted processes could share: P of them
    do (see the module docstring), and start(job) forks a Worker running
    job.  The caller runs on the CPUs of one share until the scope ends,
    which kills and reaps every worker finish() has not reaped."""
    cpus = _usable_cpus()
    procs = min(wanted, cpus)
    blas = _openblas_threads() if procs > 1 and hasattr(os, "fork") else None
    if blas is None:
        procs = 1
    workers: list[Worker] = []

    def start(job: Job) -> Worker:
        workers.append(Worker(job, workers))
        return workers[-1]

    if procs > 1:
        get, put = blas
        threads = get()
        put(min(threads, cpus // procs))
    try:
        yield procs, start
    finally:
        for w in workers:
            w.kill()
        if procs > 1:
            put(threads)


def shared_array(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of zeros in anonymous shared memory: the workers
    forked after it is made write to, and read, the caller's pages."""
    nbytes = 8 * math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, max(nbytes, 1)), count=nbytes // 8
                         ).reshape(shape)


class _CallerGone(BaseException):
    """A worker's pipe from the caller ended before the frame it read:
    the caller is gone.  A BaseException, so that no handler of the
    job's errors sends it back."""


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or
    None where no such library (or no /proc/self/maps) is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, (ctypes.c_int,)
                return get, put
    return None


class Worker:
    """A forked process that runs job(channel) on the arrays the caller
    posts to it; the job posts its results back.

    The worker records its warnings.  finish() re-issues them here and
    raises the exception the job stopped at, if any, or CrowdflowError
    if the worker ended without a reply; post() and receive() do the
    same once the worker has closed its end.  The worker closes every
    pipe end it inherited from the earlier workers of its scope, so each
    pipe from the caller ends with the caller, and leaves through
    os._exit: with status 1 and nothing written if sending its reply
    fails or that pipe ends early.
    """

    def __init__(self, job: Job, earlier: list[Worker]):
        rfd, self._fd = os.pipe()          # caller -> worker
        self._reply, wfd = os.pipe()       # worker -> caller: the reply
        self._posts, pfd = os.pipe()       # worker -> caller: posts
        inherited = [fd for w in (self, *earlier)
                     for fd in (w._fd, w._reply, w._posts) if fd is not None]
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (rfd, wfd, pfd, self._fd, self._reply, self._posts):
                os.close(fd)
            raise
        if self.pid == 0:
            _serve(job, rfd, wfd, pfd, inherited)
        for fd in (rfd, wfd, pfd):
            os.close(fd)

    def post(self, array: np.ndarray) -> None:
        """Send a float64 array, which the job's Channel.receive() reads
        as a flat array."""
        try:
            _write_frame(self._fd, array)
        except BrokenPipeError:
            self.finish()  # raises what stopped the worker
            raise

    def receive(self) -> np.ndarray:
        """The next array the job posted, flat.  A worker that posts no
        more, because its job ended or it was killed, is finished."""
        array = _read_frame(self._posts)
        if array is None:
            self.finish()  # raises what stopped the worker, if anything did
            raise CrowdflowError("forked worker ended without posting")
        return array

    def finish(self) -> None:
        """Wait for the worker and reap it, raising its error if any."""
        os.close(self._fd)
        os.close(self._posts)
        self._fd = self._posts = None
        with open(self._reply, "rb") as fh:
            self._reply = None
            reply = fh.read()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = 0
        if not reply:
            end = f"exit code {code}" if code >= 0 else f"signal {-code}"
            raise CrowdflowError(f"forked worker ended with {end} and no "
                                 "result")
        error, warned = pickle.loads(reply)
        _reissue(warned)
        if error is not None:
            raise error

    def kill(self) -> None:
        """Close what finish() has not, and kill and reap the worker
        unless finish() has reaped it."""
        for fd in (self._fd, self._reply, self._posts):
            if fd is not None:
                os.close(fd)
        if self.pid:
            import signal  # here: at import time it cost 1.2 ms of set-up
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


class Channel:
    """A worker's ends of its pipes: post() and receive() exchange
    float64 arrays with the caller."""

    def __init__(self, fd: int, posts: int):
        self._fd, self._posts = fd, posts

    def post(self, array: np.ndarray) -> None:
        """Send a float64 array, which the caller's Worker.receive() reads
        as a flat array."""
        _write_frame(self._posts, array)

    def receive(self) -> np.ndarray:
        """The next array the caller posted, flat; a worker whose caller
        is gone exits here."""
        array = _read_frame(self._fd)
        if array is None:
            raise _CallerGone
        return array


class Lockstep:
    """One process's end of the exchanges between a caller and its
    workers: share(rows) gives every process's rows, stacked in process
    order, the caller's first, once each process has given its own.

    The caller's Lockstep holds its workers, in the order of their rows;
    a worker's holds its Channel.  The caller takes the workers' rows in
    that order, so the first of them to have stopped is the one whose
    error it raises.
    """

    def __init__(self, workers: Sequence[Worker] = (),
                 channel: Channel | None = None):
        self.workers, self.channel = workers, channel

    @property
    def caller(self) -> bool:
        return self.channel is None

    def share(self, rows: np.ndarray, back: bool = True) -> np.ndarray | None:
        """The stacked rows, flat.  With back False only the caller gets
        them, and a worker goes on without waiting (it gets None)."""
        if not self.caller:
            self.channel.post(rows)
            return self.channel.receive() if back else None
        stacked = np.concatenate([np.ravel(rows),
                                  *(w.receive() for w in self.workers)])
        if back:
            for w in self.workers:
                w.post(stacked)
        return stacked


def _write_frame(fd: int, array: np.ndarray) -> None:
    """Post an array to the pipe fd: its size, then its float64 bytes."""
    array = np.ascontiguousarray(array, dtype=np.float64)
    for data in (struct.pack("q", array.size), array):
        view = memoryview(data).cast("B")
        while view:
            view = view[os.write(fd, view):]


def _read_fd(fd: int, n: int) -> bytes:
    """n bytes from the pipe fd, or fewer where it ends first."""
    chunks = []
    while n > 0 and (chunk := os.read(fd, n)):
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_frame(fd: int) -> np.ndarray | None:
    """The next posted array on the pipe fd, flat, or None where the
    pipe ends before all of its frame."""
    head = _read_fd(fd, 8)
    if len(head) == 8:
        n = 8 * struct.unpack("q", head)[0]
        data = _read_fd(fd, n)
        if len(data) == n:
            return np.frombuffer(data)
    return None


def _serve(job: Job, rfd: int, wfd: int, pfd: int,
           inherited: list[int]) -> NoReturn:
    """A worker's whole life: run job on the arrays posted to rfd and
    posting to pfd, then write the pickled (None, warnings) or
    (exception, warnings) to wfd.  rfd and pfd are closed first, so a
    caller still posting to the one, or waiting on the other, stops at
    once."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with warnings.catch_warnings(record=True) as caught:
            error = None
            try:
                job(Channel(rfd, pfd))
            except Exception as exc:
                error = exc
            os.close(rfd)
            os.close(pfd)
        warned = [(w.message, w.category, w.filename, w.lineno)
                  for w in caught]
        with open(wfd, "wb") as fh:
            fh.write(pickle.dumps((error, warned)))
        code = 0
    finally:
        os._exit(code)


def _reissue(warned: list[tuple]) -> None:
    """Issue warnings a worker recorded as if they arose here, so that
    this process's filters and once-per-site registries decide which
    show: a warning the caller or an earlier worker already showed at
    the same site stays silent, as in the one-h-at-a-time loop."""
    if not warned:
        return
    files = {getattr(m, "__file__", None): m
             for m in list(sys.modules.values())}
    for message, category, filename, lineno in warned:
        module = files.get(filename)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
            continue
        globs = vars(module)
        warnings.warn_explicit(
            message, category, filename, lineno, module=module.__name__,
            registry=globs.setdefault("__warningregistry__", {}),
            module_globals=globs)
