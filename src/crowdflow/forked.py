"""Forked workers: the one place where the package forks, and the
process plumbing the Gateaux replays and the snapshot writer share.

sharing(wanted) is the scope forked work runs in.  It decides how many
processes P share the CPUs: min(wanted, usable CPUs) where os.fork and
the thread control of the OpenBLAS that numpy loaded exist, and 1
otherwise, where the caller does all of the work itself.  While P >= 2,
the caller runs BLAS on min(threads, CPUs // P) threads, never more than
before.  When the scope ends, by return or error, the count is restored
and every worker that finish() has not reaped is killed and reaped.

A Worker, forked by the start() the scope yields, runs one job on a
stream of bytes the caller writes to its pipe: float64 words and raw
array bytes, never pickles, read with dts, read and read_array.  It
sends back one pickled reply, its floats or the exception it stopped
at, with the warnings it recorded, which the caller re-issues through
its own filters.  END closes each stream.  A stream that ends without
it means the caller is gone: the worker then exits at its next read,
without a reply, so none outlives its caller.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import pickle
import struct
import sys
import warnings
from typing import BinaryIO, Callable, Iterator, NoReturn

import numpy as np

from .errors import CrowdflowError

# closes a stream: no dt, and no snapshot's leading grid size, is negative
END = struct.pack("d", -1.0)

Job = Callable[[BinaryIO], list[float]]


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


def dts(stream: BinaryIO) -> Iterator[float]:
    """The dts written to stream, up to END."""
    while (word := read(stream, len(END))) != END:
        yield struct.unpack("d", word)[0]


def read_array(stream: BinaryIO, shape: tuple[int, ...]) -> np.ndarray:
    """The next float64 array of the given shape on stream."""
    return np.frombuffer(read(stream, 8 * math.prod(shape))).reshape(shape)


def read(stream: BinaryIO, n: int) -> bytes:
    """The next n bytes of stream; a worker whose stream ends before
    them exits (its caller is gone)."""
    data = stream.read(n)
    if len(data) < n:
        raise _CallerGone
    return data


class _CallerGone(BaseException):
    """A worker's stream ended before the end marker or the arrays after
    it: the caller is gone.  A BaseException, so that no handler of the
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
    """A forked process that runs job(stream) on what the caller writes
    to it with send() and sends back the floats job returns.

    The worker records its warnings.  finish() re-issues them here and
    returns its floats, or raises the exception it stopped at, or
    CrowdflowError if it ended without a result; send() does the same
    once the worker has closed its end.  The worker closes every pipe
    end it inherited from the earlier workers of its scope, so each
    stream ends with the caller, and leaves through os._exit: with
    status 1 and nothing written if sending its reply fails or its
    stream ends early.
    """

    def __init__(self, job: Job, earlier: list[Worker]):
        rfd, self._fd = os.pipe()          # caller -> worker
        self._reply, wfd = os.pipe()       # worker -> caller
        inherited = [self._fd, self._reply,
                     *(fd for w in earlier for fd in (w._fd, w._reply))]
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (rfd, self._fd, self._reply, wfd):
                os.close(fd)
            raise
        if self.pid == 0:
            _serve(job, rfd, wfd, inherited)
        os.close(rfd)
        os.close(wfd)

    def send(self, data) -> None:
        """Write bytes, or a C-contiguous array's bytes, to the stream."""
        view = memoryview(data).cast("B")
        try:
            while view:
                view = view[os.write(self._fd, view):]
        except BrokenPipeError:
            self.finish()  # raises what stopped the worker
            raise

    def finish(self) -> list[float]:
        """Wait for the worker and reap it: its floats, or its error."""
        os.close(self._fd)
        self._fd = None
        with open(self._reply, "rb") as fh:
            self._reply = None
            reply = fh.read()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = 0
        if not reply:
            end = f"exit code {code}" if code >= 0 else f"signal {-code}"
            raise CrowdflowError(f"forked worker ended with {end} and no "
                                 "result")
        ok, value, warned = pickle.loads(reply)
        _reissue(warned)
        if not ok:
            raise value
        return value

    def kill(self) -> None:
        """Close what finish() has not, and kill and reap the worker
        unless finish() has reaped it."""
        for fd in (self._fd, self._reply):
            if fd is not None:
                os.close(fd)
        if self.pid:
            import signal  # here: at import time it cost 1.2 ms of set-up
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def _serve(job: Job, rfd: int, wfd: int, inherited: list[int]) -> NoReturn:
    """A worker's whole life: run job on the stream read from rfd, then
    write the pickled (True, floats, warnings) or (False, exception,
    warnings) to wfd.  The stream is closed first, so a caller still
    writing to it stops at once."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with warnings.catch_warnings(record=True) as caught:
            with open(rfd, "rb") as stream:
                try:
                    reply = (True, job(stream))
                except Exception as exc:
                    reply = (False, exc)
        warned = [(w.message, w.category, w.filename, w.lineno)
                  for w in caught]
        with open(wfd, "wb") as fh:
            fh.write(pickle.dumps(reply + (warned,)))
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
