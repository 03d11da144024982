"""Deterministic fan-out of work over forked helper processes.

Two shapes of work are split here, and each gives the same bits whatever
the number of processes:

* ``map_ranges`` maps a function over consecutive index ranges. The Monte
  Carlo is a loop over independent, seeded items: item i draws from the
  i-th child of one SeedSequence. Each distinct crop of the
  validation-bound pool is a pure function of its shapes' integer centers
  and radii, and the clean and noisy arms of ``run_pipeline`` are two
  independent fits, each a pure function of its config and data. Computed
  in separate processes, all of them give the same results in the same
  order as one loop.
* ``halves`` runs one function on the two fixed halves ``[0, n//2)`` and
  ``[n//2, n)`` of a long loop, many times over: each epoch of a logistic
  fit sums its rows this way. The halves are the same either way, and the
  caller adds them in the same order, so the sum has the same bits.

How many processes work is decided in two places. Each caller asks for the
processes its work pays for: its work divided by its grain, the work in
the caller's unit that one more process repays. ``_processes`` alone then
applies the machine's limits: at most one process per item and one per CPU
this process may run on, and one alone where it may not fork. A request
for N processes counts the caller: N processes work, N - 1 of them forked.

Both stand on one primitive, ``_fork``. The caller computes the first range
or half itself and forks one helper for each other one, which answers over
a pipe and leaves through ``os._exit``; the caller reaps every helper on
every path.

Nothing fans out inside a fan-out: a forked helper, the caller while it
computes its own range, and a process that ``multiprocessing`` started (a
worker of the caller's own pool) run everything themselves, so two CPUs
never carry three busy processes.

Helpers are forked rather than spawned: a forked helper starts with the
modules its caller has imported, while a spawned one would import numpy and
segnoise anew, which takes longer than most calls.

A fork is unsafe while another thread of the caller holds a lock that the
helper needs. segnoise starts no thread before the fork (each
``map_ranges`` helper starts one after it, which watches for its caller's
death), and none of these loops calls BLAS (the logistic loss runs on
numpy's own ``einsum`` loops), so OpenBLAS's idle threads are not needed
in the helpers, and two helpers do not each start a team of spinning BLAS
threads. On Python >= 3.12, forking a process that runs threads (OpenBLAS
starts some at import) raises a DeprecationWarning.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from functools import partial

import numpy as np

# whether this process is inside a fan-out: a forked helper, or a caller
# while it computes its own range
_inside = False


def _may_fork() -> bool:
    """Whether this process may fork helpers onto other CPUs: the platform
    has ``fork``, this process is not inside a fan-out, and
    ``multiprocessing`` did not start it."""
    if _inside:
        return False
    # imported here, not at the top, so that `import segnoise` does not load it
    import multiprocessing

    return ("fork" in multiprocessing.get_all_start_methods()
            and multiprocessing.parent_process() is None)


def _cpus() -> int:
    """CPUs this process may run on: the CPU count and, where the platform
    reports one, the process's affinity set (``taskset``, a container's
    cpuset), whichever is smaller."""
    cpus = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        cpus = min(cpus, len(os.sched_getaffinity(0)))
    return cpus


def _processes(requested: int, n: int) -> int:
    """Processes that work on ``n`` items when the caller asks for
    ``requested``, this one among them: at least one, at most one per item
    and one per CPU (``_cpus()``), and one alone unless ``_may_fork()``."""
    count = max(1, min(int(requested), _cpus(), n))
    return count if count == 1 or _may_fork() else 1


def _fork(body) -> int:
    """Fork a helper that runs ``body()`` inside a fan-out, with interrupts
    ignored, and return its pid. The helper leaves with ``os._exit``, code 0
    once ``body`` returns and 1 if it raises, never by returning or raising
    into the caller's stack, which belongs to the parent."""
    global _inside
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _inside = True
            # an interrupt reaches the caller, which ends its helpers
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            body()
            code = 0
        finally:
            os._exit(code)
    return pid


def map_ranges(fn, n: int, processes: int, *args) -> list:
    """``fn(*args, lo, hi)`` over consecutive ranges that cover ``[0, n)``,
    one range per process, results in index order.

    ``_processes(processes, n)`` processes work: this one computes the first
    range, and one forked helper each other range; with one process the
    call is ``[fn(*args, 0, n)]``. ``fn`` must return a value that pickles.

    An exception raised by ``fn`` in a helper is raised here with its type
    and message, or as RuntimeError naming the range if it does not pickle.
    A helper that ends without a result makes this raise RuntimeError. Once
    this process's range or a helper has raised, the other helpers are
    killed, not waited for. Every helper is reaped before the call returns
    or raises, and each leaves by itself within ``_WATCH_S`` if this process
    dies first, even by a signal that unwinds nothing.
    """
    workers = _processes(processes, n)
    if workers == 1:
        return [fn(*args, 0, n)]
    global _inside
    edges = [n * k // workers for k in range(workers + 1)]
    ranges = list(zip(edges[:-1], edges[1:]))
    pipes, pids = {}, {}  # by range: the read end of its helper's pipe, the helper's pid
    try:
        for k in range(1, workers):
            pipes[k], write = os.pipe()
            try:
                pids[k] = _fork(partial(_answer, os.getpid(), write, partial(fn, *args),
                                        *ranges[k]))
            finally:
                os.close(write)
        _inside = True
        try:
            first = fn(*args, *ranges[0])
        finally:
            _inside = False
        return [first, *_collect(pipes, pids, ranges)]
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)  # a helper that answered is already leaving
            os.waitpid(pid, 0)
        for read in pipes.values():
            os.close(read)


def _collect(pipes: dict, pids: dict, ranges: list) -> list:
    """The helpers' results in index order, read as they arrive. Raises the
    first exception that a helper sends, or RuntimeError once a helper ends
    without a result (reaping it, and dropping its pid)."""
    waiting = {read: k for k, read in pipes.items()}
    chunks = {k: [] for k in pipes}
    results = {}
    while waiting:
        for read in select.select(list(waiting), [], [])[0]:
            k = waiting[read]
            if chunk := os.read(read, 1 << 16):
                chunks[k].append(chunk)
                continue
            del waiting[read]
            try:
                ok, results[k] = pickle.loads(b"".join(chunks[k]))
            except Exception:  # no reply, or a part of one: the helper died
                status = os.waitpid(pids.pop(k), 0)[1]
                raise RuntimeError(f"the helper process computing range [{ranges[k][0]}, "
                                   f"{ranges[k][1]}) ended without a result, with exit code "
                                   f"{os.waitstatus_to_exitcode(status)}") from None
            if not ok:
                error, text = results[k]
                raise error from RuntimeError(text)
    return [results[k] for k in sorted(results)]


def _answer(caller: int, fd: int, fn, lo: int, hi: int) -> None:
    """A map_ranges helper's body: sends ``(True, fn(lo, hi))``, or
    ``(False, (the exception it raised, its traceback))``, pickled down
    ``fd``. It leaves once its parent is no longer ``caller``."""
    _leave_with(caller)
    try:
        reply = True, fn(lo, hi)
    except Exception as e:
        reply = False, (e, f"in the helper process computing range [{lo}, {hi}):\n"
                           f"{traceback.format_exc()}")
    try:
        data = pickle.dumps(reply)
    except Exception as e:  # say what could not be sent, and where from
        what = "its result" if reply[0] else repr(reply[1][0])
        error = RuntimeError(f"the helper process computing range [{lo}, {hi}) could not "
                             f"send back {what}: {e}")
        data = pickle.dumps((False, (error, traceback.format_exc())))
    _write(fd, data)


# seconds between a map_ranges helper's checks that its caller still lives
_WATCH_S = 0.2


def _leave_with(caller: int) -> None:
    """A daemon thread ends this helper once its parent is no longer
    ``caller``, that is, once the caller died and the helper was handed to
    another parent."""
    def watch():
        while os.getppid() == caller:
            time.sleep(_WATCH_S)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def halves_in_turn(fn, n: int, *args):
    """``both(x) = (fn(*args, x, 0, n // 2), fn(*args, x, n // 2, n))``,
    both computed in this process."""
    mid = n // 2
    return lambda x: (fn(*args, x, 0, mid), fn(*args, x, mid, n))


@contextmanager
def halves(fn, n: int, processes: int, width: int, *args):
    """Yield ``both`` of ``halves_in_turn``, with the second half computed
    by a forked helper process when ``_processes(processes, 2)`` is two.

    ``x`` is a float64 vector of ``width`` items and ``fn`` returns a
    float64 array. The helper is forked on entry; ``both(x)`` then sends
    ``x`` to it over a pipe, computes the first half here and reads the
    second half back, the same bits as without the helper, which runs the
    same ``fn`` on the same data. The helper leaves when the block ends,
    however it ends, and is reaped before this returns. If the helper dies,
    ``both`` raises RuntimeError rather than wait for it.
    """
    mid = n // 2
    if _processes(processes, 2) < 2:
        yield halves_in_turn(fn, n, *args)
        return
    requests, to_helper = os.pipe()
    from_helper, replies = os.pipe()
    pid = _fork(partial(_serve, partial(fn, *args), mid, n, 8 * width, requests, replies,
                        (to_helper, from_helper)))
    os.close(requests)
    os.close(replies)
    status = None  # the helper's wait status, once reaped

    def died() -> RuntimeError:
        nonlocal status
        if status is None:
            status = os.waitpid(pid, 0)[1]
        return RuntimeError(f"the helper process computing rows [{mid}, {n}) ended mid-fit "
                            f"with exit code {os.waitstatus_to_exitcode(status)}")

    def both(x):
        try:
            _write(to_helper, x.tobytes())
        except BrokenPipeError:
            raise died() from None
        first = fn(*args, x, 0, mid)
        second = _read(from_helper, first.nbytes)
        if second is None:
            raise died()
        return first, np.frombuffer(second).reshape(first.shape)

    try:
        yield both
    finally:
        os.close(to_helper)  # the helper reads the end of its input and leaves
        os.close(from_helper)
        if status is None:
            os.waitpid(pid, 0)


def _serve(fn, lo: int, hi: int, size: int, requests: int, replies: int, parents) -> None:
    """A halves helper's body: ``fn(x, lo, hi)`` for each ``x`` read, until
    the parent closes the pipe."""
    for fd in parents:
        os.close(fd)  # so that the parent's close reads as the end here
    while (x := _read(requests, size)) is not None:
        _write(replies, fn(np.frombuffer(x), lo, hi).tobytes())


def _read(fd: int, size: int) -> bytes | None:
    """Exactly ``size`` bytes from ``fd``, or None if the writer closed first."""
    chunks, got = [], 0
    while got < size:
        chunk = os.read(fd, size - got)
        if not chunk:
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
