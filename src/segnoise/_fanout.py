"""Deterministic fan-out of work over forked worker processes.

Two shapes of work are split here, and each gives the same bits whatever
the number of processes:

* ``map_ranges`` maps a function over consecutive index ranges. The Monte
  Carlo and the validation-bound pool are loops over independent, seeded
  items: item i draws from the i-th child of one SeedSequence. The clean
  and noisy arms of ``run_pipeline`` are two independent fits, each a pure
  function of its config and data. Computed in separate processes, all of
  them give the same results in the same order as one loop.
* ``halves`` runs one function on the two fixed halves ``[0, n//2)`` and
  ``[n//2, n)`` of a long loop, many times over: each epoch of a logistic
  fit sums its rows this way. One forked helper computes every second half
  while the caller computes the first; without it both are computed in
  turn. The halves are the same either way, and the caller adds them in
  the same order, so the sum has the same bits.

Nothing fans out inside a fan-out: a process that ``multiprocessing``
started (an arm worker, or a worker of the caller's own pool) runs
everything itself, so two CPUs never carry four busy processes.

Workers are forked rather than spawned: a forked worker starts without
re-importing numpy, scipy and segnoise, which costs a spawned one about
0.7 s, more than most calls take. A fork is unsafe while another thread of
the caller holds a lock that the worker needs. segnoise starts no thread
before the fork (the executor starts its own after it), and none of these
loops calls BLAS (the logistic loss runs on numpy's own ``einsum`` loops),
so OpenBLAS's idle threads are not needed in the workers, and two workers
do not each start a team of spinning BLAS threads. On Python >= 3.12,
forking a process that runs threads (OpenBLAS starts some at import)
raises a DeprecationWarning.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from functools import partial

import numpy as np


def _may_fork() -> bool:
    """Whether this process may fork workers onto other CPUs: the platform
    has ``fork``, and ``multiprocessing`` did not start this process."""
    # imported here, not at the top, so that `import segnoise` does not load it
    import multiprocessing

    return ("fork" in multiprocessing.get_all_start_methods()
            and multiprocessing.parent_process() is None)


def worker_count(requested: int, n: int, grain: int) -> int:
    """Processes that ``map_ranges`` runs for ``n`` items: the request capped
    at the CPU count and at the number of chunks of ``grain`` items.

    It is one where the platform cannot fork, and one inside any process
    that ``multiprocessing`` started: an arm worker of ``run_pipeline``, and
    also a worker of the caller's own pool, which already has its CPU.
    """
    count = max(1, min(int(requested), os.cpu_count() or 1, n // grain))
    return count if count == 1 or _may_fork() else 1


def map_ranges(fn, n: int, requested: int, grain: int, *args) -> list:
    """``fn(*args, lo, hi)`` over consecutive ranges that cover ``[0, n)``,
    one range per worker process, results in index order.

    ``grain`` is the fewest items that repay starting a worker. With one
    worker the call runs in this process as ``[fn(*args, 0, n)]``. ``fn``
    must be a module-level function. An exception raised in a worker is
    raised here, and no worker outlives the call.
    """
    workers = worker_count(requested, n, grain)
    if workers == 1:
        return [fn(*args, 0, n)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    edges = [n * k // workers for k in range(workers + 1)]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(partial(fn, *args), edges[:-1], edges[1:]))


def halves_in_turn(fn, n: int, *args):
    """``both(x) = (fn(*args, x, 0, n // 2), fn(*args, x, n // 2, n))``,
    both computed in this process."""
    mid = n // 2
    return lambda x: (fn(*args, x, 0, mid), fn(*args, x, mid, n))


@contextmanager
def halves(fn, n: int, grain: int, width: int, *args):
    """Yield ``both`` of ``halves_in_turn``, with the second half computed
    by a forked helper process when that pays.

    ``x`` is a float64 vector of ``width`` items and ``fn`` returns a
    float64 array. The helper is forked on entry when each half holds at
    least ``grain`` items and ``worker_count`` would give this process two
    CPUs. ``both(x)`` then sends ``x`` to the helper over a pipe, computes
    the first half here and reads the second half back; it returns the same
    bits as without the helper, because the helper runs the same ``fn`` on
    the same data. The helper leaves when the block ends, however it ends,
    and is reaped before this returns. If the helper dies, ``both`` raises
    RuntimeError rather than wait for it.
    """
    mid = n // 2
    if min(os.cpu_count() or 1, n // grain) < 2 or not _may_fork():
        yield halves_in_turn(fn, n, *args)
        return
    requests, to_helper = os.pipe()
    from_helper, replies = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(to_helper)  # so that the parent's close reads as the end here
        os.close(from_helper)
        _serve(partial(fn, *args), mid, n, 8 * width, requests, replies)
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


def _serve(fn, lo: int, hi: int, size: int, requests: int, replies: int):
    """The helper's loop: ``fn(x, lo, hi)`` for each ``x`` read, until the
    parent closes the pipe. Leaves with ``os._exit``, never by returning or
    raising into the caller's stack, which belongs to the parent."""
    code = 1
    try:
        # an interrupt ends the parent's block, which closes the pipe
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        while (x := _read(requests, size)) is not None:
            _write(replies, fn(np.frombuffer(x), lo, hi).tobytes())
        code = 0
    finally:
        os._exit(code)


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
