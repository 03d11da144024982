"""Deterministic fan-out of index ranges over forked worker processes.

The Monte Carlo and the validation-bound pool are loops over independent,
seeded items: item i draws from the i-th child of one SeedSequence. The
clean and noisy arms of ``run_pipeline`` are two independent fits, each a
pure function of its config and data. Split into consecutive ranges and
computed in separate processes, all of them give the same results in the
same order as one loop, whatever the worker count.

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
from functools import partial


def worker_count(requested: int, n: int, grain: int) -> int:
    """Processes that ``map_ranges`` runs for ``n`` items: the request capped
    at the CPU count and at the number of chunks of ``grain`` items, or one
    when the platform cannot fork."""
    # imported here, as below, so that `import segnoise` does not load it
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, min(int(requested), os.cpu_count() or 1, n // grain))


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
