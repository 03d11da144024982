"""The fan-out of index ranges over forked worker processes."""

import concurrent.futures
import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from segnoise import _fanout
from segnoise._fanout import map_ranges
from _oracles import run_fresh, start_fresh


def span(tag, lo, hi):
    return tag, lo, hi, os.getpid()


def fail_past_zero(lo, hi):
    if lo > 0:
        raise ValueError(f"range [{lo}, {hi}) refused")
    return hi - lo


@pytest.fixture
def cpus(monkeypatch):
    def set_count(n):  # in the CPU count and in this process's affinity set
        monkeypatch.setattr(_fanout.os, "cpu_count", lambda: n)
        monkeypatch.setattr(_fanout.os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
    return set_count


def test_uneven_ranges_come_back_in_index_order(cpus):
    cpus(3)
    parts = map_ranges(span, 10, 3, 1, "t")
    assert [p[:3] for p in parts] == [("t", 0, 3), ("t", 3, 6), ("t", 6, 10)]
    assert os.getpid() not in {p[3] for p in parts}  # each range ran in a worker
    assert multiprocessing.active_children() == []


def test_one_worker_or_a_small_input_starts_no_process(cpus, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cpus(4)
    assert map_ranges(span, 10, 1, 1, "t") == [("t", 0, 10, os.getpid())]
    assert map_ranges(span, 10, 4, 6, "t") == [("t", 0, 10, os.getpid())]
    cpus(1)
    assert map_ranges(span, 10, 4, 1, "t") == [("t", 0, 10, os.getpid())]


def test_no_worker_is_started_for_a_process_pinned_to_one_cpu(cpus, monkeypatch):
    # taskset -c 0 on a 2-CPU host: two workers would take turns on one CPU
    from segnoise import centered_disk, expected_label_mc, noise
    from segnoise.noise import MarkovNoiseParams

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker process was started")

    mask = centered_disk((9, 9), radius=3)
    p = MarkovNoiseParams(steps=1, theta1=0.6, theta2=0.7, seed=4)
    n = 2 * noise._TALLY_GRAIN  # two workers, but for the pinning
    cpus(1)
    alone = expected_label_mc(mask, p, n, threads=1)
    cpus(2)
    monkeypatch.setattr(_fanout.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert _fanout.worker_count(2, 100, 1) == 1
    assert map_ranges(span, 10, 2, 1, "t") == [("t", 0, 10, os.getpid())]
    assert np.array_equal(expected_label_mc(mask, p, n, threads=2), alone)


def test_a_worker_exception_reaches_the_caller(cpus):
    cpus(2)
    with pytest.raises(ValueError, match=r"^range \[3, 7\) refused$"):
        map_ranges(fail_past_zero, 7, 2, 1)
    assert multiprocessing.active_children() == []


def inner_count(lo, hi):
    return _fanout.worker_count(2, 100, 1)


def test_nothing_fans_out_inside_a_worker(cpus):
    # the forked workers keep the patched count of 2, and still run alone
    cpus(2)
    assert _fanout.worker_count(2, 100, 1) == 2
    assert map_ranges(inner_count, 2, 2, 1) == [1, 1]
    with multiprocessing.get_context("fork").Pool(1) as pool:  # a caller's own pool
        assert pool.apply(inner_count, (0, 1)) == 1


def where(x, lo, hi):
    return np.array([lo, hi, x.sum(), os.getpid()], dtype=np.float64)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_halves_split_at_the_middle_with_or_without_a_helper(cpus, deadline, n):
    x = np.array([1.0, 2.5])
    cpus(1)
    with _fanout.halves(where, n, 1, 2) as both:
        first, second = both(x)
    assert first.tolist() == [0, n // 2, 3.5, os.getpid()]
    assert second.tolist() == [n // 2, n, 3.5, os.getpid()]
    cpus(2)
    with _fanout.halves(where, n, 1, 2) as both:
        for _ in range(3):
            first, second = both(x)
            assert first.tolist() == [0, n // 2, 3.5, os.getpid()]
            assert second[:3].tolist() == [n // 2, n, 3.5]
            assert second[3] != os.getpid() or n < 2  # in the helper, when there is one
    assert_no_child_left()


def test_no_helper_is_forked_for_a_process_pinned_to_one_cpu(cpus, monkeypatch):
    # taskset -c 0 on a 2-CPU host: the helper would share the caller's CPU
    def no_fork():
        raise AssertionError("a helper process was forked")

    cpus(2)
    monkeypatch.setattr(_fanout.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(_fanout.os, "fork", no_fork)
    with _fanout.halves(where, 10, 1, 2) as both:
        first, second = both(np.array([1.0, 2.5]))
    assert first.tolist() == [0, 5, 3.5, os.getpid()]
    assert second.tolist() == [5, 10, 3.5, os.getpid()]


def test_the_helper_is_reaped_when_the_block_raises(cpus, deadline):
    cpus(2)
    with pytest.raises(KeyError):
        with _fanout.halves(where, 10, 1, 2) as both:
            both(np.zeros(2))
            raise KeyError("mid-descent")
    assert_no_child_left()


def die_in_the_helper(parent, x, lo, hi):
    if os.getpid() != parent:
        os._exit(3)
    return np.zeros(1)


def test_a_helper_that_dies_makes_the_caller_raise(cpus, deadline):
    cpus(2)
    with pytest.raises(RuntimeError, match=r"^the helper process computing rows \[5, 10\) "
                                           r"ended mid-fit with exit code 3$"):
        with _fanout.halves(die_in_the_helper, 10, 1, 1, os.getpid()) as both:
            both(np.zeros(1))
    assert_no_child_left()
    with pytest.raises(RuntimeError, match="exit code 3"):  # dead before a write
        with _fanout.halves(die_in_the_helper, 10, 1, 1, os.getpid()) as both:
            with pytest.raises(RuntimeError):
                both(np.zeros(1))
            both(np.zeros(1))
    assert_no_child_left()


# A caller that prints the pid of each process working for it, then waits.
# SIGTERM ends it at once: no finally block or context exit runs.
KILLED_CALLER = """\
import os, time
import numpy as np
os.cpu_count = lambda: 2
os.sched_getaffinity = lambda pid: {0, 1}
from segnoise import _fanout
def nap(lo, hi):
    # one write per line: under PYTHONUNBUFFERED, print writes the pid and
    # its newline apart, and two workers' lines could interleave
    os.write(1, f"{os.getpid()}\\n".encode())
    time.sleep(60)
def pid(x, lo, hi):
    return np.array([os.getpid()], dtype=np.float64)
%s
"""

KILLED_FAN_OUTS = {
    "map_ranges": "_fanout.map_ranges(nap, 2, 2, 1)",
    "halves": """with _fanout.halves(pid, 2, 1, 1) as both:
    print(int(both(np.zeros(1))[1][0]), flush=True)
    time.sleep(60)""",
}


def alive(pid):
    """Whether ``pid`` runs; a zombie, which only waits to be reaped, does not."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
@pytest.mark.parametrize("fan_out", sorted(KILLED_FAN_OUTS))
def test_workers_leave_when_their_caller_is_killed(deadline, fan_out):
    caller = start_fresh(KILLED_CALLER % KILLED_FAN_OUTS[fan_out])
    workers = []
    try:
        for _ in range(2 if fan_out == "map_ranges" else 1):
            workers.append(int(caller.stdout.readline()))
        assert caller.pid not in workers
        caller.send_signal(signal.SIGTERM)
        caller.wait()
        gone_by = time.monotonic() + 3.0  # a map_ranges worker looks every 0.2 s
        while any(map(alive, workers)) and time.monotonic() < gone_by:
            time.sleep(0.02)
        assert not any(map(alive, workers))
    finally:
        caller.kill()
        caller.wait()
        caller.stdout.close()
        for pid in filter(alive, workers):  # a failed run leaves no process behind
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


# A forked worker inherits its parent's modules but imports anything else
# anew, about 0.35 s for scipy.ndimage, so a fan-out whose workers call scipy
# must find it imported when it forks. A fresh interpreter starts without it.
SCIPY_AT_FORK = """\
import json, os, sys
os.cpu_count = lambda: 2
from segnoise import (CorrectionParams, MarkovNoiseParams, SynthSpec, TrainConfig,
                      ValidationBoundInputs, centered_disk, harness, noise)
seen = []
def watch(module):
    fan_out = module.map_ranges
    def map_ranges(fn, *args):
        seen.append([fn.__name__, "scipy.ndimage" in sys.modules])
        return fan_out(fn, *args)
    module.map_ranges = map_ranges
watch(harness)
watch(noise)
%s
print(json.dumps(seen))
"""

SCIPY_FAN_OUTS = {
    # V = 100 plus 10 held out: a pool of 110 256^2 ellipse unions, whose
    # distinct crops hold enough sites for two workers
    "_crop_gaps": """harness.verify_validation_bound(
        ValidationBoundInputs(eps0=0.5, eps1=2.0, eps=1.0, alpha=0.5, image_size=65536),
        n_trials=5, holdout=10, family="ellipse-unions", seed=3)""",
    "_mc_votes": """noise.expected_label_mc(
        centered_disk((9, 9), radius=3),
        MarkovNoiseParams(steps=2, theta1=0.6, theta2=0.7, smooth_sigma=0.8, seed=5),
        2000, threads=2)""",
    # blur 0, so that synth_dataset calls no scipy; the fits' features do
    "_fit_arms": """harness.run_pipeline(
        SynthSpec(count=8, shape=(16, 16), blur_sigma=0.0, noise_sigma=0.2),
        MarkovNoiseParams(steps=2, theta1=0.9, theta2=0.6), CorrectionParams(max_iters=1),
        TrainConfig(learning_rate=1.0, epochs=60), n_val=2, n_test=2)""",
}


@pytest.mark.parametrize("fan_out", sorted(SCIPY_FAN_OUTS))
def test_a_fan_out_whose_workers_call_scipy_imports_it_before_forking(fan_out):
    proc = run_fresh(SCIPY_AT_FORK % SCIPY_FAN_OUTS[fan_out])
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == [[fan_out, True]]
