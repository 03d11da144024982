"""The fan-out of index ranges over forked helper processes."""

import ast
import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from segnoise import _fanout
from segnoise._fanout import map_ranges
from _oracles import (Decided, assert_no_child_left, decide_halves, decide_ranges, run_fresh,
                      start_fresh)


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


def no_fork():
    raise AssertionError("a helper process was forked")


def test_uneven_ranges_come_back_in_index_order(cpus):
    cpus(3)
    parts = map_ranges(span, 10, 3, "t")
    assert [p[:3] for p in parts] == [("t", 0, 3), ("t", 3, 6), ("t", 6, 10)]
    # range 0 ran in the caller, and every other range in its own helper
    assert parts[0][3] == os.getpid()
    assert len({p[3] for p in parts}) == 3
    assert_no_child_left()


def test_one_worker_or_a_small_input_starts_no_process(cpus, monkeypatch):
    monkeypatch.setattr(_fanout.os, "fork", no_fork)
    cpus(4)
    assert map_ranges(span, 10, 1, "t") == [("t", 0, 10, os.getpid())]
    assert map_ranges(span, 1, 4, "t") == [("t", 0, 1, os.getpid())]  # one item
    cpus(1)
    assert map_ranges(span, 10, 4, "t") == [("t", 0, 10, os.getpid())]
    assert_no_child_left()


def test_no_worker_is_started_for_a_process_pinned_to_one_cpu(cpus, monkeypatch):
    # taskset -c 0 on a 2-CPU host: two workers would take turns on one CPU
    from segnoise import centered_disk, expected_label_mc, noise
    from segnoise.noise import MarkovNoiseParams

    mask = centered_disk((9, 9), radius=3)
    p = MarkovNoiseParams(steps=1, theta1=0.6, theta2=0.7, seed=4)
    n = 2 * noise._TALLY_GRAIN  # two workers, but for the pinning
    cpus(1)
    alone = expected_label_mc(mask, p, n, threads=1)
    cpus(2)
    monkeypatch.setattr(_fanout.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(_fanout.os, "fork", no_fork)
    assert _fanout._processes(2, 100) == 1
    assert map_ranges(span, 10, 2, "t") == [("t", 0, 10, os.getpid())]
    assert np.array_equal(expected_label_mc(mask, p, n, threads=2), alone)
    assert_no_child_left()


def test_a_worker_exception_reaches_the_caller(cpus, deadline):
    cpus(2)
    with pytest.raises(ValueError, match=r"^range \[3, 7\) refused$"):
        map_ranges(fail_past_zero, 7, 2)
    assert_no_child_left()


def refuse(refused, lo, hi):
    """Range ``refused`` raises, range 0 returns, and every other range
    sleeps past the test's deadline."""
    if lo == refused:
        raise KeyError(f"range [{lo}, {hi}) refused")
    if lo > 0:
        time.sleep(60)
    return hi - lo


@pytest.mark.parametrize("refused", [0, 1], ids=["in-the-caller", "in-a-helper"])
def test_an_error_kills_the_other_helpers_without_waiting(cpus, deadline, refused):
    cpus(3)
    started = time.monotonic()
    with pytest.raises(KeyError, match=rf"range \[{refused}, {refused + 1}\) refused"):
        map_ranges(refuse, 3, 3, refused)
    assert time.monotonic() - started < 5
    assert_no_child_left()


class Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def raise_unpicklable(lo, hi):
    if lo > 0:
        raise Unpicklable("refused")
    return hi - lo


def die_past_zero(lo, hi):
    if lo > 0:
        os._exit(3)
    return hi - lo


@pytest.mark.parametrize("fn,message", [
    (raise_unpicklable, r"could not send back Unpicklable\('refused'\): cannot pickle"),
    (die_past_zero, r"ended without a result, with exit code 3$"),
], ids=["unpicklable-exception", "dead"])
def test_a_helper_that_cannot_answer_names_its_range(cpus, deadline, fn, message):
    cpus(2)
    with pytest.raises(RuntimeError,
                       match=r"^the helper process computing range \[3, 7\) " + message):
        map_ranges(fn, 7, 2)
    assert_no_child_left()


def inner_count(lo, hi):
    return _fanout._processes(2, 100), os.getpid()


def test_nothing_fans_out_inside_a_worker(cpus):
    # the caller while it computes range 0, and the forked helper, keep the
    # patched count of 2 and still run alone; the caller may fork once done
    cpus(2)
    assert _fanout._processes(2, 100) == 2
    (caller, caller_pid), (helper, helper_pid) = map_ranges(inner_count, 2, 2)
    assert (caller, helper) == (1, 1)
    assert caller_pid == os.getpid() != helper_pid
    assert _fanout._processes(2, 100) == 2
    with multiprocessing.get_context("fork").Pool(1) as pool:  # a caller's own pool
        assert pool.apply(inner_count, (0, 1))[0] == 1


def where(x, lo, hi):
    return np.array([lo, hi, x.sum(), os.getpid()], dtype=np.float64)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_halves_split_at_the_middle_with_or_without_a_helper(cpus, deadline, n):
    x = np.array([1.0, 2.5])
    cpus(1)
    with _fanout.halves(where, n, n, 2) as both:
        first, second = both(x)
    assert first.tolist() == [0, n // 2, 3.5, os.getpid()]
    assert second.tolist() == [n // 2, n, 3.5, os.getpid()]
    cpus(2)
    with _fanout.halves(where, n, n, 2) as both:
        for _ in range(3):
            first, second = both(x)
            assert first.tolist() == [0, n // 2, 3.5, os.getpid()]
            assert second[:3].tolist() == [n // 2, n, 3.5]
            assert second[3] != os.getpid() or n < 2  # in the helper, when there is one
    assert_no_child_left()


def test_no_helper_is_forked_for_a_process_pinned_to_one_cpu(cpus, monkeypatch):
    # taskset -c 0 on a 2-CPU host: the helper would share the caller's CPU
    cpus(2)
    monkeypatch.setattr(_fanout.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(_fanout.os, "fork", no_fork)
    with _fanout.halves(where, 10, 2, 2) as both:
        first, second = both(np.array([1.0, 2.5]))
    assert first.tolist() == [0, 5, 3.5, os.getpid()]
    assert second.tolist() == [5, 10, 3.5, os.getpid()]


def test_the_helper_is_reaped_when_the_block_raises(cpus, deadline):
    cpus(2)
    with pytest.raises(KeyError):
        with _fanout.halves(where, 10, 2, 2) as both:
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
        with _fanout.halves(die_in_the_helper, 10, 2, 1, os.getpid()) as both:
            both(np.zeros(1))
    assert_no_child_left()
    with pytest.raises(RuntimeError, match="exit code 3"):  # dead before a write
        with _fanout.halves(die_in_the_helper, 10, 2, 1, os.getpid()) as both:
            with pytest.raises(RuntimeError):
                both(np.zeros(1))
            both(np.zeros(1))
    assert_no_child_left()


# A caller that prints the pid of each process working for it, then waits.
# SIGTERM ends it at once: no finally block or context exit runs.
KILLED_CALLER = """\
import os, time
import numpy as np
os.cpu_count = lambda: 3
os.sched_getaffinity = lambda pid: {0, 1, 2}
from segnoise import _fanout
def nap(lo, hi):
    # one write per line: under PYTHONUNBUFFERED, print writes the pid and
    # its newline apart, and two processes' lines could interleave
    os.write(1, f"{os.getpid()}\\n".encode())
    time.sleep(60)
def pid(x, lo, hi):
    return np.array([os.getpid()], dtype=np.float64)
%s
"""

KILLED_FAN_OUTS = {
    "map_ranges": "_fanout.map_ranges(nap, 3, 3)",
    "halves": """with _fanout.halves(pid, 2, 2, 1) as both:
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
        for _ in range(3 if fan_out == "map_ranges" else 1):
            workers.append(int(caller.stdout.readline()))
        if fan_out == "map_ranges":  # range 0 runs in the caller, each other in a helper
            workers.remove(caller.pid)
            assert len(set(workers)) == 2
        assert caller.pid not in workers
        caller.send_signal(signal.SIGTERM)
        caller.wait()
        gone_by = time.monotonic() + 3.0  # a map_ranges helper looks every 0.2 s
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


def mc(mp, samples, theta3):
    """A one-step Monte Carlo of the ``verify`` workload's 64^2 disk: a walk
    with flips, or a tally without."""
    from segnoise import MarkovNoiseParams, centered_disk, expected_label_mc, noise

    mp.setattr(noise, "map_ranges", decide_ranges)
    p = MarkovNoiseParams(steps=1, theta1=0.7, theta2=0.9, theta3=theta3, seed=11)
    expected_label_mc(centered_disk((64, 64), radius=16), p, samples, threads=2)


def pool(mp, sites):
    """The pool of two distinct crops, whose shapes are set to hold ``sites``."""
    from segnoise import SynthSpec, harness

    shapes = iter([(400_000,), (sites - 400_000,)])
    mp.setattr(harness, "_crop_shape", lambda balls: next(shapes))
    mp.setattr(harness, "map_ranges", decide_ranges)
    harness._pool_gaps(SynthSpec(count=2, shape=(32, 32), family="ellipse-unions", seed=1),
                       0.7, 0.9)


def arms(mp, site_epochs):
    """The arm fits of one training image of one site, for ``site_epochs`` epochs."""
    from segnoise import SynthSpec, TrainConfig, harness, run_pipeline

    mp.setattr(harness, "synth_dataset", lambda spec: ([np.zeros((1, 1))] * spec.count,
                                                       [np.zeros((1, 1), bool)] * spec.count))
    mp.setattr(harness, "map_ranges", decide_ranges)
    run_pipeline(SynthSpec(count=3, shape=(12, 12)), lambda mask, seed: mask,
                 train_cfg=TrainConfig(epochs=site_epochs), n_val=1, n_test=1)


def fit(mp, rows, images=1):
    """A fit of ``images`` images of ``rows`` pixels between them."""
    from segnoise import LogisticSegmenter

    mp.setattr(_fanout, "halves", decide_halves)
    LogisticSegmenter().fit([np.zeros((1, rows // images))] * images,
                            [np.zeros((1, rows // images), bool)] * images)


def pipeline_arms(mp, _):
    """The arm fits of the ``pipeline`` workload: 12 training images of 64^2
    with tiny-se noise, 800 epochs."""
    from segnoise import (CorrectionParams, SynthSpec, TrainConfig, harness, preset,
                          run_pipeline)

    mp.setattr(harness, "map_ranges", decide_ranges)
    run_pipeline(SynthSpec(count=56, shape=(64, 64), blur_sigma=2.0, noise_sigma=0.2),
                 preset("tiny-se"), CorrectionParams(),
                 TrainConfig(learning_rate=1.0, epochs=800, l2=0.0), n_val=4, n_test=40)


def worked_example_pool(mp, _):
    """The disk pool of ``verify_validation_bound`` at the worked example,
    as the ``verify`` workload runs it."""
    from segnoise import ValidationBoundInputs, harness, verify_validation_bound

    mp.setattr(harness, "map_ranges", decide_ranges)
    inputs = ValidationBoundInputs(eps0=1.0, eps1=20.0, eps=2.0, alpha=0.05, image_size=65536)
    verify_validation_bound(inputs, n_trials=200, holdout=200, seed=5)


# Each caller on both sides of where it starts to fork, and at the benchmark
# workloads' sizes, on 2 CPUs: the caller, its work (samples, crop sites,
# site-epochs of one arm fit, rows) and the processes it must get. Each
# forks from two grains of work, the arm fits from one grain a fit.
FORK_DECISIONS = {
    "walk-799": (lambda mp, n: mc(mp, n, 0.05), 799, 1),
    "walk-800": (lambda mp, n: mc(mp, n, 0.05), 800, 2),
    "tally-3999": (lambda mp, n: mc(mp, n, 0.0), 3_999, 1),
    "tally-4000": (lambda mp, n: mc(mp, n, 0.0), 4_000, 2),
    "pool-799999": (pool, 799_999, 1),
    "pool-800000": (pool, 800_000, 2),
    "arms-599999": (arms, 599_999, 1),
    "arms-600000": (arms, 600_000, 2),
    "fit-16383": (fit, 16_383, 1),
    "fit-16384": (fit, 16_384, 2),
    "pipeline-arms": (pipeline_arms, 12 * 64 * 64 * 800, 2),
    "pipeline-refit": (lambda mp, n: fit(mp, n, images=12), 12 * 64 * 64, 2),
    "verify-tally": (lambda mp, n: mc(mp, n, 0.0), 16_000, 2),
    "verify-pool": (worked_example_pool, 3_156, 1),
}


@pytest.mark.parametrize("case", list(FORK_DECISIONS))
def test_each_caller_asks_for_the_processes_its_work_pays_for(cpus, monkeypatch, case):
    run, work, expected = FORK_DECISIONS[case]
    cpus(2)
    with monkeypatch.context() as mp, pytest.raises(Decided) as decided:
        run(mp, work)
    assert decided.value.args == (expected,)


# what a module needs to start a process or a thread, or to wait on one
FORK_MODULES = {"threading", "multiprocessing", "concurrent", "select", "signal"}


def fork_uses(path):
    """Lines of ``path`` that import one of ``FORK_MODULES`` or use ``os.fork``."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "os"):
            names = [f"os.{node.attr}"]
        else:
            continue
        uses += [f"{path.name}:{node.lineno}: {name}" for name in names
                 if name.split(".")[0] in FORK_MODULES or name == "os.fork"]
    return uses


def test_only_the_fan_out_module_forks():
    # so that _fanout._processes stays the one place that decides how many
    # processes run
    package = Path(_fanout.__file__).parent
    assert fork_uses(package / "_fanout.py")  # the check sees what it looks for
    others = sorted(set(package.glob("*.py")) - {package / "_fanout.py"})
    assert others
    assert [use for path in others for use in fork_uses(path)] == []
