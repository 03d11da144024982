"""The fan-out of index ranges over forked worker processes."""

import concurrent.futures
import multiprocessing
import os

import numpy as np
import pytest

from segnoise import _fanout
from segnoise._fanout import map_ranges


def span(tag, lo, hi):
    return tag, lo, hi, os.getpid()


def fail_past_zero(lo, hi):
    if lo > 0:
        raise ValueError(f"range [{lo}, {hi}) refused")
    return hi - lo


@pytest.fixture
def cpus(monkeypatch):
    def set_count(n):
        monkeypatch.setattr(_fanout.os, "cpu_count", lambda: n)
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
