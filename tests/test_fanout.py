"""The fan-out of index ranges over forked worker processes."""

import concurrent.futures
import multiprocessing
import os

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
