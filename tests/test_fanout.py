import gc
import os
import signal
import time

import pytest

from rookhl.fanout import ForkPool
from forks import assert_reaped, record_forks

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="ForkPool forks its workers")


@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers ForkPool forks in this test."""
    return record_forks(monkeypatch)


def square_in_worker(t):
    return (t * t, os.getpid())


@pytest.mark.parametrize("processes, n_tasks", [
    (2, 1),     # fewer tasks than workers: one worker
    (2, 5),     # fewer than 4 x processes: batches of one
    (3, 13),    # batches of two, the last one short
    (2, 37),    # batches of five, the last one of two
    (4, 100),
])
def test_map_returns_the_results_in_task_order(forked, processes, n_tasks):
    with ForkPool(processes) as pool:
        out = list(pool.map(square_in_worker, range(n_tasks)))
    assert [r for r, _ in out] == [t * t for t in range(n_tasks)]
    assert {pid for _, pid in out} <= set(forked)
    assert len(forked) == min(processes, n_tasks)
    assert_reaped(forked)


def test_map_over_no_tasks_forks_nothing(forked):
    assert list(ForkPool(2).map(square_in_worker, [])) == []
    assert forked == []


def freeze_count_in_worker(t):
    return gc.get_freeze_count()


def test_each_worker_freezes_its_heap_and_the_callers_is_left(forked):
    # A worker freezes the heap it inherited, more than the caller had
    # frozen, so its collector never walks, and so never copies, it; the
    # caller's collector is left as it was.
    before = gc.get_freeze_count()
    with ForkPool(2) as pool:
        counts = list(pool.map(freeze_count_in_worker, range(8)))
    assert all(c > before for c in counts)
    assert gc.get_freeze_count() == before
    assert_reaped(forked)


def raise_on_seven(t):
    if t == 7:
        raise ValueError(f"task {t} failed")
    return t


def test_a_task_error_is_raised_in_the_parent(forked):
    with pytest.raises(ValueError, match="task 7 failed"):
        list(ForkPool(2).map(raise_on_seven, range(20)))
    assert_reaped(forked)


def test_a_task_error_comes_after_every_earlier_result(forked):
    # Batches of three: task 7 fails in the middle of the third, whose
    # first result still comes out, as a run in one process would give it.
    out = []
    with pytest.raises(ValueError, match="task 7 failed"):
        for r in ForkPool(2).map(raise_on_seven, range(20)):
            out.append(r)
    assert out == list(range(7))
    assert_reaped(forked)


@pytest.mark.parametrize("code", [3, 0])
def test_a_worker_that_dies_raises_runtime_error(forked, code):
    # A worker that leaves in a task, with any status, never writes its end
    # record, so its batches cannot be taken as complete.
    def exit_on_seven(t):
        if t == 7:
            os._exit(code)
        return t

    with pytest.raises(RuntimeError, match=f"status {code} "):
        list(ForkPool(2).map(exit_on_seven, range(20)))
    assert_reaped(forked)


def sleep_long(t):
    time.sleep(60)


def test_an_interrupt_kills_and_reaps_the_running_workers(forked):
    # SIGALRM stands in for the terminal's SIGINT while the parent waits
    # on its workers' results; the workers, busy for a minute, must be
    # killed, not waited for.  Timers are not inherited across fork.
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    old = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        with pytest.raises(KeyboardInterrupt):
            list(ForkPool(2).map(sleep_long, range(4)))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.monotonic() - start < 30
    assert len(forked) == 2
    assert_reaped(forked)


def _within(seconds):
    """A SIGALRM timer that raises TimeoutError in this process after
    seconds, unless cancelled by calling what this returns."""
    def timeout(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)

    def cancel():
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return cancel


def test_map_yields_before_its_last_batch_has_run(forked):
    # The last task waits until the test has taken the first result, so a
    # map that waits for every batch would wait forever; the alarm ends it.
    go_r, go_w = os.pipe()
    n_tasks = 8

    def last_waits(t):
        if t == n_tasks - 1:
            os.read(go_r, 1)
        return t

    cancel = _within(10)
    try:
        results = ForkPool(2).map(last_waits, range(n_tasks))
        first = next(results)
        os.write(go_w, b"x")
        out = [first, *results]
    finally:
        cancel()
        os.close(go_r)
        os.close(go_w)
    assert out == list(range(n_tasks))
    assert_reaped(forked)


def test_a_batch_back_early_waits_for_every_earlier_batch(forked):
    # The first task waits until the last one has run, so every other
    # batch comes back before the first; each must still come out after
    # its predecessors.
    go_r, go_w = os.pipe()
    n_tasks = 12

    def first_waits_for_last(t):
        if t == 0:
            os.read(go_r, 1)
        if t == n_tasks - 1:
            os.write(go_w, b"x")
        return t

    cancel = _within(10)
    try:
        out = list(ForkPool(2).map(first_waits_for_last, range(n_tasks)))
    finally:
        cancel()
        os.close(go_r)
        os.close(go_w)
    assert out == list(range(n_tasks))
    assert_reaped(forked)


def first_then_sleep_long(t):
    if t:
        time.sleep(60)
    return t


def test_closing_the_results_early_kills_and_reaps_the_workers(forked):
    # A reader that stops after the first result, such as a pipe into
    # `head -1`, closes the iterator: the workers, busy for a minute, must
    # be killed, not waited for.
    start = time.monotonic()
    with ForkPool(2) as pool:
        results = pool.map(first_then_sleep_long, range(4))
        assert next(results) == 0
        results.close()
    assert time.monotonic() - start < 30
    assert len(forked) == 2
    assert_reaped(forked)


def test_leaving_the_pool_closes_the_results_it_returned(forked):
    start = time.monotonic()
    with ForkPool(2) as pool:
        results = pool.map(first_then_sleep_long, range(4))
        assert next(results) == 0
    assert time.monotonic() - start < 30
    assert_reaped(forked)
    assert list(results) == []
