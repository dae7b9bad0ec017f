import os
import signal
import time

import pytest

from rookhl.fanout import ForkPool

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="ForkPool forks its workers")


@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers ForkPool forks in this test."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    # A worker the pool reaped is no child of this process any more.  Other
    # children of the test process, such as a forkserver another test left
    # running, are no concern of the pool's, so each pid is asked for.
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


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
        out = pool.map(square_in_worker, range(n_tasks))
    assert [r for r, _ in out] == [t * t for t in range(n_tasks)]
    assert {pid for _, pid in out} <= set(forked)
    assert len(forked) == min(processes, n_tasks)
    assert_reaped(forked)


def test_map_over_no_tasks_forks_nothing(forked):
    assert ForkPool(2).map(square_in_worker, []) == []
    assert forked == []


def raise_on_seven(t):
    if t == 7:
        raise ValueError(f"task {t} failed")
    return t


def test_a_task_error_is_raised_in_the_parent(forked):
    with pytest.raises(ValueError, match="task 7 failed"):
        ForkPool(2).map(raise_on_seven, range(20))
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
        ForkPool(2).map(exit_on_seven, range(20))
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
            ForkPool(2).map(sleep_long, range(4))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.monotonic() - start < 30
    assert len(forked) == 2
    assert_reaped(forked)

