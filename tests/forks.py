"""The processes a test forks, and a check that each has been reaped."""

import os

import pytest


def record_forks(monkeypatch) -> list[int]:
    """The pids of the processes os.fork starts in this test, as it runs."""
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
