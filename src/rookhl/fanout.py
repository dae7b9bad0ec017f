"""A process pool that forks its workers directly and pipes their results
back, for sweeps that fan out over --jobs processes.

ForkPool(processes) is a context manager whose map(fn, tasks) returns
[fn(t) for t in tasks], in task order, computed by at most `processes`
workers forked from the calling process with os.fork.  The tasks are cut
into contiguous batches of ceil(T / 4W) tasks, the chunk size
multiprocessing.Pool.map picks, and the workers pull batch indices one at
a time from one shared pipe, so a worker that draws short batches takes
more of them.  Each worker pickles the results of each batch onto its own
pipe as it finishes the batch, so that it holds none of them, then an end
record, and leaves by os._exit: no atexit handler, finalizer or inherited
stdout buffer runs in a worker.  The parent reads every result pipe at
once, with poll, so no worker waits long on a full pipe.

Forked workers need no pickled tasks or functions and inherit whatever the
parent has built.  Fork copies only the calling thread, so the caller
forks from a process with no other threads; verify.sweep also freezes its
heap first, so that the workers' collectors do not walk, and so copy, it.

A task's exception is re-raised in the parent.  A worker that exits
non-zero, or before its end record, raises RuntimeError naming its exit
status.  Every worker not yet reaped is killed and reaped before map
returns or raises, KeyboardInterrupt included.
"""

from __future__ import annotations

import io
import os
import pickle
import select
import signal
import struct

_INDEX = struct.Struct("I")


class ForkPool:
    def __init__(self, processes: int):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks) -> list:
        tasks = list(tasks)
        size = -(-len(tasks) // (4 * self.processes)) or 1
        n_batches = -(-len(tasks) // size)
        index_r, index_w = os.pipe()
        fds = [index_r, index_w]    # open in this process
        workers = {}                # result pipe -> pid, not yet reaped
        try:
            for _ in range(min(self.processes, n_batches)):
                result_r, result_w = os.pipe()
                fds += (result_r, result_w)
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        os.close(index_w)
                        code = _work(fn, tasks, size, index_r, result_w)
                    finally:
                        os._exit(code)
                workers[result_r] = pid
                _close(fds, result_w)
            # The indices go out once every worker has forked and closed
            # its copy of the write end, so the pipe's buffer bounds no
            # batch count, and the workers read EOF once they are drained.
            _close(fds, index_r)
            with open(index_w, "wb", closefd=False) as fh:
                fh.write(struct.pack(f"{n_batches}I", *range(n_batches)))
            _close(fds, index_w)
            # Each worker's stream is unpickled at its EOF.
            received = {fd: [] for fd in workers}
            poller = select.poll()
            for fd in workers:
                poller.register(fd, select.POLLIN)
            batches = {}
            while workers:
                for fd, _ in poller.poll():
                    chunk = os.read(fd, 1 << 16)
                    if chunk:
                        received[fd].append(chunk)
                        continue
                    poller.unregister(fd)
                    pid = workers[fd]
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    del workers[fd]
                    _close(fds, fd)
                    records = [] if status else _loads_all(
                        b"".join(received.pop(fd)))
                    if not records or records[-1][0] is not None:
                        raise RuntimeError(f"fork pool worker {pid} exited "
                                           f"with status {status} before "
                                           "reporting")
                    *done, (_, exc) = records
                    if exc is not None:
                        raise exc
                    batches.update(done)
        finally:
            for fd in fds:
                os.close(fd)
            for pid in workers.values():
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass    # reaped just before an interrupt landed
        return [r for i in range(n_batches) for r in batches[i]]


def _close(fds, fd):
    fds.remove(fd)
    os.close(fd)


def _loads_all(data: bytes) -> list:
    """The objects pickled one after another into data."""
    stream = io.BytesIO(data)
    out = []
    while stream.tell() < len(data):
        out.append(pickle.load(stream))
    return out


def _work(fn, tasks, size, index_r, result_w) -> int:
    """A worker: run each batch whose index it reads from index_r, until
    EOF, and write (index, results) for it to result_w as it finishes it,
    then (None, None), or (None, exc) for a task's exception, each pickled
    on its own.  Returns its exit code."""
    with open(result_w, "wb") as fh:
        try:
            while data := os.read(index_r, _INDEX.size):
                (i,) = _INDEX.unpack(data)
                fh.write(pickle.dumps(
                    (i, [fn(t) for t in tasks[i * size:(i + 1) * size]])))
            end = (None, None)
        except Exception as exc:
            end = (None, exc)
        fh.write(pickle.dumps(end))
    return 0
