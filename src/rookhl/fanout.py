"""A process pool that forks its workers directly and pipes their results
back, for sweeps that fan out over --jobs processes.

ForkPool(processes) is a context manager whose map(fn, tasks) yields fn(t)
for each task, in task order, computed by at most `processes` workers
forked from the calling process with os.fork when the first result is
asked for.  The tasks are cut into contiguous batches of ceil(T / 4W)
tasks, the chunk size multiprocessing.Pool.map picks, and the workers pull
batch indices one at a time from one shared pipe, so a worker that draws
short batches takes more of them.  Each worker sends the results of each
batch as it finishes it, as one frame on its own pipe: a length prefix,
then the pickle, so that it holds none of them; then an end frame, and it
leaves by os._exit: no atexit handler, finalizer or inherited stdout
buffer runs in a worker.  The parent reads every result pipe at once, with
poll, so no worker waits long on a full pipe, unpickles each frame as it
arrives, and yields a batch's results once it and every earlier batch are
in, so it holds only the batches that came back early.

Forked workers need no pickled tasks or functions and inherit whatever the
parent has built.  Fork copies only the calling thread, so the caller
forks from a process with no other threads.  Each worker freezes the heap
it inherited before its first task, so that its collector does not walk,
and so copy, it; the caller's heap is left as it was.

A task's exception is raised in the parent after the results of every
earlier task.  A worker that exits non-zero, or before its end frame,
raises RuntimeError naming its exit status.  Every worker not yet reaped
is killed and reaped when map's iterator finishes, raises or is closed,
KeyboardInterrupt included; leaving the pool's with block closes every
iterator its map returned.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import struct

_INDEX = struct.Struct("I")
_LENGTH = struct.Struct("Q")


class ForkPool:
    def __init__(self, processes: int):
        self.processes = processes
        self._maps = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for results in self._maps:
            results.close()
        return False

    def map(self, fn, tasks):
        """An iterator of fn(t) for each task, in task order, closed when
        the with block is left."""
        results = self._map(fn, tasks)
        self._maps.append(results)
        return results

    def _map(self, fn, tasks):
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
                        gc.freeze()
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
            ended = set()       # result pipes whose last frame has come
            poller = select.poll()
            for fd in workers:
                poller.register(fd, select.POLLIN)
            batches = {}        # index -> (results, exc), not yet yielded
            done = 0            # batches yielded
            while workers:
                for fd, _ in poller.poll():
                    frame = _read_frame(fd)
                    if frame is None:
                        poller.unregister(fd)
                        pid = workers.pop(fd)
                        status = os.waitstatus_to_exitcode(
                            os.waitpid(pid, 0)[1])
                        _close(fds, fd)
                        if status or fd not in ended:
                            raise RuntimeError(
                                f"fork pool worker {pid} exited with "
                                f"status {status} before reporting")
                        continue
                    i, results, exc = frame
                    if i is None or exc is not None:
                        ended.add(fd)
                    if i is not None:
                        batches[i] = results, exc
                while done in batches:
                    results, exc = batches.pop(done)
                    done += 1
                    yield from results
                    if exc is not None:
                        raise exc
        finally:
            for fd in fds:
                os.close(fd)
            for pid in workers.values():
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass    # reaped just before an interrupt landed


def _close(fds, fd):
    fds.remove(fd)
    os.close(fd)


def _read_frame(fd):
    """The next frame on the result pipe fd, a length prefix and then a
    pickle of that length, unpickled, or None at EOF.  A worker writes a
    frame's two parts back to back, so once poll finds its first byte, the
    rest follows without waiting on a task."""
    head = _read_exactly(fd, _LENGTH.size)
    if head is None:
        return None
    body = _read_exactly(fd, _LENGTH.unpack(head)[0])
    return None if body is None else pickle.loads(body)


def _read_exactly(fd, n):
    """n bytes from fd, read into one buffer of that size, or None if fd
    reaches EOF first."""
    buf = bytearray(n)
    got = 0
    while got < n:
        k = os.readv(fd, [memoryview(buf)[got:]])
        if not k:
            return None
        got += k
    return buf


def _work(fn, tasks, size, index_r, result_w) -> int:
    """A worker: run each batch whose index it reads from index_r, until
    EOF, and send (index, results, None) for it to result_w as it finishes
    it, then (None, None, None).  A task that raises ends the worker's
    frames with (index, the batch's earlier results, exc).  Returns its
    exit code."""
    with open(result_w, "wb") as fh:
        while data := os.read(index_r, _INDEX.size):
            (i,) = _INDEX.unpack(data)
            results = []
            try:
                for t in tasks[i * size:(i + 1) * size]:
                    results.append(fn(t))
            except Exception as exc:
                _send(fh, (i, results, exc))
                return 0
            _send(fh, (i, results, None))
        _send(fh, (None, None, None))
    return 0


def _send(fh, frame) -> None:
    """Write frame to fh as its pickle's length and then the pickle, two
    writes, so the pickle is not copied to prefix it, and flush."""
    data = pickle.dumps(frame)
    fh.write(_LENGTH.pack(len(data)))
    fh.write(data)
    fh.flush()
