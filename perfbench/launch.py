"""Start one command, wait for it, and report how it ran.

    python3 -I -S launch.py [--probe CPU] REPORT CMD ARGS...

CMD (an absolute path) runs with this process's standard streams and
environment.  When it has exited, REPORT receives one JSON object: wall
seconds from start to exit, CPU seconds of its process tree, the peak
resident set (KiB) of the largest process in that tree, and its exit code.

The command is started from this small interpreter rather than from
``run.py`` because Linux carries the peak resident set of the process
that forks into the child's ``ru_maxrss``, and ``run.py`` is larger than
some of the commands it measures.

With ``--probe CPU`` the command and this process are bound to that one
CPU, and while the command runs this process, at nice 10, repeats a fixed
pure-Python loop (``probe_chunk``) and counts how often it completes per
second of its own CPU time.  That rate is the speed of the CPU during the
command, sampled in the time slices the scheduler interleaves with it;
REPORT then also holds ``probe_rate``.  On a shared virtual machine a CPU
can run the same code 1.6 times slower for seconds at a time, and the
command's CPU time moves with it; CPU time times the probe rate does not.
"""

import os
import sys
import time


def probe_chunk():
    """The probe's unit of work: dict updates keyed by small ints, the
    kind of work the measured program does.  Changing it changes every
    normalised figure."""
    q = {}
    for a in range(100):
        for b in range(20):
            k = (a * b) % 37
            q[k] = q.get(k, 0) + a * b
    return q


args = sys.argv[1:]
cpu = None
if args[0] == "--probe":
    cpu, args = int(args[1]), args[2:]
    os.sched_setaffinity(0, {cpu})
report, cmd = args[0], args[1:]
t0 = time.perf_counter()
pid = os.posix_spawn(cmd[0], cmd, os.environ)
probe = ""
if cpu is None:
    _, status, usage = os.wait4(pid, 0)
else:
    os.nice(10)
    chunks, p0 = 0, time.process_time()
    while True:
        probe_chunk()
        chunks += 1
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
    probe = ', "probe_rate": %r' % (chunks / (time.process_time() - p0))
wall = time.perf_counter() - t0
with open(report, "w") as fh:
    fh.write('{"wall": %r, "cpu": %r, "rss_kb": %d, "rc": %d%s}\n' % (
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
        os.waitstatus_to_exitcode(status), probe))
