"""Run the rookhl command line with spans around each layer's public calls.

    python3 tracer.py --out SPANS.json --workload NAME --run ID -- ARGS...

behaves like ``python3 -m rookhl ARGS...`` (same stdout, same exit code)
and, when the command returns, writes the spans it recorded to SPANS.json.
The spans come from the benchmark's side only: every public function named
in ``TRACED`` is replaced by a timing wrapper in each ``rookhl`` module
namespace that holds it, so callers that look the name up at call time
(``rookhl.rook.placements``, ``rookhl.verify.chromatic_x``, ...) go through
the wrapper.  Nothing under ``src/`` is modified.

A span is ``[id, parent, name, start, end, count]``; ``count`` is a work
count attached to the call (placements returned, colorings summed at q = 1,
1 for a cold transitions build) or ``null``.  Calls of ``free_cells``, one
per placement, are not kept one by one: they are folded into one span per
parent with ``count`` = calls and ``end - start`` = their summed time.
Spans of ``--jobs`` workers travel back to this process with each task's
result, so a run with process fan-out yields one complete span list.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import time

clock = time.perf_counter

# module -> public functions wrapped in that layer.
TRACED = {
    "rook": ("placements", "free_cells", "type_polynomials",
             "hl_coefficients"),
    "chromatic": ("chromatic_x", "llt_poly", "principal_direct"),
    "symfunc": ("transitions", "multiply"),
    "verify": ("check_main", "check_modular", "check_multiplicativity",
               "check_llt", "check_principal", "sweep"),
}
# Called once per placement: summed per parent instead of kept one by one.
FOLDED = {"rook.free_cells"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [None]
        self.folded = {}
        self.ids = itertools.count()
        self.built = set()

    def new_id(self):
        return f"{os.getpid()}:{next(self.ids)}"

    def open(self, name):
        span = [self.new_id(), self.stack[-1], name, clock(), None, None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span, count=None):
        span[4] = clock()
        span[5] = count
        self.stack.pop()

    def fold(self, name, seconds):
        key = (self.stack[-1], name)
        span = self.folded.get(key)
        if span is None:
            span = [self.new_id(), key[0], name, 0.0, 0.0, 0]
            self.folded[key] = span
            self.spans.append(span)
        span[4] += seconds
        span[5] += 1


TRACER = Tracer()


def _colorings(symfunc):
    return sum(c.at_one() for c in symfunc.coeffs.values())


COUNTS = {
    "rook.placements": len,
    "chromatic.chromatic_x": _colorings,
    "chromatic.llt_poly": _colorings,
    "chromatic.principal_direct": lambda poly: poly.at_one(),
}


def traced(name, fn):
    if name in FOLDED:
        @functools.wraps(fn)
        def folded(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                TRACER.fold(name, clock() - t0)
        return folded

    count = COUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = TRACER.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            TRACER.close(span)
            raise
        TRACER.close(span, count(result) if count else None)
        return result
    return wrapper


def traced_transitions(fn):
    """A transitions call is cold the first time this process asks for a
    degree (workers forked after the warm-up inherit the built degrees)."""
    @functools.wraps(fn)
    def wrapper(n, *args, **kwargs):
        cold = n not in TRACER.built
        span = TRACER.open("symfunc.transitions")
        try:
            return fn(n, *args, **kwargs)
        finally:
            TRACER.built.add(n)
            TRACER.close(span, 1 if cold else 0)
    return wrapper


def _run_task(func, task, parent):
    """Worker side of a traced fan-out: run one task under a span whose
    parent is the fan-out span, and hand back the spans it produced."""
    mark = len(TRACER.spans)
    TRACER.stack = [parent]
    TRACER.folded = {}
    span = TRACER.open("verify.task")
    try:
        result = func(task)
    finally:
        TRACER.close(span)
    spans = TRACER.spans[mark:]
    del TRACER.spans[mark:]
    return result, spans


def traced_pool(pool_class):
    """The sweep's process pool with one span from worker start-up to the
    last result, which is the parent of every worker task span."""

    class TracedPool(pool_class):
        def __init__(self, processes=None, *args, **kwargs):
            self.fanout = TRACER.open("verify.fanout")
            self.fanout[5] = processes
            super().__init__(processes, *args, **kwargs)

        def map(self, func, iterable, chunksize=None):
            jobs = [(func, task, self.fanout[0]) for task in iterable]
            try:
                pairs = self.starmap(_run_task, jobs, chunksize)
            finally:
                self.fanout[4] = clock()
                TRACER.stack.pop()
            out = []
            for result, spans in pairs:
                TRACER.spans.extend(spans)
                out.append(result)
            return out

    return TracedPool


def _replace(orig, wrapper):
    for modname, mod in list(sys.modules.items()):
        if modname == "rookhl" or modname.startswith("rookhl."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


def install():
    """Wrap every traced function in every rookhl namespace holding it."""
    import multiprocessing.pool
    for modname, names in TRACED.items():
        mod = importlib.import_module(f"rookhl.{modname}")
        for fname in names:
            orig = getattr(mod, fname)
            if fname == "transitions":
                wrapper = traced_transitions(orig)
            else:
                wrapper = traced(f"{modname}.{fname}", orig)
            _replace(orig, wrapper)
    symfunc = sys.modules["rookhl.symfunc"]
    symfunc.SymFunc.to_basis = traced("symfunc.to_basis",
                                      symfunc.SymFunc.to_basis)
    verify = sys.modules["rookhl.verify"]
    # verify calls transitions only to warm the cache before a sweep.
    verify.transitions = traced("verify.sweep.warmup", verify.transitions)
    verify.Pool = traced_pool(multiprocessing.pool.Pool)


def main(argv):
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    t0 = clock()
    import rookhl.cli
    import_s = clock() - t0
    install()
    import json
    span = TRACER.open("cli.main")
    try:
        rc = rookhl.cli.main(argv[split + 1:])
    finally:
        TRACER.close(span)
        sys.stdout.flush()
        with open(opts["--out"], "w") as fh:
            json.dump({"workload": opts["--workload"], "run": opts["--run"],
                       "import_s": import_s, "spans": TRACER.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
