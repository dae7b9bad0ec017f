"""Benchmark of the rookhl command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
    python3 perfbench/run.py --summarize DIR
    python3 perfbench/run.py --make-golden

Run it from the root of a rookhl source tree: the program under test is
``src/rookhl`` of that tree, started as ``python3 -m rookhl ...`` in a fresh
process per command, so every run pays import and cache building the way a
user does.  A workload is a closed loop of one client: the next command
starts when the previous one has exited.

Workloads, each round one command for a sweep (1-4 s on a 2-vCPU x86-64
virtual machine) or one pass over the query pool (about 20 s there):

* ``rook-sweep``      verify --identity mult --n-max 7 (placements and free
                      cells; no colorings).
* ``coloring-sweep``  verify --identity principal --n-max 5 (coloring
                      recursion; no basis change).
* ``main-parallel``   verify --identity main --n-max 6 --jobs 2 (colorings,
                      placements, basis change and process fan-out).
* ``cli-queries``     a pool of 40 single-path ``expand`` and ``rook``
                      queries with n in 7..9, sent in an order the seed
                      draws.

The sweeps enumerate every path up to their size, so the seed changes
nothing in them.  A run measures whole rounds, ending at the round boundary
nearest to ``--seconds``, and reports medians.  Every command's exit code
and stdout are checked against the golden outputs that ``--make-golden``
recorded under ``perfbench/golden`` when the benchmark was defined;
``main-parallel`` is checked against the ``--jobs 1`` output.  ``--trace 1``
alternates untraced rounds with rounds run under ``tracer.py`` and reports
the per-layer metrics.  The last line on stdout is the JSON result; a
readable summary and the provenance go to stderr and to ``.perfbench/out``.

The end-to-end times (``work_s``, ``setup_s`` and the query times) are not
wall time.  On a shared 2-vCPU x86-64 virtual machine a CPU was seen to
run the same code up to 1.6 times slower for seconds at a time, which
moved the median wall time of whole runs by 30% and more between seeds.  So
each timed command runs bound to one CPU beside a low-priority probe that
measures that CPU's speed meanwhile (``launch.py``), and its process
tree's CPU seconds are scaled by that speed to reference seconds: the CPU
seconds the command would take where the probe makes ``REFERENCE_RATE``
chunks per CPU second.  A faster program needs fewer reference seconds;
a slower machine does not.  The raw wall and CPU seconds of every round
are kept in the stored record.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory as committed
from tracer import FOLDED  # noqa: E402

clock = time.perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0
SETUP_REPS = 7
# Probe chunks per CPU second (``launch.py``) that define a reference
# second: a command that used c CPU seconds while the probe ran at rate r
# did c * r / REFERENCE_RATE reference seconds of work.
REFERENCE_RATE = 3000.0

# name -> (identity, n_max, jobs)
SWEEPS = {
    "rook-sweep": ("mult", 7, 1),
    "coloring-sweep": ("principal", 5, 1),
    "main-parallel": ("main", 6, 2),
}
QUERY_KINDS = {
    "XP": ["expand", "--what", "X", "--basis", "P"],
    "Xs": ["expand", "--what", "X", "--basis", "s"],
    "Ls": ["expand", "--what", "LLT", "--basis", "s"],
    "rook": ["rook"],
}
# Query classes: kind and n.  X and LLT in the Schur basis stop at n = 8:
# at n = 9 one query takes 3-6 s.  A round sends every pool query of every
# entry once, in seeded order, so all runs measure the same queries.  Xs8
# and Ls8, the slowest classes (0.6-1.1 s here), are listed twice, so the
# query tail (ten samples beyond it) falls inside them.
STRATA = [("XP", 7), ("XP", 8), ("XP", 9), ("Xs", 7), ("Xs", 8), ("Xs", 8),
          ("Ls", 7), ("Ls", 8), ("Ls", 8), ("rook", 7), ("rook", 8),
          ("rook", 9)]
POOL_SEED = 20250617
POOL_PER_STRATUM = 4
QUERIES_N_MAX = max(n for _, n in STRATA)
WORKLOADS = list(SWEEPS) + ["cli-queries"]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def sweep_argv(name, jobs=None):
    identity, n_max, default_jobs = SWEEPS[name]
    return ["verify", "--identity", identity, "--n-max", str(n_max),
            "--jobs", str(default_jobs if jobs is None else jobs)]


# -- running the program ------------------------------------------------------

_cpus = sorted(os.sched_getaffinity(0))
_launches = 0


def next_cpu():
    """The CPUs this process may use, in turn."""
    global _launches
    _launches += 1
    return _cpus[_launches % len(_cpus)]


def run_cli(argv, timeout, trace_out=None, workload="", run_id="",
            probe=False):
    """Run one rookhl command in a fresh process and wait for it.

    Returns wall seconds, exit code and stdout text, and the CPU seconds
    of its process tree and the peak resident set (KiB) of the largest
    process in it, as ``launch.py`` reports them.  With ``probe`` the
    command runs bound to one CPU beside the speed probe of ``launch.py``,
    and ``work`` holds its CPU time in reference seconds.
    """
    if trace_out is None:
        cmd = [sys.executable, "-m", "rookhl", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), "--out",
               str(trace_out), "--workload", workload, "--run", run_id,
               "--", *argv]
    return run_cmd(cmd, timeout, probe)


def run_cmd(cmd, timeout, probe=False):
    launch = [sys.executable, "-I", "-S", str(BENCH / "launch.py")]
    if probe:
        launch += ["--probe", str(next_cpu())]
    fd, report = tempfile.mkstemp(dir=WORK, suffix=".run")
    os.close(fd)
    report = Path(report)
    try:
        with tempfile.TemporaryFile(dir=WORK) as err:
            proc = subprocess.Popen(
                [*launch, str(report), *cmd],
                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err, start_new_session=True)
            timer = threading.Timer(max(timeout, 0.1), _kill_group,
                                    (proc.pid,))
            timer.start()
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                timer.cancel()
                proc.wait()
            if proc.returncode == 0 and report.stat().st_size:
                res = json.loads(report.read_text())
            else:
                res = {"wall": 0.0, "cpu": 0.0, "rss_kb": 0,
                       "rc": proc.returncode}
            if res["rc"] not in (0, 1):
                err.seek(0)
                tail = err.read()[-2000:].decode(errors="replace")
                print(f"command {cmd[1:]} exited {res['rc']}:\n{tail}",
                      file=sys.stderr)
    finally:
        report.unlink()
    res["out"] = out.decode(errors="replace")
    if "probe_rate" in res:
        res["work"] = res["cpu"] * res["probe_rate"] / REFERENCE_RATE
    return res


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def preflight():
    """Fail unless this tree's own rookhl is importable; the import also
    leaves compiled bytecode behind, so timed imports start alike."""
    if not (SRC / "rookhl" / "__init__.py").is_file():
        raise BenchError(f"no rookhl package under {SRC}")
    if not GOLDEN.is_dir():
        raise BenchError(f"no golden outputs under {GOLDEN}")
    r = subprocess.run([sys.executable, "-c",
                        "import rookhl.cli, sys; "
                        "sys.stdout.write(rookhl.__file__)"],
                       cwd=ROOT, env=child_env(), capture_output=True,
                       text=True, timeout=60)
    if r.returncode != 0 or not r.stdout.startswith(str(SRC)):
        raise BenchError(f"cannot import rookhl from {SRC}: {r.stderr}")


# -- correctness gate ---------------------------------------------------------

SUMMARY = re.compile(r"^\d+ checks: ")


def _report_lines(text):
    return [line for line in text.splitlines()
            if line and not line[0].isspace() and not SUMMARY.match(line)]


def score_sweep(out, rc, golden):
    """(attempted, failed) for one sweep against its golden stdout.

    attempted is the number of golden report lines.  failed counts golden
    checks without their verified line, plus report lines that are not
    expected (unknown or repeated checks); a non-zero exit code or any
    byte difference, such as a changed order, fails at least one.
    """
    expected = Counter(_report_lines(golden))
    actual = _report_lines(out)
    verified = Counter(line for line in actual
                       if line.startswith("verified  "))
    as_verified = Counter("verified  " + line.partition("  ")[2]
                          for line in actual)
    missing = sum((expected - verified).values())
    extra = sum((as_verified - expected).values())
    attempted = sum(expected.values())
    failed = missing + extra
    if rc != 0 or out != golden:
        failed = max(failed, 1)
    return attempted, min(failed, attempted)


def score_query(out, rc, golden):
    ok = (rc == 0 and out.count("\n") == golden["lines"]
          and hashlib.sha256(out.encode()).hexdigest() == golden["sha256"])
    return 1, 0 if ok else 1


def self_test(golden_text):
    """The gate must pass the golden output and fail tampered copies."""
    lines = golden_text.splitlines(keepends=True)
    first = lines[0]
    flipped = first.replace("verified", "counterexample", 1)
    tampered = {
        "flipped": "".join([flipped, "  lhs: 1\n", "  rhs: 2\n"] + lines[1:]),
        "dropped": "".join(lines[1:]),
        "extra": "".join(lines + ["verified  main  heights=9,9\n"]),
        "repeated": "".join([first] + lines),
        "reordered": "".join(lines[1:2] + lines[:1] + lines[2:]),
    }
    if score_sweep(golden_text, 0, golden_text)[1] != 0:
        raise BenchError("self-test: golden output scored as failed")
    if score_sweep(golden_text, 1, golden_text)[1] == 0:
        raise BenchError("self-test: exit code 1 scored as passed")
    for what, text in tampered.items():
        if score_sweep(text, 0, golden_text)[1] == 0:
            raise BenchError(f"self-test: {what} output scored as passed")
    gold = {"sha256": hashlib.sha256(b"(1): 1\n").hexdigest(), "lines": 1}
    if (score_query("(1): 1\n", 0, gold)[1] != 0
            or score_query("(1): 2\n", 0, gold)[1] == 0
            or score_query("(1): 1\n", 1, gold)[1] == 0):
        raise BenchError("self-test: query gate is wrong")


def load_sweep_golden(name):
    path = GOLDEN / f"{name}.txt.gz"
    if not path.is_file():
        raise BenchError(f"missing golden output {path}")
    return gzip.decompress(path.read_bytes()).decode()


def load_query_pool():
    path = GOLDEN / "cli-queries.json"
    if not path.is_file():
        raise BenchError(f"missing golden output {path}")
    return json.loads(path.read_text())


# -- per-layer metrics from spans ---------------------------------------------

def _union(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def analyse(trace):
    """Layer totals of one traced command: inclusive and self seconds per
    span name, work counts, and the fan-out figures."""
    spans = trace["spans"]
    kids = defaultdict(list)
    for s in spans:
        kids[s[1]].append(s)
    incl, self_s, calls, work = (defaultdict(float), defaultdict(float),
                                 defaultdict(int), defaultdict(int))
    cold_s = busy = capacity = 0.0
    hits = 0
    for sid, _, name, start, end, count in spans:
        dur = end - start
        incl[name] += dur
        if name in FOLDED:
            self_s[name] += dur
            calls[name] += count
            continue
        calls[name] += 1
        if count is not None:
            work[name] += count
        folded = sum(c[4] - c[3] for c in kids[sid] if c[2] in FOLDED)
        nested = _union([(c[3], c[4]) for c in kids[sid]
                         if c[2] not in FOLDED])
        self_s[name] += dur - folded - nested
        if name == "symfunc.transitions":
            if count:
                cold_s += dur
            else:
                hits += 1
        elif name == "verify.fanout":
            capacity += dur * count
            busy += sum(c[4] - c[3] for c in kids[sid]
                        if c[2] == "verify.task")
    placements = work["rook.placements"]
    colorings = sum(v for k, v in work.items() if k.startswith("chromatic."))
    coloring_s = sum(v for k, v in incl.items() if k.startswith("chromatic."))
    m = {
        "rook.placements.s": incl["rook.placements"],
        "rook.placements.count": placements,
        "rook.free_cells.s": incl["rook.free_cells"],
        "rook.free_cells.calls": calls["rook.free_cells"],
        "rook.type_polynomials.self_s": self_s["rook.type_polynomials"],
        "chromatic.principal_direct.s": incl["chromatic.principal_direct"],
        "chromatic.chromatic_x.s": incl["chromatic.chromatic_x"],
        "chromatic.llt_poly.s": incl["chromatic.llt_poly"],
        "chromatic.colorings": colorings,
        "chromatic.s": coloring_s,
        "symfunc.transitions.cold_s": cold_s,
        "symfunc.transitions.cold_builds": work["symfunc.transitions"],
        "symfunc.transitions.hits": hits,
        "symfunc.to_basis.s": incl["symfunc.to_basis"],
        "symfunc.to_basis.calls": calls["symfunc.to_basis"],
        "symfunc.multiply.s": incl["symfunc.multiply"],
        "verify.check_main.self_s": self_s["verify.check_main"],
        "verify.check_multiplicativity.self_s":
            self_s["verify.check_multiplicativity"],
        "verify.check_principal.self_s": self_s["verify.check_principal"],
        "verify.sweep.warmup_s": incl["verify.sweep.warmup"],
        "verify.fanout.busy_s": busy,
        "verify.fanout.capacity_s": capacity,
        "cli.import_s": trace["import_s"],
        "cli.self_s": self_s["cli.main"],
    }
    for layer in ("rook", "chromatic", "symfunc", "verify"):
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.startswith(layer + "."))
    counts = {
        "placements": placements,
        "free_cells_calls": calls["rook.free_cells"],
        "colorings": colorings,
        "cold_builds": work["symfunc.transitions"],
        "to_basis_calls": calls["symfunc.to_basis"],
    }
    return m, counts


def add_into(total, part):
    for k, v in part.items():
        total[k] = total.get(k, 0) + v


def finish_layers(m):
    """Ratios of one traced round, from its summed totals."""
    placements = m["rook.placements.count"]
    colorings, coloring_s = m["chromatic.colorings"], m.pop("chromatic.s")
    capacity = m.pop("verify.fanout.capacity_s")
    busy = m["verify.fanout.busy_s"]
    m["rook.fc_us_per_placement"] = (1e6 * m["rook.free_cells.s"] / placements
                                     if placements else 0.0)
    m["chromatic.colorings_per_s"] = (colorings / coloring_s
                                      if coloring_s else 0.0)
    m["verify.fanout.idle_s"] = capacity - busy
    m["verify.fanout.efficiency"] = busy / capacity if capacity else 0.0
    return m


# -- one run ------------------------------------------------------------------

class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.start = clock()
        self.rng = random.Random(seed)
        self.setup = []
        self.rounds = []
        self.latencies = []
        self.attempted = self.failed = 0
        self.count_errors = []
        self.count_seen = {}
        self.traces = []
        if workload in SWEEPS:
            self.golden = load_sweep_golden(workload)
            self.n_max = SWEEPS[workload][1]
        else:
            self.pool = load_query_pool()
            self.n_max = QUERIES_N_MAX

    def remaining(self):
        return DEADLINE_S - (clock() - self.start)

    def commands(self):
        if self.workload in SWEEPS:
            return [("round", sweep_argv(self.workload), self.golden)]
        queries = self.pool["queries"]
        picks = [(qid, queries[qid]["argv"], queries[qid])
                 for kind, n in STRATA
                 for qid in self.pool["strata"][f"{kind}{n}"]]
        self.rng.shuffle(picks)
        return picks

    def one_round(self, traced):
        """One round of commands.  Plain rounds run each command beside
        the speed probe and time it in reference seconds; traced rounds
        run without it, on every CPU, so the fan-out spans stay real."""
        walls, works, cpu, rss, ops, failed = [], [], 0.0, 0, 0, 0
        layers = analyse({"spans": [], "import_s": 0.0})[0]
        index = len(self.rounds)
        for key, argv, golden in self.commands():
            out = None
            if traced:
                fd, name = tempfile.mkstemp(dir=WORK, suffix=".json")
                os.close(fd)
                out = Path(name)
            try:
                res = run_cli(argv, self.remaining(), out, self.workload,
                              f"{self.seed}.{index}", probe=not traced)
                if self.workload in SWEEPS:
                    a, f = score_sweep(res["out"], res["rc"], golden)
                else:
                    a, f = score_query(res["out"], res["rc"], golden)
                if traced and res["rc"] in (0, 1) and out.stat().st_size:
                    trace = json.loads(out.read_text())
                    self.traces.append(trace)
                    m, counts = analyse(trace)
                    add_into(layers, m)
                    self.check_counts(key, counts)
            finally:
                if out is not None:
                    out.unlink()
            walls.append(res["wall"])
            works.append(res.get("work", 0.0))
            cpu += res["cpu"]
            rss = max(rss, res["rss_kb"])
            ops += a
            failed += f
        self.attempted += ops
        self.failed += failed
        if not traced:
            self.latencies.extend(works)
        self.rounds.append({"traced": traced, "wall": sum(walls),
                            "work": sum(works), "cpu": cpu,
                            "ops": ops, "failed": failed, "rss_kb": rss,
                            "layers": finish_layers(layers) if traced
                            else None})

    def check_counts(self, key, counts):
        seen = self.count_seen.setdefault(key, counts)
        if seen != counts:
            self.count_errors.append(f"{key}: {seen} then {counts}")

    def measure_setup(self):
        """One fresh interpreter importing rookhl and building
        transitions(0..n_max), the work every command pays before its
        first check.  Timed beside the speed probe, in reference
        seconds."""
        code = ("import rookhl\nfrom rookhl.symfunc import transitions\n"
                f"for k in range({self.n_max + 1}):\n    transitions(k)\n")
        r = run_cmd([sys.executable, "-c", code], self.remaining(),
                    probe=True)
        if r["rc"] != 0:
            raise BenchError(f"set-up failed with exit code {r['rc']}")
        self.setup.append(r["work"])

    def execute(self):
        """Whole rounds for the run's seconds, ending at the round boundary
        nearest to them, with the set-up samples spread between rounds so
        both see the same machine."""
        t0 = clock()
        while True:
            if len(self.setup) < SETUP_REPS:
                self.measure_setup()
            kinds = [r["traced"] for r in self.rounds]
            last = self.rounds[-1]["wall"] if self.rounds else 0.0
            done = clock() - t0 + last / 2 >= self.seconds
            if done and kinds and (not self.trace or
                                   (True in kinds and False in kinds)):
                break
            longest = max((r["wall"] for r in self.rounds), default=0.0)
            if self.rounds and self.remaining() < 2 * longest + 5:
                break
            traced = bool(self.trace) and len(self.rounds) % 2 == 1
            self.one_round(traced)
        while len(self.setup) < SETUP_REPS:
            self.measure_setup()

    # -- metrics

    def end_to_end(self):
        """Times are CPU time of the command's process tree in reference
        seconds (``REFERENCE_RATE``), not wall time: see ``launch.py``."""
        rounds = [r for r in self.rounds if not r["traced"]]
        lat = sorted(self.latencies)
        # The highest order statistic with ten samples above it.  Below 21
        # samples no such point lies above the median, and the tail falls
        # back to the median (a sweep has one command per round).
        tail = len(lat) - 1 - min(10, len(lat) // 2)
        return {
            "work_s": statistics.median(r["work"] for r in rounds),
            "ops_per_s": statistics.median(r["ops"] / r["work"] if r["work"]
                                           else 0.0 for r in rounds),
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds)
            / 1024,
            "query_p50_s": statistics.median(lat),
            "query_tail_s": max(lat[tail], statistics.median(lat)),
        }, {"query_tail_percentile": 100.0 * (tail + 1) / len(lat),
            "query_samples": len(lat)}

    def per_layer(self):
        traced = [r["layers"] for r in self.rounds if r["traced"]]
        plain = [r["cpu"] for r in self.rounds if not r["traced"]]
        if not traced or not plain:
            raise BenchError("no time left for a traced and a plain round")
        m = {}
        for k in traced[0]:
            values = [t[k] for t in traced]
            exact = all(isinstance(v, int) for v in values)
            m[k] = (statistics.median_low if exact
                    else statistics.median)(values)
        # Traced rounds run without the probe, so the overhead compares CPU
        # seconds of the process trees.
        m["trace.overhead"] = (statistics.median(r["cpu"] for r in self.rounds
                                                 if r["traced"])
                               / statistics.median(plain))
        return m


def load_bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance(workload, seed, seconds, trace):
    if workload in SWEEPS:
        _, n_max, jobs = SWEEPS[workload]
        sizes = {"command": ["rookhl", *sweep_argv(workload)],
                 "n_max": n_max, "jobs": jobs}
    else:
        sizes = {"strata": [f"{k}{n}" for k, n in STRATA],
                 "pool_per_stratum": POOL_PER_STRATUM,
                 "n_max": QUERIES_N_MAX}
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "sizes": sizes, "setup_reps": SETUP_REPS,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "machine": platform.machine(), "processor": platform.processor(),
            "git_rev": git_revision(), "src_sha256": source_digest()}


def check_saved_counts(run, digest):
    """Counts must also repeat across runs and seeds of the same source."""
    path = WORK / "state" / "counts.json"
    state = json.loads(path.read_text()) if path.is_file() else {}
    mine = state.setdefault(digest, {}).setdefault(run.workload, {})
    for key, counts in run.count_seen.items():
        old = mine.setdefault(key, counts)
        if old != counts:
            run.count_errors.append(f"{key}: earlier run {old}, now {counts}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, sort_keys=True))
    os.replace(tmp, path)


def run_workload(workload, seed, seconds, trace, spec):
    preflight()
    WORK.mkdir(exist_ok=True)
    run = Run(workload, seed, seconds, trace)
    self_test(run.golden if workload in SWEEPS else
              load_sweep_golden("main-parallel"))
    run.execute()
    prov = provenance(workload, seed, seconds, trace)
    extra = {}
    if trace:
        check_saved_counts(run, prov["src_sha256"])
        values = run.per_layer()
    else:
        values, extra = run.end_to_end()
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(values)} differ from "
                         "BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    correct = run.failed == 0 and not run.count_errors
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = {"provenance": prov, "result": result,
              "fail_ratio": run.failed / run.attempted, **extra,
              "count_errors": run.count_errors, "setup_samples": run.setup,
              "rounds": run.rounds, "latencies": run.latencies}
    out_dir = WORK / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{workload}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if trace:
        stem.with_suffix(".spans.json").write_text(json.dumps(run.traces))
    log = sys.stderr
    print(f"# {workload} seed={seed} trace={trace} rounds={len(run.rounds)} "
          f"python={prov['python']} nproc={prov['nproc']} "
          f"rev={prov['git_rev'] or prov['src_sha256'][:12]}", file=log)
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:14.6g} {m['unit']}", file=log)
    print(f"  {'fail_ratio':40s} {record['fail_ratio']:14.6g} ratio "
          f"({run.failed}/{run.attempted})", file=log)
    if extra:
        print(f"  query tail is p{extra['query_tail_percentile']:.0f} of "
              f"{extra['query_samples']} commands", file=log)
    for e in run.count_errors:
        print(f"  count mismatch {e}", file=log)
    return result


# -- golden outputs -----------------------------------------------------------

def make_golden():
    """Record the outputs of the current source tree as the golden ones."""
    WORK.mkdir(exist_ok=True)
    GOLDEN.mkdir(exist_ok=True)
    for name in SWEEPS:
        res = run_cli(sweep_argv(name, jobs=1), 600)
        if res["rc"] != 0:
            raise BenchError(f"{name}: exit {res['rc']}")
        (GOLDEN / f"{name}.txt.gz").write_bytes(
            gzip.compress(res["out"].encode(), mtime=0))
    rng = random.Random(POOL_SEED)
    paths = {n: run_cli(["list-dyck", "--n", str(n)], 60)["out"].split()
             for n in sorted({n for _, n in STRATA})}
    pool = {"strata": {}, "queries": {}}
    for kind, n in dict.fromkeys(STRATA):
        ids = []
        for i, heights in enumerate(rng.sample(paths[n], POOL_PER_STRATUM)):
            qid = f"{kind}{n}-{i}"
            argv = QUERY_KINDS[kind] + ["--heights", heights]
            res = run_cli(argv, 600)
            if res["rc"] != 0:
                raise BenchError(f"{qid}: exit {res['rc']}")
            pool["queries"][qid] = {
                "argv": argv, "lines": res["out"].count("\n"),
                "sha256": hashlib.sha256(res["out"].encode()).hexdigest()}
            ids.append(qid)
        pool["strata"][f"{kind}{n}"] = ids
    (GOLDEN / "cli-queries.json").write_text(json.dumps(pool, indent=1))


# -- comparing result sets ----------------------------------------------------

def load_results(directory):
    """Untraced results in a directory, by workload, ordered by seed."""
    out = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if "provenance" in rec and not rec["provenance"]["trace"]:
            out[rec["provenance"]["workload"]].append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: r["provenance"]["seed"])
    return out


def _stats(values):
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(directory, spec):
    results = load_results(directory)
    if not results:
        raise BenchError(f"no untraced results in {directory}")
    summary = {}
    for workload, recs in sorted(results.items()):
        row = {m["name"]: _stats([r["result"]["metrics"][m["name"]]["value"]
                                  for r in recs])
               for m in spec["end_to_end"]}
        row["fail_ratio"] = _stats([r["fail_ratio"] for r in recs])
        row["seeds"] = [r["provenance"]["seed"] for r in recs]
        summary[workload] = row
    first = next(iter(results.values()))[0]["provenance"]
    keep = ("python", "implementation", "nproc", "platform", "machine",
            "processor", "git_rev", "src_sha256", "seconds", "setup_reps")
    return {"provenance": {k: first[k] for k in keep}, "workloads": summary}


def verdict(parent, change, metric):
    """improved / no worse / worse / unresolved for one metric, by the
    paired-runs rule: a gain needs >= 90% pair wins and a median shift
    beyond the parent's quartile spread."""
    sign = 1 if metric["better"] == "lower" else -1
    p = [sign * v for v in parent]
    c = [sign * v for v in change]
    pairs = list(zip(p, c))
    wins = sum(1 for a, b in pairs if b < a) / len(pairs)
    ps, cs = _stats(p), _stats(c)
    pmed = abs(ps["median"]) or 1e-300
    spread = (ps["q3"] - ps["q1"]) / pmed
    shift = (cs["median"] - ps["median"]) / pmed
    all_better = max(c) < min(p)
    if wins >= 0.9 and -shift * pmed > ps["q3"] - ps["q1"]:
        v = "improved"
    elif spread > metric["bound"] and not all_better:
        v = "unresolved"
    elif shift > metric["bound"]:
        v = "worse"
    else:
        v = "no worse"
    return wins, v


def _cell(st):
    return f"{st['median']:.5g} [{st['q1']:.5g},{st['q3']:.5g}]"


def compare(parent_dir, change_dir, spec):
    parent, change = load_results(parent_dir), load_results(change_dir)
    print(f"{'workload':16s} {'metric':14s} {'parent median [q1,q3]':36s} "
          f"{'change median [q1,q3]':36s} {'wins':>5s}  verdict")
    for workload in WORKLOADS:
        p_recs, c_recs = parent.get(workload), change.get(workload)
        if not p_recs or not c_recs:
            continue
        p_seeds = [r["provenance"]["seed"] for r in p_recs]
        if p_seeds == [r["provenance"]["seed"] for r in c_recs]:
            pairing = "seed"
        else:
            pairing = "order"
            n = min(len(p_recs), len(c_recs))
            p_recs, c_recs = p_recs[:n], c_recs[:n]
        p_failed = sum(r["result"]["failed"] for r in p_recs)
        c_failed = sum(r["result"]["failed"] for r in c_recs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not all(name in r["result"]["metrics"]
                       for r in p_recs + c_recs):
                print(f"{workload:16s} {name:14s} missing from some results")
                continue
            pv = [r["result"]["metrics"][name]["value"] for r in p_recs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_recs]
            wins, v = verdict(pv, cv, metric)
            if v == "improved" and c_failed > p_failed:
                v = "no gain: more failures"
            ps, cs = _stats(pv), _stats(cv)
            print(f"{workload:16s} {name:14s} {_cell(ps):36s} "
                  f"{_cell(cs):36s} {wins:5.2f}  {v}")
        pr = p_failed / sum(r["result"]["attempted"] for r in p_recs)
        cr = c_failed / sum(r["result"]["attempted"] for r in c_recs)
        print(f"{workload:16s} {'fail_ratio':14s} {pr:<36.5g} {cr:<36.5g} "
              f"{'':5s}  {'worse' if c_failed > p_failed else 'no worse'} "
              f"(pairs by {pairing}, n={len(p_recs)})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    ap.add_argument("--summarize", metavar="DIR")
    ap.add_argument("--make-golden", action="store_true")
    args = ap.parse_args(argv)
    try:
        spec = load_bench_spec()
        if args.make_golden:
            make_golden()
        elif args.compare:
            compare(*args.compare, spec)
        elif args.summarize:
            print(json.dumps(summarize(args.summarize, spec), indent=1))
        elif args.workload == "all":
            seconds = args.seconds or spec["run_seconds"]
            for w in WORKLOADS:
                res = run_workload(w, args.seed, seconds, args.trace, spec)
                print(json.dumps({"workload": w, **res}))
        elif args.workload:
            seconds = args.seconds or spec["run_seconds"]
            res = run_workload(args.workload, args.seed, seconds, args.trace,
                               spec)
            print(json.dumps(res))
        else:
            ap.error("give --workload, --compare, --summarize or "
                     "--make-golden")
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
