import argparse
import io
import json
import os
import signal
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import rookhl
from rookhl import rook
from rookhl.cli import main
from rookhl.partitions import coefficient_line, parse_partition
from rookhl.qseries import ZERO, q_power
from rookhl.rook import hl_coefficients
from rookhl.symfunc import SymFunc
from rookhl.verify import sweep
from placement_oracle import ordered_type_polynomials
from reference import symfunc_from_json


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_expand_hl_p_golden(capsys):
    code, out = run(capsys, ["expand", "--heights", "2,2,4,4,5",
                             "--what", "X", "--basis", "P"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(3,2): 1 + 2q + q^2"
    assert lines[1] == "(3,1,1): 1 + 3q + 3q^2 + q^3"
    assert lines[-1].startswith("(1,1,1,1,1): 1 + 4q + 9q^2")


def test_expand_monomial_default(capsys):
    code, out = run(capsys, ["expand", "--heights", "2,2"])
    assert code == 0
    assert out == "(1,1): 1 + q\n"


def test_expand_llt_schur(capsys):
    code, out = run(capsys, ["expand", "--heights", "2,2",
                             "--what", "LLT", "--basis", "s"])
    assert code == 0
    assert out == "(2): 1\n(1,1): q\n"


def test_expand_empty_path(capsys):
    code, out = run(capsys, ["expand", "--heights", "-"])
    assert code == 0
    assert out == "(): 1\n"


def test_expand_json(capsys):
    code, out = run(capsys, ["expand", "--heights", "2,2,4,4,5",
                             "--basis", "P", "--json"])
    assert code == 0
    f = symfunc_from_json(json.loads(out))
    assert f == SymFunc(5, "hl_p", hl_coefficients((2, 2, 4, 4, 5)))


def test_cache_dir_is_a_usage_error(capsys, tmp_path):
    # The transition cache is gone: a cold build of any degree costs about
    # what loading a cached file did.  Scripts that still pass the flag
    # fail loudly instead of running without it.
    for argv in (["expand", "--heights", "1,2,3", "--what", "LLT",
                  "--basis", "P"],
                 ["verify", "--identity", "main", "--n-max", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --cache-dir" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_rook_list_golden(capsys):
    code, out = run(capsys, ["rook", "--heights", "2,2,4,4,5",
                             "--type", "3,2", "--list"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "(3,2): 1 + 2q + q^2"
    placements = lines[:-1]
    assert len(placements) == 4
    fcs = sorted(int(l.rsplit("fc=", 1)[1]) for l in placements)
    assert fcs == [0, 1, 1, 2]
    cells = [json.loads(l.split(" type=")[0]) for l in placements]
    assert [[1, 3], [2, 4], [3, 5]] in cells
    assert all(l.split(" type=")[1].startswith("3,2 ") for l in placements)


def test_rook_list_sums_to_the_type_polynomials(capsys):
    # --list scores every placement one by one; the polynomial lines that
    # follow come from the transfer DP.  The fc= values of each type must
    # add up to that type's line.
    for heights in ("1,2,3,4,5,6,7", "2,2,4,4,5,7,7", "2,3,3,5,6,6,7",
                    "3,3,4,6,7,7,7"):
        code, out = run(capsys, ["rook", "--heights", heights, "--list"])
        assert code == 0
        lines = out.splitlines()
        listed = [l for l in lines if " type=" in l]
        sums = {}
        for l in listed:
            mu, k = l.split(" type=")[1].split(" fc=")
            mu = parse_partition(mu)
            sums[mu] = sums.get(mu, ZERO) + q_power(int(k))
        want = [coefficient_line(mu, poly)
                for mu, poly in sorted(sums.items(), reverse=True)]
        assert lines[len(listed):] == want


def test_rook_all_types(capsys):
    code, out = run(capsys, ["rook", "--heights", "1,2"])
    assert code == 0
    assert out == "(2): 1\n(1,1): q\n"


def test_rook_type_size_mismatch(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rook", "--heights", "1,2", "--type", "3"])
    assert exc.value.code == 2


def test_list_dyck(capsys):
    code, out = run(capsys, ["list-dyck", "--n", "3"])
    assert code == 0
    assert out.splitlines() == ["1,2,3", "1,3,3", "2,2,3", "2,3,3", "3,3,3"]
    code, out = run(capsys, ["list-dyck", "--n", "0"])
    assert code == 0
    assert out == "-\n"


def test_verify_text(capsys):
    code, out = run(capsys, ["verify", "--identity", "main", "--n-max", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verified  main  heights=-"
    assert lines[-1] == "9 checks: all verified"


def test_verify_json(capsys):
    code, out = run(capsys, ["verify", "--identity", "main", "--n-max", "3",
                             "--json"])
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 9
    assert all(r["status"] == "verified" for r in reports)
    assert reports[2]["instance"] == "heights=1,2"
    assert reports[3]["instance"] == "heights=2,2"


def test_verify_finds_counterexample(capsys, monkeypatch):
    monkeypatch.setattr(rook, "_type_polynomials",
                        partial(ordered_type_polynomials, gate=False))
    code, out = run(capsys, ["verify", "--identity", "main", "--n-max", "3"])
    assert code == 1
    assert "counterexample" in out
    assert "lhs:" in out and "rhs:" in out
    assert out.splitlines()[-1].endswith("counterexamples")


class _Writes:
    """A stand-in stdout that records each write."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("gate", [True, False])
def test_verify_writes_its_text_in_blocks(monkeypatch, gate):
    # verify's text, counterexample sides included, goes out in blocks of
    # whole lines, each at least io.DEFAULT_BUFFER_SIZE characters but the
    # last, and adds up to one line per report and the summary line.
    if not gate:
        monkeypatch.setattr(rook, "_type_polynomials",
                            partial(ordered_type_polynomials, gate=False))
    reports = sweep(5, {"mult"})
    failures = sum(not r.ok for r in reports)
    assert bool(failures) != gate
    lines = []
    for r in reports:
        lines.append(f"{r.status}  {r.identity}  {r.instance}")
        if not r.ok:
            lines += [f"  lhs: {r.lhs}", f"  rhs: {r.rhs}"]
    lines.append(f"{len(reports)} checks: " +
                 (f"{failures} counterexamples" if failures
                  else "all verified"))
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    code = main(["verify", "--identity", "mult", "--n-max", "5"])
    assert code == (0 if gate else 1)
    text = "".join(out.calls)
    assert text == "".join(line + "\n" for line in lines)
    assert all(w.endswith("\n") for w in out.calls)
    assert all(len(w) >= io.DEFAULT_BUFFER_SIZE for w in out.calls[:-1])
    assert len(out.calls) * 20 < len(lines)


def test_verify_writes_its_first_block_before_its_last_task(monkeypatch):
    # A stand-in stdout records, at each write, how many tasks have
    # returned their reports: the text goes out as the sweep runs, and
    # every task has run by the last write, the summary's.
    from rookhl import verify
    returned = []
    real = verify._task_reports

    def task_reports(task):
        out = real(task)
        returned.append(task)
        return out

    at_write = []

    class Writes(_Writes):
        def write(self, text):
            at_write.append(len(returned))
            return super().write(text)

    monkeypatch.setattr(verify, "_task_reports", task_reports)
    monkeypatch.setattr(sys, "stdout", Writes())
    assert main(["verify", "--identity", "mult", "--n-max", "5"]) == 0
    n_tasks = len(verify.sweep_tasks(5, {"mult"}))
    assert len(returned) == n_tasks
    assert len(at_write) > 1
    assert at_write[0] < n_tasks
    assert at_write == sorted(at_write)
    assert at_write[-1] == n_tasks


def test_verify_json_is_one_print_after_the_sweep(monkeypatch, capsys):
    # --json is one document, printed once every task has returned.
    from rookhl import cli, verify
    printed = []
    n_tasks = len(verify.sweep_tasks(4, {"mult"}))
    returned = []
    real = verify._task_reports

    def task_reports(task):
        out = real(task)
        returned.append(task)
        return out

    monkeypatch.setattr(verify, "_task_reports", task_reports)
    monkeypatch.setattr(cli, "print",
                        lambda *args: printed.append((len(returned), args)),
                        raising=False)
    assert main(["verify", "--identity", "mult", "--n-max", "4",
                 "--json"]) == 0
    assert capsys.readouterr().out == ""
    [(at_print, (text,))] = printed
    assert at_print == n_tasks
    assert json.loads(text) == [r.to_json() for r in sweep(4, {"mult"})]


def test_verify_jobs_equal_output(capsys):
    code1, out1 = run(capsys, ["verify", "--identity", "llt",
                               "--n-max", "3"])
    code2, out2 = run(capsys, ["verify", "--identity", "llt",
                               "--n-max", "3", "--jobs", "2"])
    assert (code1, out1) == (code2, out2)


def test_verify_rejects_bad_args(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "bogus", "--n-max", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n-max", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n-max", "3", "--jobs", "0"])
    assert exc.value.code == 2


def test_bad_heights_names_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--heights", "2,1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--heights" in err and "column 2" in err


def test_cli_import_leaves_dataclasses_out():
    # Every command imports rookhl.cli; importing dataclasses would also
    # load inspect, ast, dis and tokenize.  A command imports json only to
    # write it and rookhl.fanout only to fan out, no command imports
    # multiprocessing, and nothing in the package evaluates at rational
    # points.  -S keeps site's imports out.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import rookhl.cli; "
            "print(sorted({'dataclasses', 'inspect', 'multiprocessing', "
            "'json', 'fractions'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code,
         str(Path(rookhl.__file__).resolve().parents[1])],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("jobs, loaded", [("2", ["rookhl.fanout"]),
                                          ("1", [])])
def test_verify_loads_the_fork_pool_only_to_fan_out(jobs, loaded):
    # A sweep over --jobs 2 forks its workers through rookhl.fanout, and
    # one over --jobs 1 runs in its own process; neither loads
    # multiprocessing.
    code = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1])\n"
            "from rookhl.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['verify', '--identity', 'main', '--n-max', '3', "
            f"'--jobs', '{jobs}'])\n"
            "print(sorted({'multiprocessing', 'rookhl.fanout'} "
            "& set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code,
         str(Path(rookhl.__file__).resolve().parents[1])],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loaded}\n"


def _close_stdout_early(argv, read):
    """Run `python -m rookhl argv` in its own session, take read(stdout),
    close its stdout, and return its exit status, what was read, its
    stderr, and whether any process was left running in its group."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(rookhl.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rookhl", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
        start_new_session=True)
    try:
        got = read(proc.stdout)
        proc.stdout.close()
        status = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            left = True
        except ProcessLookupError:
            left = False
    return status, got, err, left


def test_verify_exits_141_once_its_stdout_is_closed():
    # `verify ... | head -1`: the reader leaves after one line, with far
    # more than a pipe holds still to come.  The next write finds stdout
    # closed: the command exits with 141, a shell's status for SIGPIPE,
    # not 1 (a counterexample), writes no traceback, and leaves no worker
    # running in its process group.  The unbuffered pipe's readline reads
    # a byte at a time, so no more than the line is taken.
    assert _close_stdout_early(
        ["verify", "--identity", "main", "--n-max", "8", "--jobs", "2"],
        lambda out: out.readline()) == (
            141, b"verified  main  heights=-\n", b"", False)


def test_verify_json_exits_141_once_its_stdout_is_closed():
    # --json writes one document once the sweep is done, far more than a
    # pipe holds; a reader that leaves after its first bytes gets the same
    # exit as one that leaves the text blocks early.
    status, got, err, left = _close_stdout_early(
        ["verify", "--identity", "all", "--n-max", "7", "--json",
         "--jobs", "2"],
        lambda out: out.read(20))
    assert (status, err, left) == (141, b"", False)
    assert b'[{"identity": "main"'.startswith(got) and got


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts the open fds in /proc/self/fd")
def test_a_closed_stdout_leaves_no_fd_open():
    # main's exit on a closed stdout points stdout at os.devnull and
    # closes the fd it opened for it, so a caller in the same process has
    # as many fds open after it as before.  Far more than a pipe holds is
    # written to a stdout whose read end is closed.
    code = ("import os, sys\n"
            "from rookhl.cli import main\n"
            "before = len(os.listdir('/proc/self/fd'))\n"
            "code = main(['list-dyck', '--n', '12'])\n"
            "after = len(os.listdir('/proc/self/fd'))\n"
            "print(code, before, after, file=sys.stderr)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(rookhl.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    code, before, after = err.split()
    assert (code, after) == (b"141", before)


def _loaded(statement):
    """The rookhl modules a fresh interpreter holds after statement, with
    stdout kept out of the answer; -S keeps site's imports out."""
    code = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1])\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    {statement}\n"
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('rookhl'))))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code,
         str(Path(rookhl.__file__).resolve().parents[1])],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_rookhl_loads_none_of_its_modules():
    assert _loaded("import rookhl") == {"rookhl"}


@pytest.mark.parametrize("argv, absent", [
    (["rook", "--heights", "2,2,4,4,5"], {"verify", "symfunc", "chromatic"}),
    (["rook", "--heights", "2,2,4,4,5", "--list"],
     {"verify", "symfunc", "chromatic"}),
    (["list-dyck", "--n", "3"], {"verify", "symfunc", "chromatic"}),
    (["expand", "--heights", "2,2,4,4,5", "--what", "X", "--basis", "P"],
     {"verify", "chromatic"}),
    (["expand", "--heights", "2,2,4,4,5", "--what", "X", "--basis", "m"],
     {"verify"}),
    (["expand", "--heights", "2,2,4,4,5", "--what", "LLT", "--basis", "s"],
     {"verify"}),
])
def test_a_command_loads_only_the_modules_it_runs(argv, absent):
    # Without bytecode every module a command imports is compiled from
    # source on each run, which costs more than a query's own work.
    loaded = _loaded(f"import rookhl.cli; rookhl.cli.main({argv!r})")
    assert "rookhl.cli" in loaded
    assert not loaded & {f"rookhl.{m}" for m in absent}


def test_lazy_exports_are_the_modules_own_objects():
    # The package root re-exports nothing: names are imported from their
    # modules, and the root holds IDENTITIES, the tuple verify checks and
    # verify --identity offers.
    from rookhl import symfunc, verify
    from rookhl.cli import build_parser
    assert symfunc.coefficient_line is coefficient_line
    assert verify.IDENTITIES is rookhl.IDENTITIES
    with pytest.raises(AttributeError, match="no_such_name"):
        rookhl.no_such_name
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    identity = next(a for a in sub.choices["verify"]._actions
                    if a.dest == "identity")
    assert identity.choices == verify.IDENTITIES + ("all",)


def _traced_spans(tmp_path, args):
    """Run args under perfbench/tracer.py and plainly, require the same exit
    code 0 and stdout from both, and return the names of the spans."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"),
         "--out", str(spans), "--workload", "t", "--run", "0", "--", *args],
        capture_output=True, text=True, env=env, cwd=root)
    plain = subprocess.run([sys.executable, "-m", "rookhl", *args],
                           capture_output=True, text=True, env=env, cwd=root)
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    return {span[2] for span in json.loads(spans.read_text())["spans"]}


def test_benchmark_tracer_runs_a_sweep_with_unchanged_stdout(tmp_path):
    # perfbench/tracer.py wraps package functions by name; a name it looks
    # up that the package no longer has would break every traced run.  It
    # wraps module attributes after import, so a caller that bound one
    # earlier (a dispatch table holding check_multiplicativity, say) would
    # lose its layer with stdout unchanged: each layer must be recorded.
    names = _traced_spans(tmp_path, ["verify", "--identity", "all",
                                     "--n-max", "3", "--jobs", "2"])
    assert names >= {
        "verify.check_modular", "verify.check_multiplicativity",
        "verify.sweep.warmup", "rook.type_polynomials",
        "chromatic.chromatic_x", "chromatic.llt_poly"}


@pytest.mark.parametrize("args", [
    ["rook", "--heights", "2,2,4,4,5"],
    ["expand", "--heights", "2,2,4,4,5", "--what", "X", "--basis", "P"],
])
def test_benchmark_tracer_keeps_the_layers_of_a_query(tmp_path, args):
    # The commands import their modules when they run, after the tracer
    # has wrapped them, so a traced query must still record the rook DP.
    names = _traced_spans(tmp_path, args)
    assert names & {"rook.type_polynomials", "rook.hl_coefficients"}


def test_module_entry_point():
    # Run from the directory that holds the imported package, so the child
    # finds it whether it came from PYTHONPATH, pytest's pythonpath or an
    # installation.
    proc = subprocess.run(
        [sys.executable, "-m", "rookhl", "list-dyck", "--n", "2"],
        capture_output=True, text=True,
        cwd=Path(rookhl.__file__).resolve().parents[1])
    assert proc.returncode == 0
    assert proc.stdout == "1,2\n2,2\n"
