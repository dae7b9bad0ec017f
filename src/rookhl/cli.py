"""Command line front end.

Subcommands: expand (coloring or word generating function of one path, in a
chosen basis), rook (placements and type polynomials), list-dyck, verify
(identity sweeps with counterexample reporting).  Exit codes: 0 success,
1 a verify run found a counterexample, 2 usage error.

A command imports only what it runs, the package's own modules included:
rook loads dyck, partitions, qseries and rook; expand adds symfunc, and
chromatic unless it reads X in the P basis off the rook side; only verify
loads verify, and with it every module.  json is imported where --json or
rook --list writes it, and rookhl.fanout only when a verify sweep fans out
over --jobs processes; no command imports multiprocessing.  Each cmd_*
imports inside its body, so the names resolve when it runs, from the
modules as they are then.

Every text command writes through one block writer, _write_lines: lines
go to sys.stdout in blocks that end at a line boundary, so a verify sweep
of thousands of reports costs a few writes, not one per line.  verify
writes its text as the sweep's reports arrive (verify.stream), counting
them for the summary line and the exit code, so its first block is out
before its last task has run and no report is held; the stream is closed
in a finally, so an early stop reaps its workers.  --json is one print,
after the sweep.
"""

from __future__ import annotations

import argparse
import io
import sys

from rookhl import IDENTITIES


def _checked(parser, flag, fn, text):
    try:
        return fn(text)
    except ValueError as e:
        parser.error(f"{flag}: {e}")


def _write_lines(lines) -> None:
    """Write each line and a newline to sys.stdout, as it is at the call, in
    blocks of at least io.DEFAULT_BUFFER_SIZE characters, then the rest.
    A block is written once it is full, so the whole text is never held."""
    block, size = [], 0
    for line in lines:
        block.append(line)
        size += len(line) + 1
        if size >= io.DEFAULT_BUFFER_SIZE:
            sys.stdout.write("\n".join(block) + "\n")
            block, size = [], 0
    if block:
        sys.stdout.write("\n".join(block) + "\n")


def cmd_expand(args, parser):
    from rookhl.dyck import parse_heights
    gamma = _checked(parser, "--heights", parse_heights, args.heights)
    if args.what == "X" and args.basis == "P":
        from rookhl.rook import hl_coefficients
        from rookhl.symfunc import SymFunc
        f = SymFunc(len(gamma), "hl_p", hl_coefficients(gamma))
    elif args.what == "X":
        from rookhl.chromatic import chromatic_x
        f = chromatic_x(gamma)
    else:
        from rookhl.chromatic import llt_poly
        f = llt_poly(gamma)
    target = {"m": "monomial", "s": "schur", "P": "hl_p"}[args.basis]
    f = f.to_basis(target)
    if args.json:
        import json
        print(json.dumps(f.to_json()))
    else:
        _write_lines(f.lines())
    return 0


def cmd_rook(args, parser):
    from rookhl.dyck import parse_heights
    from rookhl.partitions import (
        coefficient_line, format_partition, parse_partition,
    )
    from rookhl.rook import (
        free_cells, placement_type, placements, type_polynomials,
    )
    gamma = _checked(parser, "--heights", parse_heights, args.heights)
    want = None
    if args.type is not None:
        want = _checked(parser, "--type", parse_partition, args.type)
        if sum(want) != len(gamma):
            parser.error(f"--type: {want} does not partition {len(gamma)}")
    n = len(gamma)

    def lines():
        if args.list:
            import json
            for p in placements(gamma):
                mu = placement_type(n, p)
                if want is not None and mu != want:
                    continue
                cells = json.dumps([list(c) for c in p])
                yield (f"{cells} type={format_partition(mu)} "
                       f"fc={len(free_cells(gamma, p))}")
        table = type_polynomials(gamma)
        for mu in sorted(table, reverse=True):
            if want is None or mu == want:
                yield coefficient_line(mu, table[mu])

    _write_lines(lines())
    return 0


def cmd_list_dyck(args, parser):
    if args.n < 0:
        parser.error("--n: must be nonnegative")
    from rookhl.dyck import enumerate_dyck, format_heights
    _write_lines(map(format_heights, enumerate_dyck(args.n)))
    return 0


def cmd_verify(args, parser):
    if args.n_max < 0:
        parser.error("--n-max: must be nonnegative")
    if args.jobs < 1:
        parser.error("--jobs: must be positive")
    from rookhl.verify import stream
    names = IDENTITIES if args.identity == "all" else (args.identity,)
    reports = stream(args.n_max, set(names), jobs=args.jobs)
    tally = [0, 0]      # reports, counterexamples
    try:
        if args.json:
            import json
            docs = []
            for r in reports:
                docs.append(r.to_json())
                tally[1] += not r.ok
            print(json.dumps(docs))
        else:
            _write_lines(_report_lines(reports, tally))
    finally:
        reports.close()
    return 1 if tally[1] else 0


def _report_lines(reports, tally):
    """verify's text: a line per report, both sides under each
    counterexample, and the summary line.  tally counts the reports and
    the counterexamples as they pass."""
    for r in reports:
        tally[0] += 1
        yield f"{r.status}  {r.identity}  {r.instance}"
        if not r.ok:
            tally[1] += 1
            yield f"  lhs: {r.lhs}"
            yield f"  rhs: {r.rhs}"
    checks, failures = tally
    if failures:
        yield f"{checks} checks: {failures} counterexamples"
    else:
        yield f"{checks} checks: all verified"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookhl",
        description="Exact rook-placement and Hall-Littlewood engine "
                    "for Dyck path symmetric functions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand",
                       help="expand a path's generating function in a basis")
    p.add_argument("--heights", required=True,
                   help="comma separated heights, e.g. 2,2,4,4,5 ('-' for n=0)")
    p.add_argument("--what", choices=("X", "LLT"), default="X",
                   help="colorings (X) or all words (LLT)")
    p.add_argument("--basis", choices=("m", "s", "P"), default="m",
                   help="monomial, Schur, or Hall-Littlewood P")
    p.add_argument("--json", action="store_true",
                   help="machine readable output")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("rook",
                       help="placements and type polynomials of a path")
    p.add_argument("--heights", required=True)
    p.add_argument("--type", help="restrict to one type, e.g. 3,2")
    p.add_argument("--list", action="store_true",
                   help="print every placement with its free cell count")
    p.set_defaults(func=cmd_rook)

    p = sub.add_parser("list-dyck", help="list all height tuples of size n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_list_dyck)

    p = sub.add_parser("verify",
                       help="run identity sweeps and report counterexamples")
    p.add_argument("--identity", choices=IDENTITIES + ("all",),
                   default="all")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (the output is the same for "
                        "any value)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
