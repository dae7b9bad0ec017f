"""Command line front end.

Subcommands: expand (coloring or word generating function of one path, in a
chosen basis), rook (placements and type polynomials), list-dyck, verify
(identity sweeps with counterexample reporting), oracle (direct rational
evaluation of a Hall-Littlewood P).  Exit codes: 0 success, 1 a verify run
found a counterexample, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from rookhl.chromatic import chromatic_x, llt_poly
from rookhl.dyck import enumerate_dyck, format_heights, parse_heights
from rookhl.partitions import format_partition, parse_partition
from rookhl.rook import free_cells, hl_coefficients, placements, \
    placement_type, type_polynomials
from rookhl.symfunc import SymFunc, coefficient_line, hl_direct_oracle, \
    transitions
from rookhl.verify import IDENTITIES, conversion_degrees, sweep


def _checked(parser, flag, fn, text):
    try:
        return fn(text)
    except (ValueError, ZeroDivisionError) as e:
        parser.error(f"{flag}: {e}")


def _cached_transitions(parser, degrees, cache_dir):
    """Load or build the cached transition data; a cache file that fails
    validation, or a directory that cannot hold one, is a usage error."""
    for n in degrees:
        try:
            transitions(n, cache_dir)
        except (ValueError, OSError) as e:
            parser.error(f"--cache-dir: {e}")


def cmd_expand(args, parser):
    gamma = _checked(parser, "--heights", parse_heights, args.heights)
    if args.cache_dir and args.what == "LLT" and args.basis == "P":
        # The one query that converts through Kostka-Foulkes: X in P is read
        # off the placements, and m and s need only the Kostka numbers.
        _cached_transitions(parser, [len(gamma)], args.cache_dir)
    if args.what == "X":
        if args.basis == "P":
            f = SymFunc(len(gamma), "hl_p", hl_coefficients(gamma))
        else:
            f = chromatic_x(gamma)
    else:
        f = llt_poly(gamma)
    target = {"m": "monomial", "s": "schur", "P": "hl_p"}[args.basis]
    f = f.to_basis(target)
    if args.json:
        print(json.dumps(f.to_json()))
    else:
        for line in f.lines():
            print(line)
    return 0


def cmd_rook(args, parser):
    gamma = _checked(parser, "--heights", parse_heights, args.heights)
    want = None
    if args.type is not None:
        want = _checked(parser, "--type", parse_partition, args.type)
        if sum(want) != len(gamma):
            parser.error(f"--type: {want} does not partition {len(gamma)}")
    n = len(gamma)
    if args.list:
        for p in placements(gamma):
            mu = placement_type(n, p)
            if want is not None and mu != want:
                continue
            cells = json.dumps([list(c) for c in p])
            print(f"{cells} type={format_partition(mu)} "
                  f"fc={len(free_cells(gamma, p))}")
    table = type_polynomials(gamma)
    for mu in sorted(table, reverse=True):
        if want is not None and mu != want:
            continue
        print(coefficient_line(mu, table[mu]))
    return 0


def cmd_list_dyck(args, parser):
    if args.n < 0:
        parser.error("--n: must be nonnegative")
    for gamma in enumerate_dyck(args.n):
        print(format_heights(gamma))
    return 0


def cmd_verify(args, parser):
    if args.n_max < 0:
        parser.error("--n-max: must be nonnegative")
    if args.jobs < 1:
        parser.error("--jobs: must be positive")
    names = IDENTITIES if args.identity == "all" else (args.identity,)
    if args.cache_dir:
        _cached_transitions(parser, conversion_degrees(args.n_max, names),
                            args.cache_dir)
    reports = sweep(args.n_max, set(names), jobs=args.jobs)
    failures = [r for r in reports if not r.ok]
    if args.json:
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            print(f"{r.status}  {r.identity}  {r.instance}")
            if not r.ok:
                print(f"  lhs: {r.lhs}")
                print(f"  rhs: {r.rhs}")
        if failures:
            print(f"{len(reports)} checks: {len(failures)} counterexamples")
        else:
            print(f"{len(reports)} checks: all verified")
    return 1 if failures else 0


def cmd_oracle(args, parser):
    mu = _checked(parser, "--mu", parse_partition, args.mu)
    xs = _checked(parser, "--xs",
                  lambda t: tuple(Fraction(tok) for tok in t.split(",")),
                  args.xs)
    q0 = _checked(parser, "--q", Fraction, args.q)
    try:
        value = hl_direct_oracle(mu, xs, q0)
    except ValueError as e:
        parser.error(str(e))
    print(value)
    return 0


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
    p.add_argument("--cache-dir",
                   help="directory for persisted transition matrices")
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
                   help="worker processes (affects wall time only)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cache-dir",
                   help="directory for persisted transition matrices")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle",
                       help="evaluate a symmetric function directly")
    p.add_argument("kind", choices=("hl",),
                   help="hl: Hall-Littlewood P from its symmetrization")
    p.add_argument("--mu", required=True, help="partition, e.g. 3,2")
    p.add_argument("--xs", required=True,
                   help="comma separated rationals, e.g. 2,3,1/2")
    p.add_argument("--q", required=True, help="rational, e.g. 1/2")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
