"""Exhaustive identity checking with counterexample reporting.

Every check compares two independently computed exact objects and returns
CheckReport records: status "verified", or "counterexample" with both sides
rendered as strings.  The sweep driver runs checks over all paths up to a
size bound, deterministically, optionally spreading tasks over processes
(ordering and output are identical either way).

main, llt and principal compare a coloring side (X or the LLT polynomial)
with a rook side (placement types).  A path and its reflection in the
anti-diagonal (dyck.reflect) have the same X and LLT, so a sweep runs one
task per reversal orbit: the coloring side is computed once, and each
member of the orbit is reported against its own rook side.  The rook
sides are never shared: that they agree on the orbit is what is checked.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import groupby
from typing import NamedTuple

from rookhl.chromatic import (
    chromatic_x, llt_poly, principal_from_x, principal_monomial,
)
from rookhl.dyck import (
    area, area_sequence, complete_path, concat, enumerate_dyck,
    format_heights, modular_triples, reflect,
)
from rookhl.partitions import (
    conjugate, enumerate_partitions, format_partition, is_vertical_strip,
    multiplicities, nstat,
)
from rookhl.qseries import (
    QLaurent, ZERO, ONE, Q, pack, q_binomial, q_falling, q_int, q_power,
    unpack,
)
from rookhl.rook import hl_coefficients, type_polynomials
from rookhl.symfunc import SymFunc, hl_h, hl_h_tilde, multiply, omega, transitions


class CheckReport(NamedTuple):
    identity: str
    instance: str
    status: str
    lhs: str = ""
    rhs: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "verified"

    def to_json(self) -> dict:
        return self._asdict()


def _report(identity, instance, lhs, rhs) -> CheckReport:
    if lhs == rhs:
        return CheckReport(identity, instance, "verified")
    return CheckReport(identity, instance, "counterexample",
                       lhs=str(lhs), rhs=str(rhs))


def _main_side(gamma) -> SymFunc:
    return chromatic_x(gamma).to_basis("hl_p")


def _main_report(gamma, lhs) -> CheckReport:
    rhs = SymFunc(len(gamma), "hl_p", hl_coefficients(gamma))
    return _report("main", f"heights={format_heights(gamma)}", lhs, rhs)


def check_main(gamma) -> CheckReport:
    """Coloring route against rook route for one path: the full monomial
    expansion pushed into the P basis must equal the placement-derived
    coefficients."""
    return _main_report(gamma, _main_side(gamma))


def check_modular(n: int, level: str) -> list[CheckReport]:
    """Three-term recurrences across every modular triple of size n,
    checked type by type; a counterexample names the first type that
    fails.

    level "r_poly": (1+q) r_mid = r_low + q r_up.
    level "chromatic": (1+q) X_mid = q X_low + X_up, on monomial
    coefficients.
    """
    if level == "r_poly":
        compute, low_weight, up_weight = type_polynomials, ONE, Q
    elif level == "chromatic":
        low_weight, up_weight = Q, ONE

        def compute(g):
            return chromatic_x(g).coeffs
    else:
        raise ValueError(f"unknown level {level!r}")
    memo = {}

    def coeffs(g):
        if g not in memo:
            memo[g] = compute(g)
        return memo[g]

    parts = enumerate_partitions(n)
    reports = []
    for t in modular_triples(n):
        instance = (f"kind={t.kind};column={t.column};"
                    f"middle={format_heights(t.middle)}")
        mid, low, up = coeffs(t.middle), coeffs(t.lower), coeffs(t.upper)
        report = CheckReport(f"modular.{level}", instance, "verified")
        for mu in parts:
            lhs = (ONE + Q) * mid.get(mu, ZERO)
            rhs = low_weight * low.get(mu, ZERO) + up_weight * up.get(mu, ZERO)
            if lhs != rhs:
                report = CheckReport(
                    f"modular.{level}",
                    instance + f";type={format_partition(mu)}",
                    "counterexample", lhs=str(lhs), rhs=str(rhs))
                break
        reports.append(report)
    return reports


@cache
def _strip_factor(nu, mu, k) -> QLaurent:
    """The q-weight a vertical strip nu/mu of size k carries: the power
    shift, the truncated q-factorial over new rows, and one Gaussian
    binomial per part size.  A pure function of its partitions, so it is
    memoized: a sweep asks for the same strips across all paths."""
    nuc, muc = conjugate(nu), conjugate(mu)

    def at(t, i):
        return t[i - 1] if 1 <= i <= len(t) else 0

    factor = q_power(nstat(nu) - nstat(mu) - k * (k - 1) // 2)
    new_rows = at(nuc, 1) - at(muc, 1)
    for t in range(new_rows + 1, k + 1):
        factor = factor * q_int(t)
    mults = multiplicities(mu)
    top = max((nu[0] if nu else 0), (mu[0] if mu else 0))
    for i in range(1, top + 1):
        factor = factor * q_binomial(mults[i], at(nuc, i + 1) - at(muc, i + 1))
    return factor


def check_multiplicativity(gamma, k: int,
                           function_level: bool = False) -> list[CheckReport]:
    """Appending a complete block of size k to a path.

    Coefficient level: each type polynomial of the extended path must be
    the vertical-strip-weighted sum of type polynomials of gamma (one
    report per type).  Function level: the full P-basis expansions must
    multiply (single report).
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = len(gamma)
    extended = concat(gamma, complete_path(k))
    base = f"heights={format_heights(gamma)};k={k}"
    if function_level:
        y1 = SymFunc(n, "hl_p", hl_coefficients(gamma))
        y2 = SymFunc(k, "hl_p", hl_coefficients(complete_path(k)))
        lhs = SymFunc(n + k, "hl_p", hl_coefficients(extended))
        rhs = multiply(y1, y2).to_basis("hl_p")
        return [_report("mult.function", base, lhs, rhs)]
    small = type_polynomials(gamma)
    big = type_polynomials(extended)
    present = [(mu, small[mu]) for mu in enumerate_partitions(n)
               if mu in small]
    reports = []
    for nu in enumerate_partitions(n + k):
        lhs = big.get(nu, ZERO)
        rhs = ZERO
        for mu, r in present:
            if is_vertical_strip(nu, mu):
                rhs = rhs + r * _strip_factor(nu, mu, k)
        reports.append(_report(
            "mult", base + f";type={format_partition(nu)}", lhs, rhs))
    return reports


def _llt_side(gamma) -> SymFunc:
    return llt_poly(gamma).to_basis("schur")


def _llt_report(gamma, lhs) -> CheckReport:
    n, a = len(gamma), area(gamma)
    rpolys = type_polynomials(gamma)
    form1 = SymFunc.zero(n, "schur")
    form2 = SymFunc.zero(n, "schur")
    for mu, r in rpolys.items():
        c1 = ((ONE - Q) ** (n - len(mu))) * q_power(a - nstat(mu)) * r
        form1 = form1 + omega(hl_h(mu)).scale(c1)
        c2 = ((ONE - q_power(-1)) ** (n - len(mu))) * r.invert_q()
        form2 = form2 + hl_h_tilde(mu).scale(c2)
    instance = f"heights={format_heights(gamma)}"
    for form, rhs in (("omega", form1), ("tilde", form2)):
        if lhs != rhs:
            return CheckReport("llt", instance + f";form={form}",
                               "counterexample", lhs=str(lhs), rhs=str(rhs))
    return CheckReport("llt", instance, "verified")


def check_llt(gamma) -> CheckReport:
    """Both closed forms of the word generating function from placement
    data: one through the transposed q-Whittaker transforms, one through
    their inverted-q normalizations."""
    return _llt_report(gamma, _llt_side(gamma))


@cache
def _packed_falling(k, parts, bits) -> int:
    return pack(q_falling(k, parts), bits)


@cache
def _packed_q_int(m, bits) -> int:
    return pack(q_int(m), bits)


def check_principal(gamma, alpha_max: int) -> list[CheckReport]:
    """Three routes to the principal specialization, for each number of
    colors k: the colorings, read off X's monomial coefficients times
    m_la(1, q, ..., q^(k-1)); the placement-type sum with falling
    q-factorials; and the hook-style product over columns.  X comes from
    one walk of the class DP per path, and the types are summed by their
    number of parts, the only thing the falling factorial reads.

    The routes are compared as ints, each evaluated at q = 2^bits
    (qseries.pack).  Every term of every route has nonnegative
    coefficients, so each coefficient of a route is at most its value at
    q = 1, and so are the coefficients of every factor in a nonzero term.
    Those values are plain ints: sum of X_la(1) * m_la(1, ..., 1), sum of
    r(1) * k!/(k - p)!, and the product of (k - a_i).  bits exceeds the
    bit length of the largest by one, so every coefficient is below
    2^(bits-1) and equal ints mean equal polynomials.  A factor past that
    bound, or with a negative coefficient, raises ValueError.  The ints
    are unpacked only to write a counterexample.
    """
    return _principal_reports((gamma,), alpha_max,
                              chromatic_x(gamma).coeffs)[0]


def _principal_reports(members, alpha_max: int,
                       x) -> list[list[CheckReport]]:
    """check_principal's reports for each path of members, all of which
    have X's monomial coefficients x.  They share the direct route, and
    the packing width bounds every route of every member."""
    ks = range(alpha_max + 1)
    at_one = [sum(c.at_one() * principal_monomial(la, k).at_one()
                  for la, c in x.items()) for k in ks]
    rooks = []
    for gamma in members:
        aseq = area_sequence(gamma)
        by_parts = {}
        for mu, r in type_polynomials(gamma).items():
            by_parts[len(mu)] = by_parts.get(len(mu), ZERO) + r
        # The product is nonzero from the first k above every a_i on.
        top = max(aseq, default=-1)
        at_one += [sum(r.at_one() * math.perm(k, p)
                       for p, r in by_parts.items()) for k in ks]
        at_one += [math.prod(k - ai for ai in aseq) for k in ks if k > top]
        rooks.append((gamma, aseq, by_parts, top))
    bits = max(at_one, default=0).bit_length() + 1
    direct = principal_from_x(x, alpha_max, bits)
    out = []
    for gamma, aseq, by_parts, top in rooks:
        a = area(gamma)
        packed = [(p, pack(r, bits)) for p, r in by_parts.items()
                  if p <= alpha_max]
        reports = []
        for colors in ks:
            via_types = sum(r * _packed_falling(colors, p, bits)
                            for p, r in packed if p <= colors) << bits * a
            if colors > top:
                product = math.prod(_packed_q_int(colors - ai, bits)
                                    for ai in aseq) << bits * a
            else:
                product = 0
            instance = f"heights={format_heights(gamma)};colors={colors}"
            if direct[colors] == via_types == product:
                reports.append(CheckReport("principal", instance,
                                           "verified"))
            else:
                reports.append(CheckReport(
                    "principal", instance, "counterexample",
                    lhs=f"direct={unpack(direct[colors], bits)}",
                    rhs=f"types={unpack(via_types, bits)};"
                        f"product={unpack(product, bits)}"))
        out.append(reports)
    return out


IDENTITIES = ("main", "modular", "mult", "llt", "principal")

# The identities whose sweep runs one task per reversal orbit of paths.
ORBIT_IDENTITIES = ("main", "llt", "principal")


def _task_reports(task) -> list[list[CheckReport]]:
    """The reports of one task, one list per path it covers: each member
    of the orbit for main, llt and principal, one path otherwise.  An
    orbit's coloring side is computed once, from its first member."""
    kind = task[0]
    if kind == "main":
        lhs = _main_side(task[1][0])
        return [[_main_report(g, lhs)] for g in task[1]]
    if kind == "llt":
        lhs = _llt_side(task[1][0])
        return [[_llt_report(g, lhs)] for g in task[1]]
    if kind == "principal":
        return _principal_reports(task[1], task[2],
                                  chromatic_x(task[1][0]).coeffs)
    if kind == "modular":
        return [check_modular(task[1], task[2])]
    if kind == "mult":
        return [check_multiplicativity(task[1], task[2],
                                       function_level=task[3])]
    raise ValueError(f"unknown task {task!r}")


def _orbits(n_max: int) -> list[tuple]:
    """The reversal orbits of the paths with n <= n_max: (gamma,) for a
    palindromic path, else (gamma, reflect(gamma)) with gamma the
    lexicographically smaller, in enumerate_dyck's order of gamma."""
    out = []
    for n in range(n_max + 1):
        for g in enumerate_dyck(n):
            r = reflect(g)
            if g < r:
                out.append((g, r))
            elif g == r:
                out.append((g,))
    return out


def sweep_tasks(n_max: int, identities) -> list[tuple]:
    """The deterministic task list a sweep will run.

    Size ranges per identity: main and llt visit every path with n <= n_max,
    one task per reversal orbit; modular runs the placement level for
    n <= n_max and the coloring level for n <= min(n_max, 5); mult uses
    blocks k in 1..3 with n + k <= n_max (function level additionally
    n <= 3, k <= 2); principal sweeps color counts 0..n+2, one task per
    orbit.
    """
    ids = set(identities)
    unknown = ids - set(IDENTITIES)
    if unknown:
        raise ValueError(f"unknown identities: {sorted(unknown)}")
    orbits = _orbits(n_max) if ids & set(ORBIT_IDENTITIES) else []
    tasks: list[tuple] = []
    if "main" in ids:
        tasks.extend(("main", o) for o in orbits)
    if "modular" in ids:
        for n in range(n_max + 1):
            tasks.append(("modular", n, "r_poly"))
        for n in range(min(n_max, 5) + 1):
            tasks.append(("modular", n, "chromatic"))
    if "mult" in ids:
        for k in (1, 2, 3):
            for n in range(max(n_max - k, -1) + 1):
                tasks.extend(("mult", g, k, False)
                             for g in enumerate_dyck(n))
        for k in (1, 2):
            for n in range(min(3, n_max - k) + 1):
                tasks.extend(("mult", g, k, True)
                             for g in enumerate_dyck(n))
    if "llt" in ids:
        tasks.extend(("llt", o) for o in orbits)
    if "principal" in ids:
        tasks.extend(("principal", o, len(o[0]) + 2) for o in orbits)
    return tasks


def conversion_degrees(n_max: int, identities) -> range:
    """The degrees in which a sweep of these identities changes basis, each
    time through the P basis: every size for main and llt, n + k <= 5 for
    the function level of mult, none for modular and principal."""
    ids = set(identities)
    if ids & {"main", "llt"}:
        return range(n_max + 1)
    if "mult" in ids:
        return range(min(n_max, 5) + 1)
    return range(0)


# The process pool class of a sweep with jobs > 1, looked up when the sweep
# runs.  None stands for multiprocessing.Pool, imported there, so that a
# command which never fans out does not load multiprocessing.  Tests and
# profilers may set another class, such as a start method's context.Pool.
Pool = None


def _in_path_order(tasks, chunks) -> list[CheckReport]:
    """The reports of the tasks, flattened in the order of a sweep with one
    task per path.  The tasks of one identity are consecutive, and an
    orbit identity's paths go by size, then lexicographically, as
    enumerate_dyck lists them."""
    reports = []
    for kind, block in groupby(zip(tasks, chunks), key=lambda tc: tc[0][0]):
        if kind in ORBIT_IDENTITIES:
            by_path = sorted(((len(g), g), lists) for task, chunk in block
                             for g, lists in zip(task[1], chunk))
            per_path = [lists for _, lists in by_path]
        else:
            per_path = [lists for _, chunk in block for lists in chunk]
        for lists in per_path:
            reports.extend(lists)
    return reports


def sweep(n_max: int, identities, jobs: int = 1) -> list[CheckReport]:
    """Run every selected check for all sizes up to n_max and return the
    flattened reports in path order, independent of jobs.  At most
    min(jobs, tasks) worker processes start, and none for a single
    task."""
    tasks = sweep_tasks(n_max, identities)
    # Build the P-basis matrix of every degree the checks convert in, and
    # Kostka-Foulkes where llt reads it (through hl_h), before any worker
    # starts, so that forked workers inherit them instead of each building
    # them again.
    for n in conversion_degrees(n_max, identities):
        t = transitions(n)
        t.pm
        if "llt" in identities:
            t.kf
    workers = min(jobs, len(tasks))
    if workers <= 1:
        chunks = [_task_reports(t) for t in tasks]
    else:
        pool_class = Pool
        if pool_class is None:
            from multiprocessing import Pool as pool_class
        with pool_class(workers) as pool:
            chunks = pool.map(_task_reports, tasks, chunksize=1)
    return _in_path_order(tasks, chunks)
