"""Exhaustive identity checking with counterexample reporting.

Every check compares two independently computed exact objects and returns
CheckReport records: status "verified", or "counterexample" with both sides
rendered as strings.  The sweep driver runs checks over all paths up to a
size bound, deterministically, optionally spreading tasks over processes
(ordering and output are identical either way).
"""

from __future__ import annotations

import math
from functools import cache
from multiprocessing import Pool
from typing import NamedTuple

from rookhl.chromatic import (
    chromatic_x, llt_poly, principal_from_x, principal_monomial,
)
from rookhl.dyck import (
    area, area_sequence, complete_path, concat, enumerate_dyck,
    format_heights, modular_triples,
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


def check_main(gamma) -> CheckReport:
    """Coloring route against rook route for one path: the full monomial
    expansion pushed into the P basis must equal the placement-derived
    coefficients."""
    n = len(gamma)
    lhs = chromatic_x(gamma).to_basis("hl_p")
    rhs = SymFunc(n, "hl_p", hl_coefficients(gamma))
    return _report("main", f"heights={format_heights(gamma)}", lhs, rhs)


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


def check_llt(gamma) -> CheckReport:
    """Both closed forms of the word generating function from placement
    data: one through the transposed q-Whittaker transforms, one through
    their inverted-q normalizations."""
    n, a = len(gamma), area(gamma)
    lhs = llt_poly(gamma).to_basis("schur")
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
    a = area(gamma)
    aseq = area_sequence(gamma)
    x = chromatic_x(gamma).coeffs
    by_parts = {}
    for mu, r in type_polynomials(gamma).items():
        by_parts[len(mu)] = by_parts.get(len(mu), ZERO) + r
    ks = range(alpha_max + 1)
    # The product is nonzero from the first k above every a_i on.
    top = max(aseq, default=-1)
    at_one = [
        *(sum(c.at_one() * principal_monomial(la, k).at_one()
              for la, c in x.items()) for k in ks),
        *(sum(r.at_one() * math.perm(k, p) for p, r in by_parts.items())
          for k in ks),
        *(math.prod(k - ai for ai in aseq) for k in ks if k > top),
    ]
    bits = max(at_one, default=0).bit_length() + 1
    direct = principal_from_x(x, alpha_max, bits)
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
            reports.append(CheckReport("principal", instance, "verified"))
        else:
            reports.append(CheckReport(
                "principal", instance, "counterexample",
                lhs=f"direct={unpack(direct[colors], bits)}",
                rhs=f"types={unpack(via_types, bits)};"
                    f"product={unpack(product, bits)}"))
    return reports


IDENTITIES = ("main", "modular", "mult", "llt", "principal")


def _task_reports(task) -> list[CheckReport]:
    kind = task[0]
    if kind == "main":
        return [check_main(task[1])]
    if kind == "modular":
        return check_modular(task[1], task[2])
    if kind == "mult":
        return check_multiplicativity(task[1], task[2],
                                      function_level=task[3])
    if kind == "llt":
        return [check_llt(task[1])]
    if kind == "principal":
        return check_principal(task[1], task[2])
    raise ValueError(f"unknown task {task!r}")


def sweep_tasks(n_max: int, identities) -> list[tuple]:
    """The deterministic task list a sweep will run.

    Size ranges per identity: main and llt visit every path with n <= n_max;
    modular runs the placement level for n <= n_max and the coloring level
    for n <= min(n_max, 5); mult uses blocks k in 1..3 with n + k <= n_max
    (function level additionally n <= 3, k <= 2); principal sweeps color
    counts 0..n+2.
    """
    ids = set(identities)
    unknown = ids - set(IDENTITIES)
    if unknown:
        raise ValueError(f"unknown identities: {sorted(unknown)}")
    tasks: list[tuple] = []
    if "main" in ids:
        for n in range(n_max + 1):
            tasks.extend(("main", g) for g in enumerate_dyck(n))
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
        for n in range(n_max + 1):
            tasks.extend(("llt", g) for g in enumerate_dyck(n))
    if "principal" in ids:
        for n in range(n_max + 1):
            tasks.extend(("principal", g, n + 2)
                         for g in enumerate_dyck(n))
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


def sweep(n_max: int, identities, jobs: int = 1) -> list[CheckReport]:
    """Run every selected check for all sizes up to n_max and return the
    flattened reports in task order, independent of jobs."""
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
    if jobs <= 1:
        chunks = [_task_reports(t) for t in tasks]
    else:
        with Pool(jobs) as pool:
            chunks = pool.map(_task_reports, tasks, chunksize=1)
    return [r for chunk in chunks for r in chunk]
