"""Exhaustive identity checking with counterexample reporting.

Every check compares two independently computed exact objects and returns
CheckReport records: status "verified", or "counterexample" with both sides
rendered as strings.  A sweep, stream, runs the checks over all paths
up to a size bound, deterministically, optionally spreading tasks over
processes, and yields the reports in path order as the tasks finish, so no
process holds a whole sweep (ordering and output are identical either
way); sweep is the same reports as one list.

main, llt and principal compare a coloring side (X or the LLT polynomial)
with a rook side (placement types).  A path and its reflection in the
anti-diagonal (dyck.reflect) have the same X and LLT, so a sweep runs one
task per reversal orbit.  Each orbit reporter (_main_reports, _llt_reports,
_principal_reports) reads its coloring side once, from the orbit's first
member, and reports each member against its own rook side.  The rook
sides are never shared: that they agree on the orbit is what is checked.

main, llt, principal and mult compare Python ints: every polynomial
evaluated at q = 2^bits (qseries.pack, pack_signed), the rook side read
as the rook DP's ints at that width (_rook_types).  Evaluation is a ring
homomorphism and the basis changes are division-free (symfunc._solve
against the integer kostka, symfunc._times by kf), so both sides are
computed from packed inputs and packed kf (Transitions.packed) without a
Laurent polynomial; principal's coloring side is summed from packed X
coefficients and packed m_la(1, q, ..., q^(k-1)), each constant packed
once per width (_packed).  Each orbit's width, and mult's per path size
and block size (_mult_width), bounds every coefficient either side can
have and every entry of a table packed, so each is below 2^(bits-1):
equal ints prove equal polynomials, and unequal ints a counterexample
(_width), written from the same ints (qseries.unpack_signed, pack_signed's
inverse on that range).  A polynomial the width does not hold, or with a
negative power of q, raises ValueError.
"""

from __future__ import annotations

import gc
import math
import os
from functools import cache
from heapq import heappop, heappush
from typing import NamedTuple

from rookhl.chromatic import chromatic_x, llt_poly, principal_monomial
from rookhl.dyck import (
    area, area_sequence, complete_path, concat, enumerate_dyck,
    format_heights, modular_triples, reflect,
)
from rookhl.partitions import (
    conjugate, enumerate_partitions, format_partition, multiplicities, nstat,
)
from rookhl.qseries import (
    QLaurent, ZERO, ONE, Q, pack, pack_signed, q_binomial, q_falling, q_int,
    q_power, unpack, unpack_signed,
)
from rookhl.rook import hl_coefficients, mult_factorials, type_polynomials
from rookhl import IDENTITIES, rook, symfunc
from rookhl.symfunc import SymFunc, _solve, _times, multiply, transitions


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


def _bits(bound: int) -> int:
    """The packing width for polynomials whose coefficients are at most
    bound in absolute value: one more than bound's bit length."""
    return bound.bit_length() + 1


def _width(bound: int) -> int:
    """The width main, llt, principal and mult pack at, from a bound on
    every coefficient they compare and every entry of the tables they
    pack.

    Each coefficient is then below 2^(bits-1), so the difference of two
    compared polynomials has every coefficient strictly between -2^bits
    and 2^bits.  Its lowest nonzero one is no multiple of 2^bits, so a
    nonzero difference is nonzero at q = 2^bits: the two values are equal
    exactly when the polynomials are.  A width from _bits that does not
    hold bound raises ValueError instead of returning a verdict.
    """
    bits = _bits(bound)
    if bound >> max(bits - 1, 0):
        raise ValueError(f"{bits} bits cannot hold coefficients up to "
                         f"{bound}")
    return bits


def _solve_bound(vec, norms) -> list[int]:
    """Bounds on the L1 norms of the entries of symfunc._solve(v, m), where
    vec bounds those of v and norms holds those of m: the same forward
    substitution, adding a bound on each product where it subtracts the
    product."""
    x = list(vec)
    for i in range(len(x)):
        if x[i]:
            row = norms[i]
            for j in range(i + 1, len(x)):
                if row[j]:
                    x[j] += x[i] * row[j]
    return x


@cache
def _packed(f, bits, *args) -> int:
    """f(*args) at q = 2^bits by qseries.pack, which raises ValueError on a
    negative coefficient.  Memoized, so f must be a pure function of args:
    a sweep packs the same constants on every path of a size."""
    return pack(f(*args), bits)


def _unpacked(t, values, bits) -> dict:
    """The polynomial at each partition la of t.parts whose value at
    q = 2^bits is la's entry of values."""
    return {la: unpack_signed(v, bits) for la, v in zip(t.parts, values)}


def _read_at_parts(t, coeffs) -> list:
    """coeffs read at each partition of t.parts, in order.  The checks
    compare nothing else, so a key that is not a partition of t.n would go
    unseen: it raises ValueError instead."""
    for la in coeffs:
        if la not in t.index:
            raise ValueError(f"coloring side of degree {t.n} has a "
                             f"coefficient at {la}, not a partition of {t.n}")
    return [coeffs.get(la, ZERO) for la in t.parts]


@cache
def _set_partitions(mu) -> int:
    """The number of set partitions of 1..n into blocks of sizes mu."""
    return math.factorial(sum(mu)) // math.prod(
        map(math.factorial, (*mu, *multiplicities(mu).values())))


def _rook_types(gamma, bits) -> dict[tuple[int, ...], int]:
    """{mu: r_mu at q = 2^bits} from rook._type_polynomials, read under the
    premise every packed check's width rests on: a placement of type mu is
    a set partition of 1..n into blocks of sizes mu (its chains), so r_mu
    counts at most _set_partitions(mu).  A type that counts more, its
    slots summed exactly, raises ValueError."""
    types = rook._type_polynomials(gamma, bits)
    mask = (1 << bits) - 1
    for mu, packed in types.items():
        count = 0
        while packed:
            count += packed & mask
            packed >>= bits
        if count > _set_partitions(mu):
            raise ValueError(f"{count} placements of type {mu} on {gamma}, "
                             f"over its {_set_partitions(mu)} set partitions")
    return types


def _main_reports(members) -> list[list[CheckReport]]:
    """check_main's report for each path of members, a reversal orbit or
    one path, as ints at q = 2^bits.  X is read from the first member.

    X's monomial vector is solved against the integer kostka once, and
    its Schur vector times kf is its P vector, since s_la is the sum over
    mu of K_la,mu(q) P_mu.  Each member's coefficient of P_mu is
    q^(area - n(mu)) r_mu times the product of [m]_q! over the
    multiplicities of mu, a shift of its rook DP int (_rook_types).  The
    width, set before any rook side is read, bounds X's coefficients' L1
    norms pushed through the solve with kostka and then times kostka, and
    n!, which bounds every Kostka number (kf's L1 norms, Transitions.kf)
    and the rook side, r_mu times the product of m! being at most
    n!/prod mu_i!.  A factor past the width, or a shift that drops a
    nonzero slot (a negative power of q), raises ValueError.  A member
    whose ints differ is reported with both sides unpacked from them.
    """
    n = len(members[0])
    t = symfunc.transitions(n)
    vec = _read_at_parts(t, chromatic_x(members[0]).coeffs)
    bounds = _times(_solve_bound([c.l1_norm() for c in vec], t.kostka),
                    t.kostka)
    bits = _width(max(*bounds, math.factorial(n)))
    lhs = _times(_solve([pack_signed(c, bits) for c in vec], t.kostka),
                 t.packed(bits))
    out = []
    for gamma in members:
        a = area(gamma)
        rhs = [0] * len(lhs)
        for mu, r in _rook_types(gamma, bits).items():
            r, low = r << bits * a, bits * nstat(mu)   # times q^(a - n(mu))
            if r & ((1 << low) - 1):
                raise ValueError(f"coefficient of {mu} for {gamma} has a "
                                 f"negative power of q")
            rhs[t.index[mu]] = (r >> low) * _packed(mult_factorials, bits, mu)
        instance = f"heights={format_heights(gamma)}"
        if lhs == rhs:
            out.append([CheckReport("main", instance, "verified")])
        else:
            out.append([CheckReport(
                "main", instance, "counterexample",
                *(str(SymFunc._trusted(n, "hl_p", _unpacked(t, side, bits)))
                  for side in (lhs, rhs)))])
    return out


def check_main(gamma) -> CheckReport:
    """Coloring route against rook route for one path: the full monomial
    expansion pushed into the P basis must equal the placement-derived
    coefficients, compared as ints at q = 2^bits (_main_reports)."""
    return _main_reports((gamma,))[0][0]


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
    coeffs = cache(compute)
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


@cache
def _partitions(n: int) -> tuple:
    """enumerate_partitions(n) as a tuple, memoized: every mult check of a
    size reports on the same partitions, and no caller can change them."""
    return tuple(enumerate_partitions(n))


@cache
def _typed_partitions(n: int) -> tuple:
    """((nu, ";type=" + format_partition(nu)), ...) over _partitions(n):
    each mult report of a size ends with its type's label, formatted once."""
    return tuple((nu, f";type={format_partition(nu)}")
                 for nu in _partitions(n))


def _vertical_strips(mu, k) -> list:
    """The vertical k-strips nu of mu, walked as the conjugates of the
    horizontal k-strips of mu', each met once."""
    return [conjugate(nu_c)
            for nu_c in symfunc._horizontal_strips(conjugate(mu), k)]


@cache
def _mult_width(n: int, k: int) -> int:
    """The width check_multiplicativity packs at for paths of size n and
    blocks of size k: _width of the larger of (n + k)! and n! times the
    largest _strip_factor at q = 1 over the vertical k-strips of the
    partitions of n.  It depends on (n, k) alone, so the packed strips of
    every path of a size share it."""
    top = max(_strip_factor(nu, mu, k).at_one()
              for mu in _partitions(n) for nu in _vertical_strips(mu, k))
    return _width(max(math.factorial(n + k), math.factorial(n) * top))


@cache
def _packed_strips(mu, k, bits) -> tuple:
    """((nu, _strip_factor(nu, mu, k) at q = 2^bits), ...) over the
    vertical k-strips nu of mu, in _vertical_strips' order.  Memoized: a
    sweep asks for the same strips across all paths."""
    return tuple((nu, pack(_strip_factor(nu, mu, k), bits))
                 for nu in _vertical_strips(mu, k))


def check_multiplicativity(gamma, k: int,
                           function_level: bool = False) -> list[CheckReport]:
    """Appending a complete block of size k to a path.

    Coefficient level: each type polynomial of the extended path must be
    the vertical-strip-weighted sum of type polynomials of gamma (one
    report per partition of n + k, zero sides included).  Each type mu of
    gamma is added into the vertical k-strips nu of mu (_packed_strips).
    Function level: the full P-basis expansions must multiply (single
    report).

    The coefficient level compares ints at q = 2^bits, bits =
    _mult_width(n, k), with both paths' type polynomials packed at that
    width by the rook DP.  gamma's are read under its premise
    (_rook_types), so gamma has at most Bell(n) <= n! placements, and
    type polynomials and strip factors have no negative coefficient: each
    coefficient of a strip sum is at most n! times a strip factor at
    q = 1, below 2^(bits-1) (_width).  The extended path's ints are
    compared as they stand, each slot a coefficient below 2^bits, so
    equal ints prove equal polynomials with no premise on them.  The ints
    are unpacked only to write a counterexample.
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
    bits = _mult_width(n, k)
    big = rook._type_polynomials(extended, bits)
    sums = {}
    for mu, packed in _rook_types(gamma, bits).items():
        for nu, factor in _packed_strips(mu, k, bits):
            sums[nu] = sums.get(nu, 0) + packed * factor
    reports = []
    for nu, label in _typed_partitions(n + k):
        instance = base + label
        lhs, rhs = big.get(nu, 0), sums.get(nu, 0)
        if lhs == rhs:
            reports.append(CheckReport("mult", instance, "verified"))
        else:
            reports.append(CheckReport("mult", instance, "counterexample",
                                       str(unpack(lhs, bits)),
                                       str(unpack(rhs, bits))))
    return reports


@cache
def _packed_llt_weight(mu, bits) -> int:
    """(1 - q)^(n - l(mu)) q^(D - n(mu)) at q = 2^bits, with D = n(n-1)/2
    the largest n(mu): the weight of r_mu in q^D times check_llt's S."""
    n = sum(mu)
    return pack_signed((ONE - Q) ** (n - len(mu))
                       * q_power(n * (n - 1) // 2 - nstat(mu)), bits)


@cache
def _conjugates(n: int) -> list[int]:
    """The position of conjugate(la) for each partition la of n."""
    t = symfunc.transitions(n)
    return [t.index[conjugate(la)] for la in t.parts]


def _columns_times(rows, terms) -> list[int]:
    """The sum over (j, c) in terms of c times column j of rows, one entry
    per row, skipping the zero entries: llt's rook side from kf's packed
    entries, and a bound on it from their L1 norms, the Kostka numbers."""
    return [sum(c * row[j] for j, c in terms if row[j]) for row in rows]


@cache
def _llt_rook_bound(n: int) -> int:
    """The largest over la of the sum over mu of _set_partitions(mu)
    2^(n - l(mu)) K_la,mu: a bound on llt's rook side T[la] under
    _rook_types' premise, each weight's L1 norm being 2^(n - l(mu))."""
    t = symfunc.transitions(n)
    terms = [(j, _set_partitions(mu) << n - len(mu))
             for j, mu in enumerate(t.parts)]
    return max(_columns_times(t.kostka, terms))


def _llt_reports(members) -> list[list[CheckReport]]:
    """check_llt's report for each path of members, a reversal orbit or
    one path, as ints at q = 2^bits.  The word function f is read from the
    first member.

    Both forms come from one vector, S[la] = sum over mu of
    (1 - q)^(n - l(mu)) q^(-n(mu)) r_mu K_la,mu(q).  Form omega holds when
    LLT's Schur coefficient at conjugate(la) is q^area S[la], and form
    tilde when its coefficient at la, with q inverted, is S[la].

    LLT's Schur vector is solved against the integer kostka once, from f
    and from f with q inverted and times q^E, E its top degree: kostka has
    no q, so inverting q commutes with the solve.  Each member packs
    T = q^D S, with D = n(n-1)/2 the largest n(mu), as the sum over its
    types of r_mu times _packed_llt_weight times column mu of kf.  Every
    compared int is then a polynomial's value: q^D times LLT's coefficient
    at conjugate(la) against q^area T[la], and q^(D+E) times LLT's at la
    with q inverted against q^E T[la].

    The width, set before any rook side is read, bounds every coefficient
    of both sides and every entry of kf: f's L1 norms pushed through the
    solve with kostka, _llt_rook_bound(n), and n!, which the rook DP needs
    and each Kostka number (kf's L1 norms) is below.  A factor past the
    width, or with a negative power of q, raises ValueError.  A member
    whose ints differ is reported with LLT's Schur coefficients and the
    first form that fails unpacked from them: form omega at conjugate(la)
    is T[la] times q^(area - D), form tilde at la T[la] times q^(-D) with
    q inverted.
    """
    n = len(members[0])
    t = symfunc.transitions(n)
    vec = _read_at_parts(t, llt_poly(members[0]).coeffs)
    top = max(c.max_exp for c in vec)
    bounds = _solve_bound([c.l1_norm() for c in vec], t.kostka)
    bits = _width(max(*bounds, _llt_rook_bound(n), math.factorial(n)))
    d = n * (n - 1) // 2
    lhs = _solve([pack_signed(c, bits) for c in vec], t.kostka)
    omega_lhs = [lhs[i] << bits * d for i in _conjugates(n)]
    tilde_lhs = [x << bits * d for x in _solve(
        [pack_signed(c.invert_q().shift(top), bits) for c in vec],
        t.kostka)]
    kf = t.packed(bits)
    out = []
    for gamma in members:
        a = area(gamma)
        weights = [(t.index[mu], r * _packed_llt_weight(mu, bits))
                   for mu, r in _rook_types(gamma, bits).items()]
        packed = _columns_times(kf, weights)
        instance = f"heights={format_heights(gamma)}"
        omega = omega_lhs == [v << bits * a for v in packed]
        if omega and tilde_lhs == [v << bits * top for v in packed]:
            out.append([CheckReport("llt", instance, "verified")])
            continue
        forms = _unpacked(t, packed, bits)
        if not omega:
            form, rhs = "omega", {conjugate(la): c.shift(a - d)
                                  for la, c in forms.items()}
        else:
            form, rhs = "tilde", {la: c.shift(-d).invert_q()
                                  for la, c in forms.items()}
        out.append([CheckReport(
            "llt", instance + f";form={form}", "counterexample",
            str(SymFunc._trusted(n, "schur", _unpacked(t, lhs, bits))),
            str(SymFunc._trusted(n, "schur", rhs)))])
    return out


def check_llt(gamma) -> CheckReport:
    """Both closed forms of the word generating function from placement
    data: one through the transposed q-Whittaker transforms, one through
    their inverted-q normalizations, compared as ints at q = 2^bits
    (_llt_reports)."""
    return _llt_reports((gamma,))[0][0]


def check_principal(gamma, alpha_max: int) -> list[CheckReport]:
    """Three routes to the principal specialization, for each number of
    colors k = 0..alpha_max: the colorings, the sum over la of X's
    monomial coefficient times m_la(1, q, ..., q^(k-1))
    (chromatic.principal_monomial); the placement-type sum with falling
    q-factorials; and the hook-style product over columns.  X comes from
    one chromatic_x call per path, and the types are summed by their
    number of parts, the only thing the falling factorial reads.  A
    negative alpha_max raises ValueError.

    The routes are compared as ints, each evaluated at q = 2^bits
    (qseries.pack).  Every term of every route has nonnegative
    coefficients, so each coefficient of a route is at most its value at
    q = 1, and so are the coefficients of every factor in a nonzero term.
    The width, set before any rook side is read, exceeds by one the bit
    length of the largest of: X_la(1) m_la(1, ..., 1) summed, for each k;
    n!, for the rook DP; and alpha_max^n, which bounds the product of
    (k - a_i) and the sum of r(1) k!/(k - p)!, the p-part types counting
    at most S(n, p) placements (_rook_types) and the sum over p of
    S(n, p) k!/(k - p)! being k^n.  A factor past that bound, or with a
    negative coefficient, raises ValueError.  The ints are unpacked only
    to write a counterexample.
    """
    return _principal_reports((gamma,), alpha_max)[0]


def _principal_reports(members, alpha_max: int) -> list[list[CheckReport]]:
    """check_principal's reports for each path of members, a reversal orbit
    or one path, X read from the first member and the direct route shared."""
    if alpha_max < 0:
        raise ValueError("colors must be nonnegative")
    x = chromatic_x(members[0]).coeffs
    ks = range(alpha_max + 1)
    at_one = [sum(c.at_one() * principal_monomial(la, k).at_one()
                  for la, c in x.items()) for k in ks]
    n = len(members[0])
    bits = _width(max(*at_one, alpha_max ** n, math.factorial(n)))
    # A partition with more than alpha_max parts adds nothing at any k.
    terms = [(la, pack(c, bits)) for la, c in x.items()
             if len(la) <= alpha_max]
    direct = [sum(c * _packed(principal_monomial, bits, la, k)
                  for la, c in terms) for k in ks]
    out = []
    for gamma in members:
        a = area(gamma)
        aseq = area_sequence(gamma)
        # The product is nonzero from the first k above every a_i on.
        top = max(aseq, default=-1)
        by_parts = {}
        for mu, r in _rook_types(gamma, bits).items():
            by_parts[len(mu)] = by_parts.get(len(mu), 0) + r
        reports = []
        for colors in ks:
            via_types = sum(r * _packed(q_falling, bits, colors, p)
                            for p, r in by_parts.items()
                            if p <= colors) << bits * a
            if colors > top:
                product = math.prod(_packed(q_int, bits, colors - ai)
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


# The identities whose sweep runs one task per reversal orbit of paths.
ORBIT_IDENTITIES = ("main", "llt", "principal")


# The reports of a task from its arguments (sweep_tasks), by its kind: one
# list per path, each member of the orbit for main, llt and principal.
# check_modular and check_multiplicativity are looked up when a task runs,
# so that a wrapper put in their place after import (perfbench/tracer.py
# times them) is the one called.
_TASK_KINDS = {
    "main": _main_reports,
    "llt": _llt_reports,
    "principal": _principal_reports,
    "modular": lambda *args: [check_modular(*args)],
    "mult": lambda *args: [check_multiplicativity(*args)],
}


def _task_reports(task) -> list[list[CheckReport]]:
    """The reports of one task of sweep_tasks, by its kind, task[0]."""
    if task[0] not in _TASK_KINDS:
        raise ValueError(f"unknown task {task!r}")
    return _TASK_KINDS[task[0]](*task[1:])


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


# The process pool class of a sweep with jobs > 1, looked up when the sweep
# runs.  None stands for fanout.ForkPool, imported there, so that a command
# which never fans out does not load it, or, without os.fork, for no pool.
# Tests and profilers may set another class with its interface, such as a
# start method's context.Pool: a context manager whose map(fn, tasks)
# returns an iterable of the results in task order.  The sweep builds it
# over a frozen heap.
Pool = None


def _in_path_order(tasks, chunks):
    """Yield the reports of the tasks, from their chunks in task order, in
    the order of a sweep with one task per path, each path's as soon as
    every earlier path of its block is in.  The tasks of one identity are
    consecutive, and an orbit identity's paths go by size, then
    lexicographically, as enumerate_dyck lists them.  An orbit task's first
    member is the smaller, so once a task is in, so is every path before
    the next task's first member, and none after it is."""
    waiting = []    # (size, path, reports) of paths not yet yielded
    for i, (task, chunk) in enumerate(zip(tasks, chunks)):
        if task[0] not in ORBIT_IDENTITIES:
            for lists in chunk:
                yield from lists
            continue
        for g, lists in zip(task[1], chunk):
            heappush(waiting, (len(g), g, lists))
        after = tasks[i + 1] if i + 1 < len(tasks) else (None,)
        if after[0] == task[0]:
            bound = (len(after[1][0]), after[1][0])
        else:
            bound = (math.inf,)
        while waiting and waiting[0][:2] < bound:
            yield from heappop(waiting)[2]


def stream(n_max: int, identities, jobs: int = 1):
    """Run every selected check for all sizes up to n_max and yield the
    reports in path order, independent of jobs and of the pool, each as
    soon as its task and every task it follows have finished.  At most
    min(jobs, tasks) worker processes start: none for a single task, nor,
    with Pool None, without os.fork.  Workers take contiguous batches of
    ceil(tasks / 4 workers), so neighbouring paths share induced paths in
    one worker's coloring memo, and inherit a frozen heap, which their
    collectors do not walk and so do not copy.  A task's exception is
    raised after the reports before it.  Once the iterator finishes,
    raises or is closed, the pool is closed, its workers reaped, and the
    heap unfrozen."""
    identities = set(identities)
    tasks = sweep_tasks(n_max, identities)
    # Build kf (its L1 norms are kostka), which main and llt pack, at every
    # degree before any worker starts, so that forked workers inherit it
    # instead of each building it again.  It is packed where an orbit first
    # asks for its width.  mult's function level reads degrees up to 5,
    # built where first asked for.
    if identities & {"main", "llt"}:
        for n in range(n_max + 1):
            transitions(n).kf
    workers = min(jobs, len(tasks))
    pool_class = Pool
    if workers > 1 and pool_class is None and hasattr(os, "fork"):
        from rookhl.fanout import ForkPool as pool_class
    if workers <= 1 or pool_class is None:
        yield from _in_path_order(tasks, map(_task_reports, tasks))
        return
    gc.freeze()
    try:
        with pool_class(workers) as pool:
            yield from _in_path_order(tasks, pool.map(_task_reports, tasks))
    finally:
        gc.unfreeze()


def sweep(n_max: int, identities, jobs: int = 1) -> list[CheckReport]:
    """The reports of stream(n_max, identities, jobs), as one list."""
    return list(stream(n_max, identities, jobs))
