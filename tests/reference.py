"""Reference forms that only the tests read: a path's graph edges and board
cells listed as sets, dominance order, e_k and 1 in the monomial basis,
the q-integer [n]_q, the falling q-factorial and [n]_q! as Laurent
polynomials (the oracles of qseries.q_falling_at, the packed product of
repunits every check reads), the exact value of a Laurent
polynomial and of a symmetric function at rational points, a Hall-Littlewood P evaluated straight from its
symmetrization formula, single coefficients of a Laurent polynomial and
of a symmetric function, the sum, scaling and difference of symmetric
functions and the zero one, the
readers of the package's JSON forms, and the Schur-basis transforms that
check_llt's right side is built from one type at a time (omega, hl_h,
hl_h_tilde, llt_forms), the oracle of its packed Kostka-Foulkes columns,
check_multiplicativity's coefficient level as a scan over every pair
of a type and a partition filtered by is_vertical_strip, each strip
weighted by a Laurent polynomial built factor by factor, from two walks
of the rook DP (mult_by_pair_scan, strip_factor), the oracle of its strip
walk, and the monomial product as a scan over every pair of exponent
vectors (multiply_by_pairs), the oracle of symfunc.multiply, and the
bound on the L1 norms of a forward substitution as its own loop
(solve_bound), the oracle of verify's solve against -kostka.

The package never lists edges or cells (the coloring DP reads each vertex's
window, the rook DP each row's open columns), so these are independent of
how it walks a path.
"""

import itertools
from fractions import Fraction

from rookhl.dyck import area, complete_path, concat, format_heights
from rookhl.partitions import (
    check_partition, conjugate, enumerate_partitions, format_partition,
    multiplicities, nstat,
)
from rookhl.qseries import ONE, Q, ZERO, QLaurent, from_int, q_power
from rookhl.rook import type_polynomials
from rookhl.symfunc import SymFunc, _padded_orbits, transitions
from rookhl.verify import CheckReport, _report


def edges(gamma: tuple[int, ...]) -> set[tuple[int, int]]:
    """Graph edges: pairs i < j with j at or below the height of column i."""
    return {(i, j)
            for i, m in enumerate(gamma, start=1)
            for j in range(i + 1, m + 1)}


def poset_cells(gamma: tuple[int, ...]) -> set[tuple[int, int]]:
    """Board cells (column i, row j): pairs i < j strictly above the path."""
    n = len(gamma)
    return {(i, j)
            for i, m in enumerate(gamma, start=1)
            for j in range(m + 1, n + 1)}


def dominance_leq(mu: tuple[int, ...], la: tuple[int, ...]) -> bool:
    """True when mu is dominated by la (partial sums of la are >= those of mu).

    Only defined for partitions of the same number.
    """
    if sum(mu) != sum(la):
        raise ValueError(f"dominance compares partitions of equal size, "
                         f"got {mu} and {la}")
    total_mu = total_la = 0
    for i in range(max(len(mu), len(la))):
        total_mu += mu[i] if i < len(mu) else 0
        total_la += la[i] if i < len(la) else 0
        if total_mu > total_la:
            return False
    return True


def one(basis: str = "monomial") -> SymFunc:
    """The constant 1, in degree 0."""
    return SymFunc(0, basis, {(): ONE})


def elementary(k: int) -> SymFunc:
    """e_k as a monomial-basis function."""
    if k < 0:
        raise ValueError("elementary requires k >= 0")
    return SymFunc(k, "monomial", {(1,) * k: ONE})


def q_int(n: int) -> QLaurent:
    """[n]_q = 1 + q + ... + q^(n-1).  [0]_q = 0."""
    if n < 0:
        raise ValueError("q_int requires n >= 0")
    return QLaurent(0, (1,) * n)


def q_falling(alpha: int, k: int) -> QLaurent:
    """Falling q-factorial [alpha]_q [alpha-1]_q ... [alpha-k+1]_q.

    Zero when k > alpha (a factor [0]_q occurs); 1 when k = 0.
    """
    if alpha < 0 or k < 0:
        raise ValueError("q_falling requires nonnegative arguments")
    if k > alpha:
        return ZERO
    result = ONE
    for t in range(alpha, alpha - k, -1):
        result = result * q_int(t)
    return result


def q_factorial(n: int) -> QLaurent:
    """[n]_q! = [1]_q [2]_q ... [n]_q, q_falling(n, n).  Empty product 1
    for n = 0."""
    if n < 0:
        raise ValueError("q_factorial requires n >= 0")
    return q_falling(n, n)


def q_eval(p: QLaurent, q0) -> Fraction:
    """Evaluate p exactly at a rational point q0."""
    q0 = Fraction(q0)
    if p.min_exp < 0 and q0 == 0:
        raise ZeroDivisionError("negative q-power evaluated at q=0")
    total = Fraction(0)
    for i, c in enumerate(p.coeffs):
        if c:
            total += c * q0 ** (p.min_exp + i)
    return total


def evaluate(f: SymFunc, xs, q0) -> Fraction:
    """Exact value of f at concrete rational x's and rational q."""
    xs = [Fraction(x) for x in xs]
    q0 = Fraction(q0)
    fm = f.to_basis("monomial")
    total = Fraction(0)
    for la, c in fm.coeffs.items():
        if len(la) > len(xs):
            continue
        mval = Fraction(0)
        for alpha in _padded_orbits(la, len(xs)):
            term = Fraction(1)
            for x, e in zip(xs, alpha):
                term *= x ** e
            mval += term
        total += q_eval(c, q0) * mval
    return total


def hl_direct_oracle(mu, xs, q0) -> Fraction:
    """The P function evaluated straight from its symmetrization formula,
    bypassing tableaux entirely.

    Averages x^mu over all variable orderings against the product of
    (x_i - q x_j)/(x_i - x_j), then divides by the q-factorials of the
    part multiplicities (counting absent parts as the 0 multiplicity).
    Needs pairwise distinct x's.
    """
    mu = check_partition(tuple(mu))
    xs = [Fraction(x) for x in xs]
    q0 = Fraction(q0)
    k = len(xs)
    if len(set(xs)) != k:
        raise ValueError("evaluation points must be pairwise distinct")
    if len(mu) > k:
        return Fraction(0)
    denom = Fraction(1)
    mults = multiplicities(mu)
    mults[0] = k - len(mu)
    for m in mults.values():
        fact = q_eval(q_factorial(m), q0)
        if fact == 0:
            raise ValueError(f"multiplicity factorial vanishes at q={q0}")
        denom *= fact
    exps = tuple(mu) + (0,) * (k - len(mu))
    total = Fraction(0)
    for w in itertools.permutations(range(k)):
        term = Fraction(1)
        for t in range(k):
            term *= xs[w[t]] ** exps[t]
        for i in range(k):
            for j in range(i + 1, k):
                term *= (xs[w[i]] - q0 * xs[w[j]]) / (xs[w[i]] - xs[w[j]])
        total += term
    return total / denom


def coeff(p: QLaurent, exp: int) -> int:
    """Coefficient of q**exp in p."""
    i = exp - p.min_exp
    if 0 <= i < len(p.coeffs):
        return p.coeffs[i]
    return 0


def qlaurent_from_json(obj: dict) -> QLaurent:
    """The QLaurent that QLaurent.to_json wrote."""
    return QLaurent(int(obj["min_exp"]), [int(c) for c in obj["coeffs"]])


def symfunc_from_json(obj: dict) -> SymFunc:
    """The SymFunc that SymFunc.to_json (and `expand --json`) wrote."""
    return SymFunc(int(obj["degree"]), obj["basis"],
                   {tuple(e["part"]): qlaurent_from_json(e["poly"])
                    for e in obj["coeffs"]})


def zero(degree: int, basis: str = "monomial") -> SymFunc:
    """The zero function of a degree."""
    return SymFunc(degree, basis, {})


def coefficient(f: SymFunc, la) -> QLaurent:
    """f's coefficient at the partition la, zero where f has none."""
    return f.coeffs.get(tuple(la), ZERO)


def add(f: SymFunc, g: SymFunc) -> SymFunc:
    """f + g, for matching degree and basis."""
    if f.degree != g.degree or f.basis != g.basis:
        raise ValueError("can only add matching degree and basis")
    out = dict(f.coeffs)
    for la, c in g.coeffs.items():
        out[la] = out.get(la, ZERO) + c
    return SymFunc._trusted(f.degree, f.basis, out)


def scale(f: SymFunc, poly) -> SymFunc:
    """f with every coefficient times poly (a QLaurent or an int)."""
    if isinstance(poly, int):
        poly = from_int(poly)
    return SymFunc._trusted(f.degree, f.basis,
                            {la: c * poly for la, c in f.coeffs.items()})


def subtract(f: SymFunc, g: SymFunc) -> SymFunc:
    """f - g, for matching degree and basis."""
    return add(f, scale(g, -1))


def map_coeffs(f: SymFunc, fn) -> SymFunc:
    """f with fn applied to every coefficient."""
    return SymFunc(f.degree, f.basis,
                   {la: fn(c) for la, c in f.coeffs.items()})


def omega(f: SymFunc) -> SymFunc:
    """The involution transposing every Schur index (q is untouched)."""
    s = f.to_basis("schur")
    return SymFunc(s.degree, "schur",
                   {conjugate(la): c for la, c in s.coeffs.items()})


def hl_h(mu) -> SymFunc:
    """The q-Whittaker-side transform of P: sum of Kostka-Foulkes
    polynomials against Schur functions for the given content mu."""
    mu = check_partition(tuple(mu))
    n = sum(mu)
    t = transitions(n)
    j = t.index[mu]
    return SymFunc(n, "schur",
                   {la: t.kf[i][j] for i, la in enumerate(t.parts)
                    if t.kf[i][j]})


def hl_h_tilde(mu) -> SymFunc:
    """hl_h with q inverted and renormalized to polynomial coefficients."""
    mu = check_partition(tuple(mu))
    shift = nstat(mu)
    return map_coeffs(hl_h(mu), lambda c: c.invert_q().shift(shift))


def llt_forms(gamma) -> tuple[SymFunc, SymFunc]:
    """Both closed forms of the word generating function in the Schur
    basis, summed type by type from the path's type polynomials: through
    omega(hl_h(mu)), and through hl_h_tilde(mu)."""
    n, a = len(gamma), area(gamma)
    form1 = zero(n, "schur")
    form2 = zero(n, "schur")
    for mu, r in type_polynomials(gamma).items():
        c1 = ((ONE - Q) ** (n - len(mu))) * q_power(a - nstat(mu)) * r
        form1 = add(form1, scale(omega(hl_h(mu)), c1))
        c2 = ((ONE - q_power(-1)) ** (n - len(mu))) * r.invert_q()
        form2 = add(form2, scale(hl_h_tilde(mu), c2))
    return form1, form2


def is_vertical_strip(nu: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """True when nu/mu is a vertical strip: mu fits inside nu and each row
    grows by at most one box."""
    n = max(len(nu), len(mu))
    for i in range(n):
        a = nu[i] if i < len(nu) else 0
        b = mu[i] if i < len(mu) else 0
        if not (b <= a <= b + 1):
            return False
    return True


def q_binomial(n: int, k: int) -> QLaurent:
    """Gaussian binomial [n]_q! / ([k]_q! [n-k]_q!), built row by row of
    q-Pascal's triangle, [m, j] = [m-1, j-1] + q^j [m-1, j], keeping the
    entries j <= k of one row."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"q_binomial undefined for n={n}, k={k}")
    row = [ONE] + [ZERO] * k
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            row[j] = row[j - 1] + row[j].shift(j)
    return row[k]


def strip_factor(nu, mu, k) -> QLaurent:
    """The q-weight a vertical strip nu/mu of size k carries: the power
    shift, the truncated q-factorial over new rows, and one Gaussian
    binomial per part size, each a Laurent polynomial."""
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


def mult_by_pair_scan(gamma, k) -> list[CheckReport]:
    """check_multiplicativity's coefficient-level reports, one per
    partition nu of n + k, each summing r_mu times the strip factor over
    every type mu of gamma that passes the is_vertical_strip filter."""
    n = len(gamma)
    small = type_polynomials(gamma)
    big = type_polynomials(concat(gamma, complete_path(k)))
    base = f"heights={format_heights(gamma)};k={k}"
    present = [(mu, small[mu]) for mu in enumerate_partitions(n)
               if mu in small]
    reports = []
    for nu in enumerate_partitions(n + k):
        rhs = ZERO
        for mu, r in present:
            if is_vertical_strip(nu, mu):
                rhs = rhs + r * strip_factor(nu, mu, k)
        reports.append(_report("mult", base + f";type={format_partition(nu)}",
                               big.get(nu, ZERO), rhs))
    return reports


def multiply_by_pairs(f: SymFunc, g: SymFunc) -> SymFunc:
    """The product of f and g in the monomial basis, from every pair of
    exponent vectors of the two in f.degree + g.degree variables, kept
    where their sum is weakly decreasing."""
    fm = f.to_basis("monomial")
    gm = g.to_basis("monomial")
    nvars = f.degree + g.degree
    left, right = ({alpha: c for la, c in h.coeffs.items()
                    for alpha in _padded_orbits(la, nvars)}
                   for h in (fm, gm))
    acc: dict[tuple, QLaurent] = {}
    for a, ca in left.items():
        for b, cb in right.items():
            e = tuple(x + y for x, y in zip(a, b))
            if all(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                acc[e] = acc.get(e, ZERO) + ca * cb
    out = {tuple(p for p in e if p): c for e, c in acc.items()}
    return SymFunc(nvars, "monomial", out)


def solve_bound(vec, norms) -> list[int]:
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
