"""Symmetric functions with exact Laurent coefficients, in three bases:
monomial, Schur, and Hall-Littlewood P.

The monomial basis is the hub of every basis change.  Schur and P functions
are expanded in monomials by walking chains of horizontal strips: each chain
counts once for the Kostka numbers and is weighted by Macdonald's psi for the
P functions.  A conversion multiplies by the source basis's matrix and solves
against the target's by division-free forward substitution; both matrices
are upper unitriangular.  Being division-free, the same substitution runs
over ints: against the integer Kostka matrix, and times the
Kostka-Foulkes matrix evaluated at q = 2^bits (Transitions.packed), which
is how verify compares its identities as ints.

SymFunc(...) checks every key and coefficient it is given.  The results the
package builds from keys it has already checked (basis changes, the
coloring DP's outputs, the sides of verify's counterexamples) go through
SymFunc._trusted, which checks nothing.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property

from rookhl.partitions import (
    check_partition, coefficient_line, conjugate, enumerate_partitions,
)
from rookhl.qseries import QLaurent, ZERO, ONE, from_int, pack_signed, q_power

BASES = ("monomial", "schur", "hl_p")

# The attribute of Transitions expanding each non-monomial basis in monomials.
_MATRIX = {"schur": "kostka", "hl_p": "pm"}


# -- transition matrices -------------------------------------------------------


def _times(vec, m):
    """Row vector times an upper unitriangular matrix, skipping zeros."""
    out = list(vec)
    for i, c in enumerate(vec):
        if c:
            row = m[i]
            for j in range(i + 1, len(vec)):
                if row[j]:
                    out[j] = out[j] + c * row[j]
    return out


def _solve(vec, m):
    """The row vector x with x m = vec, for m upper unitriangular, by
    forward substitution.  Entirely division-free, so it works over ints
    and over Laurent polynomials alike."""
    x = list(vec)
    for i in range(len(x)):
        if x[i]:
            row = m[i]
            for j in range(i + 1, len(x)):
                if row[j]:
                    x[j] = x[j] - x[i] * row[j]
    return x


@cache
def _horizontal_strips(la, k) -> tuple:
    """Every shape nu that adds k boxes to la, no two in one column: row i
    of nu lies between la_i and la_(i-1), with one new row allowed.  Every
    column of every degree asks for the same strips, so they are
    memoized.

    Depth-first over the rows, each entry (i, boxes left, rows 0..i-1 of
    nu), smaller additions first.  Once no box is left the rows from i on
    are la's, so nu is complete.
    """
    out = []
    stack = [(0, k, ())]
    while stack:
        i, left, rows = stack.pop()
        if not left:
            out.append(rows + la[i:])
        elif i <= len(la):
            base = la[i] if i < len(la) else 0
            room = left if i == 0 else min(left, la[i - 1] - base)
            for add in range(room, -1, -1):
                stack.append((i + 1, left - add, rows + (base + add,)))
    return tuple(out)


@cache
def _psi(la, nu) -> QLaurent:
    """Macdonald's weight of the horizontal strip nu/la (III (5.8')): the
    product of 1 - q^(m_j(la)) over the columns j that gain no box while
    column j + 1 does.  Memoized like the strips it weighs."""
    lac, nuc = conjugate(la), conjugate(nu)
    lac += (0,) * (len(nuc) + 1 - len(lac))
    weight = ONE
    for j in range(1, len(nuc)):
        if nuc[j - 1] == lac[j - 1] and nuc[j] > lac[j]:
            weight = weight * (ONE - q_power(lac[j - 1] - lac[j]))
    return weight


def _strip_column(mu, weight=None) -> dict:
    """Column mu of a monomial expansion, for every shape la at once, as
    {la: value}.

    The boxes of letter v in a tableau of content mu form a horizontal
    strip of size mu_v, so adding one strip per part of mu and summing over
    the ways to reach each shape walks every tableau without listing it.
    A chain counts once (the Kostka number), or the product of
    weight(la, nu) over its strips.
    """
    column = {(): 1 if weight is None else ONE}
    for part in mu:
        grown: dict = {}
        for la, c in column.items():
            for nu in _horizontal_strips(la, part):
                w = c if weight is None else c * weight(la, nu)
                grown[nu] = grown.get(nu, 0) + w
        column = grown
    return column


class Transitions:
    """Base-change data for one degree.

    parts is the full reverse-lex list of partitions; all matrices are
    indexed by position in that list and are upper unitriangular because
    the listed order refines dominance.  kostka (row la, column mu: the
    coefficient of m_mu in s_la) is counted when the degree is built.  pm
    (the coefficient of m_mu in P_la, Macdonald III (5.11')) and kf (the
    Kostka-Foulkes polynomial K_la,mu(q), the coefficient of P_mu in s_la)
    are built on first use, so monomial-Schur conversions never weigh a
    strip.  So is kf at each q = 2^bits that verify compares at (packed).
    kf's L1 norms are the Kostka numbers, which its build checks.
    """

    def __init__(self, n: int):
        self.n = n
        self.parts = enumerate_partitions(n)
        self.index = {la: i for i, la in enumerate(self.parts)}
        self.kostka = self._strip_matrix(None, 0)
        self._packed: dict[int, list[list[int]]] = {}

    def _strip_matrix(self, weight, zero):
        size = len(self.parts)
        m = [[zero] * size for _ in range(size)]
        for j, mu in enumerate(self.parts):
            for la, c in _strip_column(mu, weight).items():
                m[self.index[la]][j] = c
        return m

    @cached_property
    def pm(self) -> list[list[QLaurent]]:
        """The psi-weighted strip walk, checked for a unit diagonal."""
        pm = self._strip_matrix(_psi, ZERO)
        if any(pm[i][i] != ONE for i in range(len(pm))):
            raise ValueError(f"P-to-monomial matrix of degree {self.n} is "
                             f"not unitriangular")
        return pm

    @cached_property
    def kf(self) -> list[list[QLaurent]]:
        """Each Schur row solved against pm, checked against the counted
        Kostka numbers at q = 1 and for nonnegative coefficients (charge;
        Lascoux-Schutzenberger), so each entry's L1 norm is its Kostka
        number."""
        kf = [_solve([from_int(k) for k in row], self.pm)
              for row in self.kostka]
        for i, row in enumerate(kf):
            for j, poly in enumerate(row):
                k = self.kostka[i][j]
                if poly.at_one() != k or min(poly.coeffs, default=0) < 0:
                    raise ValueError(
                        f"kf[{i}][{j}] of degree {self.n} is {poly}, "
                        f"not {k} at q = 1 with no negative coefficient")
        return kf

    def packed(self, bits: int) -> list[list[int]]:
        """Every entry of kf at q = 2^bits, by qseries.pack_signed, built
        once per degree and width."""
        m = self._packed.get(bits)
        if m is None:
            m = self._packed[bits] = [[pack_signed(p, bits) for p in row]
                                      for row in self.kf]
        return m


_TRANSITIONS: dict[int, Transitions] = {}


def transitions(n: int) -> Transitions:
    """Transition data for degree n, memoized in memory."""
    t = _TRANSITIONS.get(n)
    if t is None:
        t = _TRANSITIONS[n] = Transitions(n)
    return t


# -- symmetric functions ---------------------------------------------------------


def _is_int(c) -> bool:
    """c is an int and not a bool."""
    return isinstance(c, int) and not isinstance(c, bool)


class SymFunc:
    """A homogeneous symmetric function: degree, basis name, and a sparse
    map from partitions to Laurent coefficients (zeros dropped)."""

    __slots__ = ("degree", "basis", "coeffs")

    def __init__(self, degree: int, basis: str, coeffs: dict):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        for la, c in coeffs.items():
            la = check_partition(tuple(la))
            if sum(la) != degree:
                raise ValueError(f"{la} does not partition {degree}")
            if _is_int(c):
                c = from_int(c)
            elif not (isinstance(c, QLaurent) and all(map(_is_int, c.coeffs))):
                raise ValueError(f"coefficient at {la} is {c!r}, neither an "
                                 f"int nor a QLaurent with int coefficients")
            if c:
                clean[la] = c
        self.degree = degree
        self.basis = basis
        self.coeffs = clean

    @classmethod
    def _trusted(cls, degree: int, basis: str, coeffs: dict) -> "SymFunc":
        """A SymFunc the package builds from checked parts: basis is one of
        BASES, every key a partition of degree and every value a
        QLaurent.  Zero values are dropped; nothing else is checked."""
        f = object.__new__(cls)
        f.degree = degree
        f.basis = basis
        f.coeffs = {la: c for la, c in coeffs.items() if c}
        return f

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return (self.degree == other.degree and self.basis == other.basis
                and self.coeffs == other.coeffs)

    def to_basis(self, target: str) -> "SymFunc":
        if target not in BASES:
            raise ValueError(f"unknown basis {target!r}")
        if target == self.basis:
            return self
        t = transitions(self.degree)
        vec = [self.coeffs.get(la, ZERO) for la in t.parts]
        if self.basis != "monomial":
            vec = _times(vec, getattr(t, _MATRIX[self.basis]))
        if target != "monomial":
            vec = _solve(vec, getattr(t, _MATRIX[target]))
        return SymFunc._trusted(self.degree, target, dict(zip(t.parts, vec)))

    # -- presentation ----------------------------------------------------

    def lines(self) -> list[str]:
        """One 'partition: polynomial' row per nonzero coefficient, in
        reverse-lex order."""
        return [coefficient_line(la, self.coeffs[la])
                for la in sorted(self.coeffs, reverse=True)]

    def __str__(self) -> str:
        return "\n".join(self.lines()) if self.coeffs else "0"

    def __repr__(self) -> str:
        return f"SymFunc({self.degree}, {self.basis!r}, {self.coeffs!r})"

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "basis": self.basis,
            "coeffs": [{"part": list(la), "poly": self.coeffs[la].to_json()}
                       for la in sorted(self.coeffs, reverse=True)],
        }


def _padded_orbits(la, nvars):
    """All distinct arrangements of la padded with zeros to nvars slots."""
    padded = tuple(la) + (0,) * (nvars - len(la))
    return sorted(set(itertools.permutations(padded)))


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product of symmetric functions, taken honestly: expand both in
    enough variables, and read the coefficient of each m_nu off the pairs
    of exponent vectors that sum to nu padded with zeros, each vector of f
    looked up against what nu leaves for g."""
    fm = f.to_basis("monomial")
    gm = g.to_basis("monomial")
    nvars = f.degree + g.degree
    left, right = ({alpha: c for la, c in h.coeffs.items()
                    for alpha in _padded_orbits(la, nvars)}
                   for h in (fm, gm))
    out = {}
    for nu in enumerate_partitions(nvars):
        target = nu + (0,) * (nvars - len(nu))
        acc = ZERO
        for a, ca in left.items():
            cb = right.get(tuple(x - y for x, y in zip(target, a)))
            if cb is not None:
                acc = acc + ca * cb
        out[nu] = acc
    return SymFunc(nvars, "monomial", out)
