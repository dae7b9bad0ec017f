"""Symmetric functions with exact Laurent coefficients, in three bases:
monomial, Schur, and Hall-Littlewood P.

Basis changes run through unitriangular matrices computed from scratch and
inverted by division-free back-substitution.  Monomial and Schur need only
the Kostka numbers, counted one horizontal strip at a time.  The P basis
needs the charge Kostka polynomials: semistandard tableaux are enumerated by
backtracking and the charge statistic is taken on reading words, on the
first P-basis use of a degree only.  A symmetrized-rational-function oracle
for the P basis is included so the matrix route can be checked against an
entirely different definition.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from collections import Counter
from fractions import Fraction
from functools import cached_property

from rookhl.partitions import (
    check_partition, conjugate, dominance_leq, enumerate_partitions,
    multiplicities, nstat,
)
from rookhl.qseries import QLaurent, ZERO, ONE, from_int, q_power, q_factorial

BASES = ("monomial", "schur", "hl_p")


# -- tableaux and charge ------------------------------------------------------


def ssyt(shape, content):
    """All semistandard tableaux of the given shape and content.

    Rows weakly increase left to right, columns strictly increase top to
    bottom, and letter v appears content[v-1] times.  Tableaux are tuples
    of row tuples.
    """
    shape = check_partition(shape)
    remaining = list(content)
    nletters = len(remaining)
    rows: list[list[int]] = [[] for _ in shape]
    out = []

    def fill(r, c):
        if r == len(shape):
            out.append(tuple(tuple(row) for row in rows))
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, nletters + 1):
            if remaining[v - 1] > 0:
                remaining[v - 1] -= 1
                rows[r].append(v)
                fill(nr, nc)
                rows[r].pop()
                remaining[v - 1] += 1

    if sum(shape) == sum(content):
        fill(0, 0) if shape else out.append(())
    return out


def reading_word(tableau) -> tuple[int, ...]:
    """Rows bottom to top, each left to right."""
    word = []
    for row in reversed(tableau):
        word.extend(row)
    return tuple(word)


def charge_word(word) -> int:
    """Charge of a word whose content is a partition.

    Standard subwords are peeled off one at a time: locate the rightmost 1,
    then for each next letter take its rightmost occurrence to the left of
    the current position, wrapping to the rightmost occurrence overall when
    none exists.  The letter's index grows by one exactly on a wrap, and
    charge accumulates all indices over all rounds.
    """
    w = list(word)
    counts = Counter(w)
    top = max(w, default=0)
    cseq = [counts.get(v, 0) for v in range(1, top + 1)]
    if any(cseq[i] < cseq[i + 1] for i in range(len(cseq) - 1)) or 0 in cseq:
        raise ValueError(f"content of {word!r} is not a partition")
    total = 0
    while w:
        pos = max(k for k, v in enumerate(w) if v == 1)
        taken = [pos]
        idx = 0
        r = 1
        while any(v == r + 1 for v in w):
            left = [k for k in range(pos) if w[k] == r + 1]
            if left:
                pos = left[-1]
            else:
                pos = max(k for k, v in enumerate(w) if v == r + 1)
                idx += 1
            total += idx
            taken.append(pos)
            r += 1
        drop = set(taken)
        w = [v for k, v in enumerate(w) if k not in drop]
    return total


def charge(tableau) -> int:
    return charge_word(reading_word(tableau))


def kostka(la, mu) -> int:
    """Number of semistandard tableaux of shape la and content mu."""
    return len(ssyt(la, mu))


def kostka_foulkes(la, mu) -> QLaurent:
    """Charge generating polynomial over tableaux of shape la, content mu."""
    total = ZERO
    for t in ssyt(la, mu):
        total = total + q_power(charge(t))
    return total


# -- transition matrices -------------------------------------------------------


def _unitriangular_inverse(m, one, zero):
    """Inverse of an upper unitriangular matrix by back-substitution.
    Entirely division-free, so it works over ints and over Laurent
    polynomials alike."""
    size = len(m)
    inv = [[zero] * size for _ in range(size)]
    for i in range(size):
        inv[i][i] = one
        for j in range(i + 1, size):
            acc = zero
            for k in range(i, j):
                acc = acc + inv[i][k] * m[k][j]
            inv[i][j] = zero - acc
    return inv


def _horizontal_strips(la, k):
    """Every shape nu that adds k boxes to la, no two in one column: row i
    of nu lies between la_i and la_(i-1), with one new row allowed."""
    out = []
    rows: list[int] = []

    def grow(i, left):
        if i > len(la):
            if left == 0:
                out.append(tuple(r for r in rows if r))
            return
        base = la[i] if i < len(la) else 0
        room = left if i == 0 else min(left, la[i - 1] - base)
        for add in range(room + 1):
            rows.append(base + add)
            grow(i + 1, left - add)
            rows.pop()

    grow(0, k)
    return out


def _kostka_column(mu) -> dict:
    """K_{la,mu} for every shape la at once, as {la: count}.

    The boxes of letter v in a tableau of content mu form a horizontal
    strip of size mu_v, so adding one strip per part of mu and summing
    the ways to reach each shape counts the tableaux without listing them.
    """
    counts = {(): 1}
    for part in mu:
        grown: dict[tuple, int] = {}
        for la, c in counts.items():
            for nu in _horizontal_strips(la, part):
                grown[nu] = grown.get(nu, 0) + c
        counts = grown
    return counts


class Transitions:
    """Base-change data for one degree.

    parts is the full reverse-lex list of partitions; all matrices are
    indexed by position in that list (row = shape, column = content) and
    are upper unitriangular because the listed order refines dominance.
    The Kostka numbers are counted when the degree is built; the
    Kostka-Foulkes matrix and the inverses are built on first use, so
    monomial-Schur conversions never take a charge.
    """

    def __init__(self, n: int):
        self.n = n
        self.parts = enumerate_partitions(n)
        self.index = {la: i for i, la in enumerate(self.parts)}
        size = len(self.parts)
        self.kostka = [[0] * size for _ in range(size)]
        for j, mu in enumerate(self.parts):
            for la, k in _kostka_column(mu).items():
                self.kostka[self.index[la]][j] = k

    @cached_property
    def kf(self) -> list[list[QLaurent]]:
        """Charge Kostka polynomials from tableaux, checked against the
        counted Kostka numbers at q = 1."""
        size = len(self.parts)
        kf = [[ZERO] * size for _ in range(size)]
        for i, la in enumerate(self.parts):
            for j in range(i, size):
                kf[i][j] = kostka_foulkes(la, self.parts[j])
        if any(kf[i][i] != ONE for i in range(size)):
            raise ValueError(f"Kostka-Foulkes matrix of degree {self.n} is "
                             f"not unitriangular")
        for i in range(size):
            for j in range(i + 1, size):
                if kf[i][j].at_one() != self.kostka[i][j]:
                    raise ValueError(
                        f"kf[{i}][{j}] of degree {self.n} is {kf[i][j]}, "
                        f"not {self.kostka[i][j]} at q = 1")
        return kf

    @cached_property
    def kostka_inv(self) -> list[list[int]]:
        return _unitriangular_inverse(self.kostka, 1, 0)

    @cached_property
    def kf_inv(self) -> list[list[QLaurent]]:
        return _unitriangular_inverse(self.kf, ONE, ZERO)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "parts": [list(p) for p in self.parts],
            "kostka": self.kostka,
            "kf": [[p.to_json() for p in row] for row in self.kf],
        }

    @classmethod
    def from_json(cls, obj: dict, n: int) -> "Transitions":
        """Rebuild degree n from to_json output.  The data comes from
        outside the program, so it is checked first, against the counted
        Kostka numbers and the shape every Kostka-Foulkes polynomial has:
        0 unless la dominates mu, else monic of degree n(mu) - n(la).  A
        failed check raises ValueError naming it."""
        try:
            if type(obj["n"]) is not int or obj["n"] != n:
                raise ValueError(f"n is {obj['n']!r}, not {n}")
            parts = [tuple(p) for p in obj["parts"]]
            kostka = [list(row) for row in obj["kostka"]]
            kf = [[QLaurent.from_json(v) for v in row] for row in obj["kf"]]
        except (KeyError, TypeError) as e:
            raise ValueError(f"malformed transition data: {e!r}") from e
        t = cls(n)
        if parts != t.parts:
            raise ValueError(f"parts are not the partitions of {n}")
        size = len(t.parts)
        for name, m in (("kostka", kostka), ("kf", kf)):
            if len(m) != size or any(len(row) != size for row in m):
                raise ValueError(f"{name} is not {size} x {size}")
        for i, la in enumerate(t.parts):
            for j, mu in enumerate(t.parts):
                k, poly = kostka[i][j], kf[i][j]
                if type(k) is not int:
                    raise ValueError(f"kostka[{i}][{j}] is not an integer")
                if j <= i:
                    want = int(i == j)
                    if k != want:
                        raise ValueError(f"kostka[{i}][{j}] is {k}, not "
                                         f"{want}: not unitriangular")
                    if poly != (ONE if i == j else ZERO):
                        raise ValueError(f"kf[{i}][{j}] is {poly}, not "
                                         f"{want}: not unitriangular")
                if poly.at_one() != k:
                    raise ValueError(f"kf[{i}][{j}] at q = 1 is "
                                     f"{poly.at_one()}, not kostka[{i}][{j}]"
                                     f" = {k}")
                if k != t.kostka[i][j]:
                    raise ValueError(f"kostka[{i}][{j}] is {k}, not the "
                                     f"horizontal-strip count "
                                     f"{t.kostka[i][j]}")
                if not dominance_leq(mu, la):
                    if poly:
                        raise ValueError(f"kf[{i}][{j}] is {poly}, not 0: "
                                         f"{la} does not dominate {mu}")
                elif (poly.max_exp != nstat(mu) - nstat(la)
                      or poly.coeffs[-1] != 1):
                    raise ValueError(f"kf[{i}][{j}] is {poly}, not monic of "
                                     f"degree {nstat(mu) - nstat(la)}")
        t.kf = kf
        return t


_TRANSITIONS: dict[int, Transitions] = {}


def transitions(n: int, cache_dir: str | None = None) -> Transitions:
    """Transition data for degree n, memoized in memory and optionally
    persisted as one JSON file per degree under cache_dir.

    When cache_dir is given the file is guaranteed to exist afterwards,
    even if the data was already memoized in this process.  A cached file
    that fails Transitions.from_json's checks raises ValueError naming the
    file.  Each writer goes through its own temporary file, so concurrent
    writers never share one.
    """
    path = None
    if cache_dir is not None:
        path = os.path.join(cache_dir, f"transitions_{n}.json")
    t = _TRANSITIONS.get(n)
    if t is None and path is not None and os.path.exists(path):
        with open(path) as fh:
            try:
                t = Transitions.from_json(json.load(fh), n)
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from e
    if t is None:
        t = Transitions(n)
    if path is not None and not os.path.exists(path):
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir,
                                   prefix=f"transitions_{n}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(t.to_json(), fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    _TRANSITIONS[n] = t
    return t


# -- symmetric functions ---------------------------------------------------------


def coefficient_line(la, poly) -> str:
    """The '(3,2): 1 + 2q + q^2' row printed for one coefficient."""
    return "(" + ",".join(str(p) for p in la) + f"): {poly}"


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
            if isinstance(c, int):
                c = from_int(c)
            if c:
                clean[la] = c
        self.degree = degree
        self.basis = basis
        self.coeffs = clean

    @classmethod
    def zero(cls, degree: int, basis: str = "monomial") -> "SymFunc":
        return cls(degree, basis, {})

    @classmethod
    def one(cls, basis: str = "monomial") -> "SymFunc":
        return cls(0, basis, {(): ONE})

    def coefficient(self, la) -> QLaurent:
        return self.coeffs.get(tuple(la), ZERO)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return (self.degree == other.degree and self.basis == other.basis
                and self.coeffs == other.coeffs)

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if self.degree != other.degree or self.basis != other.basis:
            raise ValueError("can only add matching degree and basis")
        out = dict(self.coeffs)
        for la, c in other.coeffs.items():
            out[la] = out.get(la, ZERO) + c
        return SymFunc(self.degree, self.basis, out)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + other.scale(from_int(-1))

    def scale(self, poly) -> "SymFunc":
        if isinstance(poly, int):
            poly = from_int(poly)
        return SymFunc(self.degree, self.basis,
                       {la: c * poly for la, c in self.coeffs.items()})

    def map_coeffs(self, fn) -> "SymFunc":
        return SymFunc(self.degree, self.basis,
                       {la: fn(c) for la, c in self.coeffs.items()})

    def to_basis(self, target: str) -> "SymFunc":
        if target not in BASES:
            raise ValueError(f"unknown basis {target!r}")
        if target == self.basis:
            return self
        t = transitions(self.degree)
        route = {
            ("monomial", "schur"): ["kostka_inv"],
            ("schur", "monomial"): ["kostka"],
            ("schur", "hl_p"): ["kf"],
            ("hl_p", "schur"): ["kf_inv"],
            ("monomial", "hl_p"): ["kostka_inv", "kf"],
            ("hl_p", "monomial"): ["kf_inv", "kostka"],
        }[(self.basis, target)]
        vec = [self.coeffs.get(la, ZERO) for la in t.parts]
        for name in route:
            m = getattr(t, name)
            size = len(vec)
            # row vector times matrix: out_j = sum_i vec_i * m[i][j]
            vec = [sum((vec[i] * m[i][j] for i in range(size)), ZERO)
                   for j in range(size)]
        return SymFunc(self.degree, target,
                       {la: c for la, c in zip(t.parts, vec) if c})

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

    @classmethod
    def from_json(cls, obj: dict) -> "SymFunc":
        return cls(int(obj["degree"]), obj["basis"],
                   {tuple(e["part"]): QLaurent.from_json(e["poly"])
                    for e in obj["coeffs"]})


def elementary(k: int) -> SymFunc:
    """e_k as a monomial-basis function."""
    if k < 0:
        raise ValueError("elementary requires k >= 0")
    return SymFunc(k, "monomial", {(1,) * k: ONE})


def omega(f: SymFunc) -> SymFunc:
    """The involution transposing every Schur index (q is untouched)."""
    s = f.to_basis("schur")
    return SymFunc(s.degree, "schur",
                   {conjugate(la): c for la, c in s.coeffs.items()})


def hl_h(mu) -> SymFunc:
    """The q-Whittaker-side transform of P: sum of charge Kostka
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
    return hl_h(mu).map_coeffs(lambda c: c.invert_q().shift(shift))


def _padded_orbits(la, nvars):
    """All distinct arrangements of la padded with zeros to nvars slots."""
    padded = tuple(la) + (0,) * (nvars - len(la))
    return sorted(set(itertools.permutations(padded)))


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product of symmetric functions, taken honestly: expand both in
    enough variables, convolve the power dictionaries, and read off the
    monomial coefficients from the sorted exponents."""
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
        total += c.eval(q0) * mval
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
        fact = q_factorial(m).eval(q0)
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
