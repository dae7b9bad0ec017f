import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from rookhl.dyck import area, area_sequence, edges, enumerate_dyck
from rookhl.partitions import enumerate_partitions, multiplicities
from rookhl.qseries import QLaurent, ZERO, ONE, Q, from_int, q_power, q_factorial
from rookhl.rook import r_poly
from rookhl.chromatic import (
    _class_counts, x_coefficient, llt_coefficient, chromatic_x, llt_poly,
    principal_direct,
)
from rookhl.symfunc import SymFunc, evaluate


def window_counts(gamma, caps, lifts, proper):
    """Oracle for chromatic._class_counts: the same exponent histogram,
    found by coloring the vertices one at a time in increasing order.

    The neighbors of vertex v below it are the window of its last a_v
    vertices, so the ascents v closes are the window colors below its own.
    """
    n = len(gamma)
    aseq = area_sequence(gamma)
    counts = [0] * (area(gamma) + n * max(lifts, default=0) + 1)
    remaining = list(caps)
    colors = range(len(caps))
    kappa = [0] * (n + 1)

    def rec(v, weight):
        if v > n:
            counts[weight] += 1
            return
        window = kappa[v - aseq[v - 1]:v]
        for c in colors:
            if remaining[c] == 0 or (proper and c in window):
                continue
            inc = lifts[c]
            for u in window:
                if u < c:
                    inc += 1
            remaining[c] -= 1
            kappa[v] = c
            rec(v + 1, weight + inc)
            remaining[c] += 1

    rec(1, 0)
    return counts


def brute_x_coefficient(gamma, content):
    """Assign colors by explicit product enumeration and filter; no windows,
    no pruning."""
    n = len(gamma)
    es = sorted(edges(gamma))
    total = ZERO
    for kappa in itertools.product(range(1, len(content) + 1), repeat=n):
        counts = [kappa.count(c) for c in range(1, len(content) + 1)]
        if tuple(counts) != tuple(content):
            continue
        if any(kappa[i - 1] == kappa[j - 1] for i, j in es):
            continue
        asc = sum(1 for i, j in es if kappa[i - 1] < kappa[j - 1])
        total = total + q_power(asc)
    return total


def brute_principal(gamma, colors):
    """Sum of q^(ascents + sum of (color - 1)) over every proper coloring
    from 1..colors, found by explicit product enumeration."""
    n = len(gamma)
    es = sorted(edges(gamma))
    weights = Counter()
    for kappa in itertools.product(range(1, colors + 1), repeat=n):
        if any(kappa[i - 1] == kappa[j - 1] for i, j in es):
            continue
        asc = sum(1 for i, j in es if kappa[i - 1] < kappa[j - 1])
        weights[asc + sum(kappa) - n] += 1
    return sum((from_int(m) * q_power(e) for e, m in weights.items()), ZERO)


def brute_llt_coefficient(gamma, content):
    n = len(gamma)
    es = sorted(edges(gamma))
    total = ZERO
    for w in itertools.product(range(1, len(content) + 1), repeat=n):
        counts = [w.count(c) for c in range(1, len(content) + 1)]
        if tuple(counts) != tuple(content):
            continue
        inv = sum(1 for i, j in es if w[i - 1] > w[j - 1])
        total = total + q_power(inv)
    return total


def test_against_product_enumeration():
    for n in range(6):
        for gamma in enumerate_dyck(n):
            for la in enumerate_partitions(n):
                assert x_coefficient(gamma, la) == \
                    brute_x_coefficient(gamma, la)
                assert llt_coefficient(gamma, la) == \
                    brute_llt_coefficient(gamma, la)


def weak_compositions(n, length):
    if length == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in weak_compositions(n - first, length - 1):
            yield (first,) + rest


def test_class_dp_matches_window_recursion_on_partitions():
    # Through n = 6, one size past the product enumerations above.
    for n in range(7):
        for gamma in enumerate_dyck(n):
            for la in enumerate_partitions(n):
                for caps in (la, la[::-1]):
                    lifts = [0] * len(caps)
                    for proper in (True, False):
                        assert _class_counts(gamma, caps, lifts, proper) == \
                            window_counts(gamma, caps, lifts, proper)


def test_class_dp_matches_window_recursion_with_zero_parts():
    # Up to n + 1 parts, and 5 parts at n = 5 to bound the words.
    for n in range(6):
        for gamma in enumerate_dyck(n):
            for length in range(1, min(n, 4) + 2):
                for caps in weak_compositions(n, length):
                    if 0 not in caps:
                        continue
                    lifts = [0] * length
                    for proper in (True, False):
                        assert _class_counts(gamma, caps, lifts, proper) == \
                            window_counts(gamma, caps, lifts, proper)


def test_class_dp_matches_window_recursion_for_principal():
    for n in range(6):
        for gamma in enumerate_dyck(n):
            for colors in range(n + 3):
                caps, lifts = [n] * colors, list(range(colors))
                assert _class_counts(gamma, caps, lifts, True) == \
                    window_counts(gamma, caps, lifts, True)


def test_x_known_expansions():
    assert chromatic_x(()) == SymFunc.one()
    assert chromatic_x((1,)) == SymFunc(1, "monomial", {(1,): ONE})
    assert chromatic_x((1, 2)) == SymFunc(
        2, "monomial", {(2,): ONE, (1, 1): from_int(2)})
    assert chromatic_x((2, 2)) == SymFunc(
        2, "monomial", {(1, 1): ONE + Q})
    assert x_coefficient((2, 3, 3), (2, 1)) == Q
    # complete graph: every proper coloring is a permutation
    assert chromatic_x((3, 3, 3)) == SymFunc(
        3, "monomial", {(1, 1, 1): q_factorial(3)})


def test_llt_known_expansions():
    assert llt_poly(()) == SymFunc.one()
    assert llt_poly((2, 2)) == SymFunc(
        2, "monomial", {(2,): ONE, (1, 1): ONE + Q})
    assert llt_poly((2, 2)).to_basis("schur") == SymFunc(
        2, "schur", {(2,): ONE, (1, 1): Q})
    # no edges: both functions forget q
    assert llt_poly((1, 2)) == chromatic_x((1, 2))


def test_symmetry_over_compositions():
    for n in range(1, 6):
        for gamma in enumerate_dyck(n):
            xstd = {la: x_coefficient(gamma, la)
                    for la in enumerate_partitions(n)}
            lstd = {la: llt_coefficient(gamma, la)
                    for la in enumerate_partitions(n)}
            for k in range(1, n + 1):
                for comp in itertools.product(range(1, n + 1), repeat=k):
                    if sum(comp) != n:
                        continue
                    la = tuple(sorted(comp, reverse=True))
                    assert x_coefficient(gamma, comp) == xstd[la]
                    assert llt_coefficient(gamma, comp) == lstd[la]


def test_x_palindromic_and_degree_bounded():
    for n in range(6):
        for gamma in enumerate_dyck(n):
            a = area(gamma)
            f = chromatic_x(gamma)
            for la, c in f.coeffs.items():
                assert c.min_exp >= 0 and c.max_exp <= a
                assert c.invert_q().shift(a) == c
            g = llt_poly(gamma)
            for la, c in g.coeffs.items():
                assert c.min_exp >= 0 and c.max_exp <= a


def test_x_at_one_counts_by_rook_type():
    # Setting q = 1, the coefficient of m_alpha is the placement count of
    # the sorted type times the product of multiplicities factorials.
    for n in range(5):
        for gamma in enumerate_dyck(n):
            for la in enumerate_partitions(n):
                scale = math.prod(
                    math.factorial(m) for m in multiplicities(la).values())
                assert x_coefficient(gamma, la).at_one() == \
                    r_poly(gamma, la).at_one() * scale


def test_content_validation():
    with pytest.raises(ValueError):
        x_coefficient((1, 2), (1,))
    with pytest.raises(ValueError):
        x_coefficient((1, 2), (3, -1))
    with pytest.raises(ValueError):
        llt_coefficient((1, 2), (1, 1, 1))


def test_principal_direct_small():
    assert principal_direct((2, 2), 2) == QLaurent(1, (1, 1))
    assert principal_direct((), 5) == ONE
    assert principal_direct((), 0) == ONE
    assert principal_direct((1,), 0) == ZERO
    assert principal_direct((1,), 3) == QLaurent(0, (1, 1, 1))
    assert principal_direct((2, 2), 1) == ZERO     # an edge needs 2 colors
    with pytest.raises(ValueError):
        principal_direct((1,), -1)


def test_principal_direct_against_product_enumeration():
    for n in range(6):
        for gamma in enumerate_dyck(n):
            for colors in range(n + 3):
                assert principal_direct(gamma, colors) == \
                    brute_principal(gamma, colors)


def test_principal_direct_is_specialized_x():
    # Substituting x_i = q^(i-1) for i <= colors, 0 beyond, into the
    # monomial expansion gives the same polynomial.
    for n in range(5):
        for gamma in enumerate_dyck(n):
            f = chromatic_x(gamma)
            for colors in range(0, n + 3):
                want = principal_direct(gamma, colors)
                q0 = Fraction(3, 7)
                xs = [q0 ** i for i in range(colors)]
                assert want.eval(q0) == evaluate(f, xs, q0)
