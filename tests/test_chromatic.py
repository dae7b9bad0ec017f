import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cache, partial

import pytest

from rookhl.dyck import area, area_sequence, enumerate_dyck, reflect
from rookhl.partitions import enumerate_partitions, multiplicities
from rookhl.qseries import (
    QLaurent, ZERO, ONE, Q, from_int, q_falling, q_power,
)
from rookhl.rook import type_polynomials
from rookhl import chromatic
from rookhl.chromatic import (
    chromatic_x, llt_poly, principal_direct, principal_monomial,
)
from rookhl.symfunc import SymFunc
from class_dp import class_counts, llt_coefficient, x_coefficient
from reference import edges, evaluate, one, q_eval, q_factorial


def window_counts(gamma, caps, lifts, proper):
    """Oracle for the class DP: the exponent histogram of labelings that
    use color c at most caps[c] times, each vertex of color c weighing
    q^lifts[c] more, found by coloring the vertices one at a time in
    increasing order.

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


@cache
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


def assert_prefixes_match_window_recursion(gamma, caps, proper):
    """Entry k of the class DP's list is the window recursion's histogram
    for the first k colors, for every k."""
    prefixes = class_counts(gamma, caps, proper)
    assert len(prefixes) == len(caps) + 1
    for k, counts in enumerate(prefixes):
        assert counts == window_counts(gamma, caps[:k], [0] * k, proper)


def test_class_dp_matches_window_recursion_on_partitions():
    # Through n = 6, one size past the product enumerations above.
    for n in range(7):
        for gamma in enumerate_dyck(n):
            for la in enumerate_partitions(n):
                for caps in (la, la[::-1]):
                    for proper in (True, False):
                        assert_prefixes_match_window_recursion(
                            gamma, caps, proper)


def test_class_dp_matches_window_recursion_with_zero_parts():
    # Up to n + 1 parts, and 5 parts at n = 5 to bound the words.
    for n in range(6):
        for gamma in enumerate_dyck(n):
            for length in range(1, min(n, 4) + 2):
                for caps in weak_compositions(n, length):
                    if 0 not in caps:
                        continue
                    for proper in (True, False):
                        assert_prefixes_match_window_recursion(
                            gamma, caps, proper)


def principal_series(gamma, alpha_max):
    """principal_direct's values for k = 0..alpha_max."""
    return [principal_direct(gamma, k) for k in range(alpha_max + 1)]


def test_class_dp_matches_window_recursion_for_principal():
    # X's coefficients times m_la(1, q, ..., q^(k-1)), for every k up to
    # n + 2, equal the recursion run with k colors, color c lifted by c - 1.
    for n in range(6):
        for gamma in enumerate_dyck(n):
            series = principal_series(gamma, n + 2)
            assert len(series) == n + 3
            for k, poly in enumerate(series):
                assert poly == QLaurent(
                    0, window_counts(gamma, [n] * k, range(k), True))


def test_principal_monomial_against_injective_placements():
    # m_la(1, q, ..., q^(k-1)) sums q^(sum of position * part) over the
    # injective maps from the parts to the positions 0..k-1, a map and its
    # images under permuting equal parts counted once.
    for n in range(8):
        for la in enumerate_partitions(n):
            for k in range(n + 3):
                weights = Counter(
                    sum(i * p for i, p in placed) for placed in {
                        tuple(sorted(zip(positions, la)))
                        for positions in itertools.permutations(
                            range(k), len(la))})
                want = sum((from_int(m) * q_power(e)
                            for e, m in weights.items()), ZERO)
                assert principal_monomial(la, k) == want, (la, k)


def test_partition_trie_matches_the_coefficients():
    # chromatic_x and llt_poly build every partition from its smallest part
    # through the induced paths; each must get what the class DP gives it
    # alone, and a zero coefficient no key.
    for n in range(8):
        for gamma in enumerate_dyck(n):
            parts = enumerate_partitions(n)
            assert chromatic_x(gamma).coeffs == {
                la: c for la in parts if (c := x_coefficient(gamma, la))}
            assert llt_poly(gamma).coeffs == {
                la: c for la in parts if (c := llt_coefficient(gamma, la))}


def test_coloring_memo_is_not_changed_by_callers():
    gamma = (2, 3, 3, 4)
    want = dict(chromatic_x(gamma).coeffs)
    got = chromatic_x(gamma).coeffs
    got[(4,)] = ONE
    got[(2, 1, 1)] = ZERO
    del got[(1, 1, 1, 1)]
    assert chromatic_x(gamma).coeffs == want


def test_coloring_memo_keeps_x_and_llt_apart():
    # On the complete graph X has the one partition 1^n; LLT has every
    # partition.  Each order of first calls leaves both intact.
    for first in (chromatic_x, llt_poly):
        chromatic._induced_counts.cache_clear()
        for n in range(6):
            first((n,) * n)
        gamma = (4, 4, 4, 4)
        assert chromatic_x(gamma).coeffs == {(1, 1, 1, 1): q_factorial(4)}
        assert llt_poly(gamma).coeffs == {
            la: llt_coefficient(gamma, la) for la in enumerate_partitions(4)}


def test_coloring_memo_does_not_depend_on_the_order_of_paths():
    paths = [g for n in range(8) for g in enumerate_dyck(n)]
    runs = []
    for order in (paths, paths[::-1]):
        chromatic._induced_counts.cache_clear()
        runs.append({g: (chromatic_x(g), llt_poly(g)) for g in order})
    assert runs[0] == runs[1]


def test_class_dp_rejects_heights_it_cannot_read():
    # A window is contiguous only for heights that never decrease and never
    # fall below the diagonal, and a height above n is no path; such
    # heights raise from every entry point, with from_heights's messages.
    cases = {(3, 2, 3): "heights decrease at column 2",
             (2, 1, 3): "height 1 at column 2 is below the diagonal",
             (1, 1, 3): "height 1 at column 2 is below the diagonal",
             (2, 2, 4): "height 4 at column 3 exceeds n=3"}
    for gamma, message in cases.items():
        for call in (partial(x_coefficient, gamma, (2, 1)),
                     partial(llt_coefficient, gamma, (2, 1)),
                     partial(chromatic_x, gamma), partial(llt_poly, gamma),
                     partial(principal_direct, gamma, 3)):
            with pytest.raises(ValueError, match=message):
                call()


def test_x_known_expansions():
    assert chromatic_x(()) == one()
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
    assert llt_poly(()) == one()
    assert llt_poly((2, 2)) == SymFunc(
        2, "monomial", {(2,): ONE, (1, 1): ONE + Q})
    assert llt_poly((2, 2)).to_basis("schur") == SymFunc(
        2, "schur", {(2,): ONE, (1, 1): Q})
    # no edges: both functions forget q
    assert llt_poly((1, 2)) == chromatic_x((1, 2))


def test_x_and_llt_agree_on_each_reversal_orbit():
    # A sweep computes X and LLT once per orbit {gamma, reflect(gamma)}:
    # both members must have the same functions.
    for n in range(8):
        for gamma in enumerate_dyck(n):
            mirror = reflect(gamma)
            if gamma < mirror:
                assert chromatic_x(gamma) == chromatic_x(mirror), gamma
                assert llt_poly(gamma) == llt_poly(mirror), gamma


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
                    type_polynomials(gamma).get(la, ZERO).at_one() * scale


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
    with pytest.raises(ValueError, match="colors must be nonnegative"):
        principal_direct((1,), -1)


def test_principal_direct_against_product_enumeration():
    for n in range(6):
        for gamma in enumerate_dyck(n):
            for colors in range(n + 3):
                assert principal_direct(gamma, colors) == \
                    brute_principal(gamma, colors)


def rook_principal_series(gamma, alpha_max):
    """The principal specialization from the rook side, for k = 0..alpha_max:
    q^area times the sum over types mu of r_mu q_falling(k, l(mu))."""
    types = type_polynomials(gamma)
    return [sum((r * q_falling(k, len(mu)) for mu, r in types.items()),
                ZERO).shift(area(gamma)) for k in range(alpha_max + 1)]


def test_principal_series_against_product_enumeration():
    for n in range(6):
        for gamma in enumerate_dyck(n):
            series = rook_principal_series(gamma, n + 2)
            assert len(series) == n + 3
            for colors, poly in enumerate(series):
                assert poly == brute_principal(gamma, colors)
    assert rook_principal_series((), 0) == [ONE]
    assert rook_principal_series((2, 2), 2) == [
        ZERO, ZERO, QLaurent(1, (1, 1))]


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
                assert q_eval(want, q0) == evaluate(f, xs, q0)
