import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from rookhl.chromatic import chromatic_x
from rookhl.partitions import conjugate, enumerate_partitions, nstat
from rookhl.qseries import (
    QLaurent, ZERO, ONE, Q, from_int, q_power, unpack_signed,
)
from rookhl import symfunc
from rookhl.rook import hl_coefficients
from rookhl.symfunc import Transitions, transitions, SymFunc, multiply
from reference import (
    add, coefficient, elementary, evaluate, hl_direct_oracle, hl_h,
    hl_h_tilde, multiply_by_pairs, omega, one, q_eval, scale, subtract,
    symfunc_from_json, zero,
)
from tableaux import (
    ssyt, reading_word, charge_word, charge, kostka, kostka_foulkes,
)


# -- tableaux -----------------------------------------------------------------

def test_ssyt_small():
    assert ssyt((2,), (1, 1)) == [((1, 2),)]
    assert ssyt((1, 1), (2,)) == []
    assert ssyt((), ()) == [()]
    two = ssyt((2, 1), (1, 1, 1))
    assert set(two) == {((1, 2), (3,)), ((1, 3), (2,))}
    assert all(len(t) == 2 for t in two)


def test_ssyt_shape_and_content_respected():
    for t in ssyt((3, 2), (2, 2, 1)):
        assert tuple(len(r) for r in t) == (3, 2)
        flat = [v for r in t for v in r]
        assert sorted(flat) == [1, 1, 2, 2, 3]
        for r in t:
            assert all(r[i] <= r[i + 1] for i in range(len(r) - 1))
        for c in range(2):
            assert t[0][c] < t[1][c]


def test_reading_word():
    assert reading_word(((1, 2), (3,))) == (3, 1, 2)
    assert reading_word(((1, 1, 2), (2, 3))) == (2, 3, 1, 1, 2)
    assert reading_word(()) == ()


# -- charge ---------------------------------------------------------------------

def test_charge_word_standard_cases():
    assert charge_word(()) == 0
    assert charge_word((1,)) == 0
    assert charge_word((1, 2)) == 1
    assert charge_word((2, 1)) == 0
    assert charge_word((3, 1, 2)) == 2
    assert charge_word((2, 1, 3)) == 1
    assert charge_word((1, 1, 2)) == 1
    assert charge_word((2, 2, 1, 1, 1)) == 0   # superstandard rows
    assert charge_word((1, 1, 2, 3)) == 3      # sorted word: n of content


def test_charge_word_rejects_bad_content():
    with pytest.raises(ValueError):
        charge_word((2, 2, 1))
    with pytest.raises(ValueError):
        charge_word((1, 3))


def test_sorted_word_charge_is_nstat():
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            word = tuple(v for v, p in enumerate(mu, start=1)
                         for _ in range(p))
            assert charge_word(tuple(sorted(word))) == nstat(mu)


# -- Kostka numbers, with an independent determinant oracle ---------------------

@lru_cache(maxsize=None)
def count_matrices(rows, cols):
    """Nonnegative integer matrices with the given row and column sums.
    The count does not change when columns are permuted or empty ones are
    dropped, so the remaining column sums are passed on sorted, without
    zeros, which lets the cache share them."""
    if not rows:
        return 1 if all(c == 0 for c in cols) else 0
    total = 0
    first = rows[0]

    def spread(i, left, current):
        nonlocal total
        if i == len(cols):
            if left == 0:
                total += count_matrices(
                    rows[1:], tuple(sorted(c for c in current if c)))
            return
        for take in range(min(left, cols[i]) + 1):
            current.append(cols[i] - take)
            spread(i + 1, left - take, current)
            current.pop()

    spread(0, first, [])
    return total


def schur_monomial_det(la, mu):
    """Coefficient of m_mu in s_la via the complete-homogeneous determinant:
    sum of signed counts of matrices with row sums la_i - i + sigma(i).
    sigma is chosen one row at a time and a branch is cut as soon as a row
    sum is negative (h_k = 0 for k < 0); the sign is (-1)^inversions."""
    l = len(la)
    total = 0
    taken = [False] * l
    rows = []

    def pick(i, sign):
        nonlocal total
        if i == l:
            total += sign * count_matrices(tuple(rows), mu)
            return
        for s in range(l):
            if taken[s] or la[i] - i + s < 0:
                continue
            inversions = sum(taken[s + 1:])
            taken[s] = True
            rows.append(la[i] - i + s)
            pick(i + 1, -sign if inversions % 2 else sign)
            rows.pop()
            taken[s] = False

    pick(0, 1)
    return total


def test_kostka_against_determinant_oracle():
    for n in range(6):
        for la in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                assert kostka(la, mu) == schur_monomial_det(la, mu)


def test_strip_counted_kostka_matches_tableaux_and_determinant():
    for n in range(9):
        t = Transitions(n)
        for i, la in enumerate(t.parts):
            for j, mu in enumerate(t.parts):
                assert t.kostka[i][j] == kostka(la, mu) == \
                    schur_monomial_det(la, mu)


def test_kostka_foulkes_values():
    assert kostka_foulkes((2,), (2,)) == ONE
    assert kostka_foulkes((2,), (1, 1)) == Q
    assert kostka_foulkes((1, 1), (1, 1)) == ONE
    assert kostka_foulkes((2, 1), (1, 1, 1)) == QLaurent(1, (1, 1))
    assert kostka_foulkes((3,), (1, 1, 1)) == q_power(3)
    assert kostka_foulkes((1, 1), (2,)) == ZERO


def test_kostka_foulkes_row_shape_and_degree_bound():
    for n in range(1, 8):
        for mu in enumerate_partitions(n):
            assert kostka_foulkes((n,), mu) == q_power(nstat(mu))
        for la in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                poly = kostka_foulkes(la, mu)
                assert poly.at_one() == kostka(la, mu)
                if poly:
                    assert poly.min_exp >= 0
                    assert poly.max_exp <= nstat(mu)
                    assert all(c >= 0 for c in poly.coeffs)


# -- transition matrices ----------------------------------------------------------

def test_transitions_degree_three():
    t = transitions(3)
    assert t.parts == [(3,), (2, 1), (1, 1, 1)]
    assert t.kostka == [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
    assert t.kf[0] == [ONE, Q, q_power(3)]
    assert t.kf[1] == [ZERO, ONE, QLaurent(1, (1, 1))]
    assert t.kf[2] == [ZERO, ZERO, ONE]


def test_transitions_match_tableau_oracle():
    # kf against the charge of every tableau; pm against its two
    # specializations: P_la is s_la at q = 0 and m_la at q = 1.  The one-row
    # P_(n) is the sum of (1 - q)^(l(mu) - 1) m_mu (Macdonald III (2.10)).
    for n in range(9):
        t = Transitions(n)
        for i, la in enumerate(t.parts):
            for j, mu in enumerate(t.parts):
                assert t.kf[i][j] == kostka_foulkes(la, mu)
                assert q_eval(t.pm[i][j], 0) == t.kostka[i][j]
                assert t.pm[i][j].at_one() == int(i == j)
        if n:
            assert t.pm[0] == [(ONE - Q) ** (len(mu) - 1) for mu in t.parts]


def test_transitions_raise_on_non_unitriangular_kf(monkeypatch):
    # A diagonal entry of pm other than 1 means the strip weights are wrong;
    # the build, which kf reads through, must fail loudly, also under
    # python -O.
    real = symfunc._psi
    monkeypatch.setattr(symfunc, "_psi", lambda la, nu: real(la, nu) * 2)
    with pytest.raises(ValueError, match="not unitriangular"):
        Transitions(2).kf


def test_transitions_raise_on_a_negative_kf_coefficient(monkeypatch):
    # llt bounds kf's entries by the Kostka numbers, which holds only if
    # every K_la,mu(q) has nonnegative coefficients.  Scaling one strip
    # weight by q keeps pm unitriangular and every kf entry right at
    # q = 1, but makes kf[0][1] = 1 - q + q^2: L1 norm 3, Kostka number 1.
    real = symfunc._psi

    def weight(la, nu):
        psi = real(la, nu)
        return psi * Q if (la, nu) == ((2,), (3,)) else psi

    monkeypatch.setattr(symfunc, "_psi", weight)
    t = Transitions(3)
    assert [t.pm[i][i] for i in range(3)] == [ONE] * 3
    with pytest.raises(ValueError, match=r"kf\[0\]\[1\] of degree 3 is "
                                         r"1 - q \+ q\^2, not 1 at q = 1 "
                                         r"with no negative coefficient"):
        t.kf


def test_first_kf_read_checks_kostka_at_q_one(monkeypatch):
    # P_la is m_la at q = 1, so kf at q = 1 is the strip-counted Kostka
    # matrix.  A strip weight that does not vanish at q = 1 keeps the unit
    # diagonal but breaks that, and the first read of kf fails.
    real = symfunc._psi

    def weight(la, nu):
        psi = real(la, nu)
        return psi if psi == ONE else psi + ONE

    monkeypatch.setattr(symfunc, "_psi", weight)
    t = Transitions(3)
    assert [t.pm[i][i] for i in range(3)] == [ONE] * 3
    with pytest.raises(ValueError, match=r"kf\[0\]\[1\] of degree 3 is "
                                         r"-1 \+ q, not 1 at q = 1"):
        t.kf


def test_schur_conversion_takes_no_charge(monkeypatch):
    # Monomial-Schur conversions need the strip count only; no strip is
    # weighed and no P-basis matrix is built until a P conversion asks.
    calls = []
    real = symfunc._psi

    def counted(la, nu):
        calls.append((la, nu))
        return real(la, nu)

    monkeypatch.setattr(symfunc, "_psi", counted)
    monkeypatch.setattr(symfunc, "_TRANSITIONS", {})
    x = chromatic_x((2, 2, 4, 4, 5))
    s = x.to_basis("schur")
    assert s.to_basis("monomial") == x
    assert calls == []
    assert "pm" not in vars(transitions(5))
    assert "kf" not in vars(transitions(5))
    assert x.to_basis("hl_p") == SymFunc(5, "hl_p",
                                         hl_coefficients((2, 2, 4, 4, 5)))
    assert calls
    assert "pm" in vars(transitions(5))


# -- SymFunc ------------------------------------------------------------------------

def test_symfunc_drops_zeros_and_validates():
    f = SymFunc(2, "monomial", {(2,): ONE, (1, 1): ZERO})
    assert f.coeffs == {(2,): ONE}
    assert coefficient(f, (1, 1)) == ZERO
    assert coefficient(SymFunc(2, "monomial", {(2,): 3}), (2,)) == from_int(3)
    with pytest.raises(ValueError):
        SymFunc(2, "monomial", {(3,): ONE})
    with pytest.raises(ValueError):
        SymFunc(2, "power", {(2,): ONE})
    with pytest.raises(ValueError):
        add(SymFunc(2, "monomial", {(2,): ONE}),
            SymFunc(2, "schur", {(2,): ONE}))


def test_checked_constructor_rejects_what_the_trusted_one_skips():
    # SymFunc(...) is the constructor for user input and the CLI; the
    # package's own results go through SymFunc._trusted and must come out
    # the same as if they had been checked.
    for bad in ({(1, 2): ONE}, {(2, 0): ONE}, {(0,): ONE}, {(-1, 3): ONE}):
        with pytest.raises(ValueError):
            SymFunc(2, "monomial", bad)
    with pytest.raises(ValueError):
        SymFunc(3, "monomial", {(2,): ONE})          # wrong degree
    with pytest.raises(ValueError):
        SymFunc(2, "elementary", {(2,): ONE})        # unknown basis
    for value in (1.5, "x", True, QLaurent(0, (1.5,)), QLaurent(0, (True,))):
        with pytest.raises(ValueError, match="neither an int"):
            SymFunc(1, "monomial", {(1,): value})
    g = SymFunc(2, "monomial", {(2,): ONE, (1, 1): Q})
    f = chromatic_x((2, 2, 4, 4, 5))
    for built in (f, f.to_basis("hl_p"), f.to_basis("schur"), add(g, g),
                  subtract(g, g), scale(g, Q), scale(g, ZERO)):
        assert built == SymFunc(built.degree, built.basis, built.coeffs)
        assert all(built.coeffs.values())


def test_schur_to_monomial_matches_determinant_oracle():
    for n in range(6):
        for la in enumerate_partitions(n):
            s = SymFunc(n, "schur", {la: ONE}).to_basis("monomial")
            for mu in enumerate_partitions(n):
                assert coefficient(s, mu) == from_int(
                    schur_monomial_det(la, mu))


def test_hl_p_to_monomial_small():
    p2 = SymFunc(2, "hl_p", {(2,): ONE}).to_basis("monomial")
    assert p2.coeffs == {(2,): ONE, (1, 1): ONE - Q}
    for n in range(1, 6):
        en = SymFunc(n, "hl_p", {(1,) * n: ONE}).to_basis("monomial")
        assert en == elementary(n)


def test_round_trips():
    rng = random.Random(20260819)
    for n in range(7):
        parts = enumerate_partitions(n)
        coeffs = {la: QLaurent(rng.randint(-2, 2),
                               [rng.randint(-4, 4) for _ in range(3)])
                  for la in parts if rng.random() < 0.7}
        f = SymFunc(n, "monomial", coeffs)
        assert f.to_basis("schur").to_basis("monomial") == f
        assert f.to_basis("hl_p").to_basis("monomial") == f
        g = f.to_basis("schur")
        assert g.to_basis("hl_p").to_basis("schur") == g
        assert f.to_basis("monomial") is f


def test_add_scale():
    f = SymFunc(2, "monomial", {(2,): ONE})
    g = SymFunc(2, "monomial", {(2,): ONE, (1, 1): Q})
    assert add(f, g).coeffs == {(2,): from_int(2), (1, 1): Q}
    assert subtract(g, g) == zero(2)
    assert coefficient(scale(g, 2), (1, 1)) == 2 * Q
    assert scale(g, ZERO) == zero(2)


def test_multiply():
    m1 = SymFunc(1, "monomial", {(1,): ONE})
    prod = multiply(m1, m1)
    assert prod == SymFunc(2, "monomial",
                           {(2,): ONE, (1, 1): from_int(2)})
    e2e1 = multiply(elementary(2), elementary(1))
    assert e2e1 == SymFunc(3, "monomial",
                           {(2, 1): ONE, (1, 1, 1): from_int(3)})
    s1 = SymFunc(1, "schur", {(1,): ONE})
    assert multiply(s1, s1).to_basis("schur").coeffs == {
        (2,): ONE, (1, 1): ONE}
    assert multiply(one(), elementary(2)) == elementary(2)
    assert multiply(one(), one()) == one()


def test_multiply_equals_the_scan_over_every_pair():
    # The product read off each target partition, padded with zeros,
    # against the scan over every pair of exponent vectors, on every pair
    # of monomials of total degree at most 6, with q-weighted coefficients
    # on both sides, and on two sums of them.
    for a in range(7):
        for b in range(7 - a):
            for la in enumerate_partitions(a):
                for mu in enumerate_partitions(b):
                    f = SymFunc(a, "monomial", {la: 1 + Q})
                    g = SymFunc(b, "monomial", {mu: q_power(2)})
                    assert multiply(f, g) == multiply_by_pairs(f, g)
    f = SymFunc(3, "schur", {(2, 1): Q, (3,): ONE, (1, 1, 1): from_int(-2)})
    g = SymFunc(2, "hl_p", {(2,): ONE - Q, (1, 1): from_int(3)})
    assert multiply(f, g) == multiply_by_pairs(f, g)


def test_omega():
    f = SymFunc(3, "schur", {(2, 1): Q, (3,): ONE})
    w = omega(f)
    assert w.coeffs == {(2, 1): Q, (1, 1, 1): ONE}
    assert omega(w) == f
    h2 = omega(elementary(2)).to_basis("monomial")
    assert h2.coeffs == {(2,): ONE, (1, 1): ONE}


def test_hl_h_and_tilde():
    assert hl_h((2,)) == SymFunc(2, "schur", {(2,): ONE})
    assert hl_h((1, 1)) == SymFunc(2, "schur", {(2,): Q, (1, 1): ONE})
    assert hl_h_tilde((2,)) == SymFunc(2, "schur", {(2,): ONE})
    assert hl_h_tilde((1, 1)) == SymFunc(2, "schur", {(2,): ONE, (1, 1): Q})
    assert hl_h_tilde((1, 1, 1)) == SymFunc(3, "schur", {
        (3,): ONE, (2, 1): QLaurent(1, (1, 1)), (1, 1, 1): q_power(3)})


def test_packed_and_norm_tables_are_read_off_the_matrices():
    # check_llt reads hl_h(mu) as column mu of kf, omega(hl_h(mu)) as that
    # column at conjugate rows, and hl_h_tilde(mu) as it with q inverted
    # times q^n(mu); main and llt read kf at q = 2^bits and bound it by
    # the L1 norms of its entries, the Kostka numbers.
    for n in range(7):
        t = transitions(n)
        for bits in (24, 40):
            packed = t.packed(bits)
            assert t.packed(bits) is packed
            for i, row in enumerate(t.kf):
                for j, p in enumerate(row):
                    assert unpack_signed(packed[i][j], bits) == p
                    assert t.kostka[i][j] == sum(map(abs, p.coeffs))
        for j, mu in enumerate(t.parts):
            column = {la: unpack_signed(t.packed(24)[i][j], 24)
                      for i, la in enumerate(t.parts)}
            assert hl_h(mu) == SymFunc(n, "schur", column)
            assert omega(hl_h(mu)) == SymFunc(
                n, "schur", {conjugate(la): c for la, c in column.items()})
            assert hl_h_tilde(mu) == SymFunc(
                n, "schur", {la: c.invert_q().shift(nstat(mu))
                             for la, c in column.items()})


# -- presentation and JSON ----------------------------------------------------------

def test_lines_format():
    f = SymFunc(5, "hl_p", {(3, 2): QLaurent(0, (1, 2, 1)), (5,): ONE})
    assert f.lines() == ["(5): 1", "(3,2): 1 + 2q + q^2"]
    assert str(one()) == "(): 1"
    assert str(zero(2)) == "0"


def test_symfunc_json_round_trip():
    f = SymFunc(3, "schur", {(2, 1): Q, (1, 1, 1): ONE - Q})
    blob = json.dumps(f.to_json())
    assert symfunc_from_json(json.loads(blob)) == f
    obj = f.to_json()
    assert obj["degree"] == 3 and obj["basis"] == "schur"
    assert [e["part"] for e in obj["coeffs"]] == [[2, 1], [1, 1, 1]]


# -- direct oracle -------------------------------------------------------------------

def test_oracle_known_values():
    assert hl_direct_oracle((1, 1), (2, 3), Fraction(5, 7)) == 6
    assert hl_direct_oracle((2,), (2, 3), Fraction(1, 2)) == 16
    assert hl_direct_oracle((2, 1), (1, 2), 0) == \
        evaluate(SymFunc(3, "schur", {(2, 1): ONE}), (1, 2), 0)
    assert hl_direct_oracle((3,), (5,), Fraction(9)) == 125
    assert hl_direct_oracle((1, 1, 1), (2, 3), 1) == 0


def test_oracle_errors():
    with pytest.raises(ValueError):
        hl_direct_oracle((2,), (3, 3), Fraction(1, 2))
    with pytest.raises(ValueError):
        hl_direct_oracle((1, 1), (2, 3, 5), -1)   # [2]_{-1} = 0


def test_oracle_agrees_with_matrix_route():
    rng = random.Random(11)
    qpool = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(3),
             Fraction(-2, 5), Fraction(7, 2)]
    xpool = sorted({Fraction(a, b) for a in range(-6, 7) if a
                    for b in range(1, 5)})
    done = 0
    while done < 10:
        n = rng.randint(1, 4)
        mu = rng.choice(enumerate_partitions(n))
        k = rng.randint(len(mu), 4)
        xs = tuple(rng.sample(xpool, k))
        q0 = rng.choice(qpool)
        p = SymFunc(n, "hl_p", {mu: ONE})
        assert evaluate(p, xs, q0) == hl_direct_oracle(mu, xs, q0)
        done += 1


def test_evaluate():
    f = SymFunc(2, "monomial", {(2,): ONE, (1, 1): Q})
    assert evaluate(f, (2, 3), Fraction(1, 2)) == 4 + 9 + Fraction(1, 2) * 6
    assert evaluate(f, (2,), 7) == 4
    assert evaluate(one(), (), 3) == 1
