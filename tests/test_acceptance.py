"""Acceptance criteria, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Everything is exact; every comparison is equality of integer
Laurent coefficients, never a numeric tolerance.  Stated time budgets are
asserted where the criterion carries one.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from functools import partial

from rookhl.chromatic import chromatic_x
from rookhl.cli import main
from rookhl.dyck import area, enumerate_dyck
from rookhl.partitions import enumerate_partitions, multiplicities, nstat
from rookhl.qseries import QLaurent, ZERO, ONE, q_power
from rookhl import rook
from rookhl.rook import (
    hl_coefficients, placements, rank_tables, type_polynomials,
)
from rookhl.symfunc import SymFunc, transitions
from rookhl.verify import (
    check_llt, check_main, check_multiplicativity, sweep,
)
from class_dp import llt_coefficient, x_coefficient
from placement_oracle import extended_placement, ordered_type_polynomials
from reference import evaluate, hl_direct_oracle, q_factorial
from tableaux import kostka

FIG_PATH = (2, 2, 4, 4, 5)


def test_criterion_1_worked_example_cli(capsys):
    t0 = time.monotonic()
    code = main(["expand", "--heights", "2,2,4,4,5",
                 "--what", "X", "--basis", "P"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(3,2): 1 + 2q + q^2" in out.splitlines()
    code = main(["rook", "--heights", "2,2,4,4,5",
                 "--type", "3,2", "--list"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "(3,2): 1 + 2q + q^2"
    rows = lines[:-1]
    assert len(rows) == 4
    assert sorted(int(r.rsplit("fc=", 1)[1]) for r in rows) == [0, 1, 1, 2]
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_main_identity_through_n6():
    t0 = time.monotonic()
    reports = sweep(6, {"main"})
    assert len(reports) == 197          # includes the empty path
    failures = [r for r in reports if not r.ok]
    assert failures == []
    assert len([r for r in reports if r.instance != "heights=-"]) == 196
    assert time.monotonic() - t0 < 300.0


def test_criterion_3_modular_recurrences():
    t0 = time.monotonic()
    reports = sweep(7, {"modular"})
    by_kind = {}
    for r in reports:
        by_kind.setdefault(r.identity, []).append(r)
    assert len(by_kind["modular.r_poly"]) == 882     # triples, n <= 7
    assert len(by_kind["modular.chromatic"]) == 54   # triples, n <= 5
    assert all(r.ok for r in reports)
    assert time.monotonic() - t0 < 600.0


def test_criterion_4_multiplicativity():
    t0 = time.monotonic()
    for k in (1, 2, 3):
        for n in range(5):
            for gamma in enumerate_dyck(n):
                for rep in check_multiplicativity(gamma, k):
                    assert rep.ok, rep
    for k in (1, 2):
        for n in range(4):
            for gamma in enumerate_dyck(n):
                for rep in check_multiplicativity(gamma, k,
                                                  function_level=True):
                    assert rep.ok, rep
    assert time.monotonic() - t0 < 600.0


def test_criterion_5_llt_expansions():
    t0 = time.monotonic()
    for n in range(6):
        for gamma in enumerate_dyck(n):
            rep = check_llt(gamma)
            assert rep.ok, rep
    assert time.monotonic() - t0 < 600.0


def test_criterion_6_principal_specialization():
    t0 = time.monotonic()
    reports = sweep(6, {"principal"})
    assert len(reports) == 1669
    assert all(r.ok for r in reports)
    assert time.monotonic() - t0 < 600.0


def test_criterion_7_monomial_coefficients_at_q1():
    t0 = time.monotonic()
    for n in range(7):
        for gamma in enumerate_dyck(n):
            table = type_polynomials(gamma)
            for la in enumerate_partitions(n):
                scale = math.prod(math.factorial(m)
                                  for m in multiplicities(la).values())
                want = table.get(la, ZERO).at_one() * scale
                assert x_coefficient(gamma, la).at_one() == want
    # composition form of the same statement, small sizes
    for n in range(5):
        for gamma in enumerate_dyck(n):
            table = type_polynomials(gamma)
            for k in range(1, n + 1):
                for comp in itertools.product(range(1, n + 1), repeat=k):
                    if sum(comp) != n:
                        continue
                    la = tuple(sorted(comp, reverse=True))
                    scale = math.prod(
                        math.factorial(m)
                        for m in multiplicities(la).values())
                    want = table.get(la, ZERO).at_one() * scale
                    assert x_coefficient(gamma, comp).at_one() == want
    assert time.monotonic() - t0 < 600.0


def test_criterion_8a_palindromic_colorings():
    for n in range(7):
        for gamma in enumerate_dyck(n):
            a = area(gamma)
            for c in chromatic_x(gamma).coeffs.values():
                assert c.invert_q().shift(a) == c


def test_criterion_8b_symmetry_in_the_contents():
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


def test_criterion_8c_schur_positivity():
    for n in range(7):
        for gamma in enumerate_dyck(n):
            f = chromatic_x(gamma).to_basis("schur")
            for c in f.coeffs.values():
                assert c.is_polynomial()
                assert all(v >= 0 for v in c.coeffs)


def test_criterion_8d_full_factorial_type():
    for n in range(7):
        for gamma in enumerate_dyck(n):
            assert hl_coefficients(gamma)[(1,) * n] == q_factorial(n)


def test_criterion_8e_charge_kostka_shape():
    for n in range(8):
        t = transitions(n)
        for i, la in enumerate(t.parts):
            for j, mu in enumerate(t.parts):
                assert t.kf[i][j].at_one() == t.kostka[i][j]
                assert t.kostka[i][j] == kostka(la, mu)
            assert t.kf[0][i] == q_power(nstat(t.parts[i]))


def test_criterion_8f_oracle_crosscheck():
    rng = random.Random(20260819)
    qpool = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(3),
             Fraction(-2, 5), Fraction(7, 2), Fraction(-3, 4)]
    xpool = sorted({Fraction(a, b) for a in range(-7, 8) if a
                    for b in range(1, 5)})
    for _ in range(10):
        n = rng.randint(1, 4)
        mu = rng.choice(enumerate_partitions(n))
        k = rng.randint(len(mu), 4)
        xs = tuple(rng.sample(xpool, k))
        q0 = rng.choice(qpool)
        p = SymFunc(n, "hl_p", {mu: ONE})
        assert evaluate(p, xs, q0) == hl_direct_oracle(mu, xs, q0)


def test_criterion_8g_rank_shortcut_vs_literal():
    checked = 0
    for n in range(7):
        for gamma in enumerate_dyck(n):
            for p in placements(gamma):
                tables = rank_tables(n, p)
                for seq in extended_placement(n, p):
                    for k, (i, j) in enumerate(seq, start=1):
                        if k % 2 == 0:
                            assert tables.col_rank[i] == k // 2
                            assert tables.col_top[i] == j
                    for j in {j for _, j in seq if j <= n}:
                        k, (il, _) = min(
                            (k, cell) for k, cell in enumerate(seq, start=1)
                            if cell[1] == j)
                        assert tables.row_left[j] == il
                        assert tables.row_rank[j] == k // 2
                checked += 1
    assert checked > 3000


def test_criterion_8h_placement_counts():
    for n in range(7):
        for gamma in enumerate_dyck(n):
            table = type_polynomials(gamma)
            assert sum(p.at_one() for p in table.values()) == \
                len(placements(gamma))


def test_criterion_9_gate_removal_is_detected(monkeypatch):
    monkeypatch.setattr(rook, "_type_polynomials",
                        partial(ordered_type_polynomials, gate=False))
    # the worked example's polynomial changes...
    broken = type_polynomials(FIG_PATH)[(3, 2)]
    assert broken != QLaurent(0, (1, 2, 1))
    # ...and the main identity sees it as a counterexample
    rep = check_main(FIG_PATH)
    assert rep.status == "counterexample"
    assert rep.lhs and rep.rhs
