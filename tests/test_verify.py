import gc
import math
import multiprocessing
import os
import re
from functools import partial
from itertools import groupby
from types import SimpleNamespace

import pytest

from rookhl.dyck import (
    area, area_sequence, enumerate_dyck, format_heights, modular_triples,
    reflect,
)
from rookhl.partitions import conjugate, enumerate_partitions
from rookhl.qseries import (
    ONE, Q, ZERO, from_int, q_binomial, q_falling, q_power, unpack,
)
from rookhl import chromatic, rook, symfunc, verify
from rookhl.cli import main
from rookhl.chromatic import chromatic_x, llt_poly, principal_direct
from rookhl.rook import hl_coefficients, type_polynomials
from rookhl.symfunc import SymFunc
from rookhl.verify import (
    CheckReport, check_main, check_modular, check_multiplicativity,
    check_llt, check_principal, sweep, sweep_tasks,
)
from forks import assert_reaped, record_forks
from placement_oracle import ordered_type_polynomials
from reference import is_vertical_strip, llt_forms, mult_by_pair_scan, scale

FIG_PATH = (2, 2, 4, 4, 5)


def paths_through(n_max):
    return [g for n in range(n_max + 1) for g in enumerate_dyck(n)]


def orbit_firsts(n_max):
    """The first member of each reversal orbit, in sweep order."""
    return [g for g in paths_through(n_max) if g <= reflect(g)]


def test_check_main_small_sizes():
    for n in range(5):
        for gamma in enumerate_dyck(n):
            rep = check_main(gamma)
            assert rep.ok, (gamma, rep)
            assert rep.identity == "main"
            assert rep.lhs == rep.rhs == ""
    assert check_main(FIG_PATH).ok


def test_check_main_reports_counterexample_when_rule_is_broken(monkeypatch):
    monkeypatch.setattr(rook, "_type_polynomials",
                        partial(ordered_type_polynomials, gate=False))
    rep = check_main(FIG_PATH)
    assert rep.status == "counterexample"
    assert rep.instance == "heights=2,2,4,4,5"
    assert rep.lhs and rep.rhs and rep.lhs != rep.rhs
    # Every rook-side check catches it; the first report of each is pinned.
    assert [r for r in check_modular(3, "r_poly") if not r.ok] == [
        CheckReport("modular.r_poly",
                    "kind=1;column=1;middle=2,3,3;type=2,1",
                    "counterexample", lhs="1 + q", rhs="2q")]
    assert check_llt(FIG_PATH) == CheckReport(
        "llt", "heights=2,2,4,4,5;form=omega", "counterexample",
        lhs="(5): 1\n(4,1): 2 + 2q\n(3,2): 2 + 2q + q^2\n"
            "(3,1,1): 1 + 4q + q^2\n(2,2,1): 1 + 2q + 2q^2\n"
            "(2,1,1,1): 2q + 2q^2\n(1,1,1,1,1): q^2",
        rhs="(5): 1\n(4,1): 1 + q + 3q^2 + q^3 - 2q^4\n"
            "(3,2): q + 6q^2 - q^3 + q^4 - 2q^5\n"
            "(3,1,1): 3q - q^2 + 6q^3 + q^4 - q^5 - 2q^6\n"
            "(2,2,1): 2q - q^2 + 3q^3 + 6q^4 - 3q^5 - 2q^6\n"
            "(2,1,1,1): 4q^2 - 3q^3 + q^4 + 7q^5 - 3q^6 - 2q^7\n"
            "(1,1,1,1,1): 2q^3 - 2q^4 - 2q^5 + 7q^6 - 4q^7")
    assert [r for r in check_principal(FIG_PATH, 3) if not r.ok][0] == \
        CheckReport("principal", "heights=2,2,4,4,5;colors=2",
                    "counterexample",
                    lhs="direct=q^2 + 3q^3 + 3q^4 + q^5",
                    rhs="types=2q^3 + 4q^4 + 2q^5;"
                        "product=q^2 + 3q^3 + 3q^4 + q^5")
    assert [r for r in check_multiplicativity((2, 2, 4), 2)
            if not r.ok][0] == CheckReport(
        "mult", "heights=2,2,4;k=2;type=3,2", "counterexample",
        lhs="2q", rhs="1 + 2q + q^2")


def test_check_llt_reports_the_tilde_form_when_only_it_fails(monkeypatch):
    # With the gate off, hand check_llt the broken rook side's own omega
    # form as its word function: form=omega then holds, and the tilde form,
    # which inverts q in the same broken types, is the one reported.
    monkeypatch.setattr(rook, "_type_polynomials",
                        partial(ordered_type_polynomials, gate=False))
    omega_form = llt_forms(FIG_PATH)[0].to_basis("monomial")
    monkeypatch.setattr(verify, "llt_poly", lambda g: omega_form)
    assert check_llt(FIG_PATH) == CheckReport(
        "llt", "heights=2,2,4,4,5;form=tilde", "counterexample",
        lhs="(5): 1\n(4,1): 1 + q + 3q^2 + q^3 - 2q^4\n"
            "(3,2): q + 6q^2 - q^3 + q^4 - 2q^5\n"
            "(3,1,1): 3q - q^2 + 6q^3 + q^4 - q^5 - 2q^6\n"
            "(2,2,1): 2q - q^2 + 3q^3 + 6q^4 - 3q^5 - 2q^6\n"
            "(2,1,1,1): 4q^2 - 3q^3 + q^4 + 7q^5 - 3q^6 - 2q^7\n"
            "(1,1,1,1,1): 2q^3 - 2q^4 - 2q^5 + 7q^6 - 4q^7",
        rhs="(5): -4q^-5 + 7q^-4 - 2q^-3 - 2q^-2 + 2q^-1\n"
            "(4,1): -2q^-5 - 3q^-4 + 7q^-3 + q^-2 - 3q^-1 + 4\n"
            "(3,2): -2q^-4 - 3q^-3 + 6q^-2 + 3q^-1 - 1 + 2q\n"
            "(3,1,1): -2q^-4 - q^-3 + q^-2 + 6q^-1 - 1 + 3q\n"
            "(2,2,1): -2q^-3 + q^-2 - q^-1 + 6 + q\n"
            "(2,1,1,1): -2q^-2 + q^-1 + 3 + q + q^2\n"
            "(1,1,1,1,1): q^2")


def symfunc_main(gamma):
    """check_main's report by Laurent polynomials: X moved into the P basis
    against the hl_coefficients."""
    return verify._report(
        "main", f"heights={format_heights(gamma)}",
        chromatic_x(gamma).to_basis("hl_p"),
        SymFunc(len(gamma), "hl_p", hl_coefficients(gamma)))


def symfunc_llt(gamma):
    """check_llt's report by Laurent polynomials: LLT moved into the Schur
    basis against both forms, summed type by type through omega(hl_h(mu))
    and hl_h_tilde(mu)."""
    lhs = llt_poly(gamma).to_basis("schur")
    instance = f"heights={format_heights(gamma)}"
    for form, rhs in zip(("omega", "tilde"), llt_forms(gamma)):
        if lhs != rhs:
            return CheckReport("llt", instance + f";form={form}",
                               "counterexample", lhs=str(lhs), rhs=str(rhs))
    return CheckReport("llt", instance, "verified")


@pytest.mark.parametrize("identity, gate, n_max", [
    ("main", True, 7), ("main", False, 6),
    ("llt", True, 6), ("llt", False, 6)])
def test_packed_reports_equal_the_symfunc_route(monkeypatch, identity, gate,
                                                n_max):
    # The ints decide every verdict; the Laurent route only writes the
    # counterexamples.  With the gate off most paths from n = 4 on fail,
    # so the ints must differ exactly where the polynomials do.
    if not gate:
        monkeypatch.setattr(rook, "_type_polynomials",
                            partial(ordered_type_polynomials, gate=False))
    check, oracle = {"main": (check_main, symfunc_main),
                     "llt": (check_llt, symfunc_llt)}[identity]
    paths = paths_through(n_max)
    reports = [check(g) for g in paths]
    assert reports == [oracle(g) for g in paths]
    assert all(r.ok for r in reports) == gate


def test_paths_that_hold_never_take_the_laurent_route(monkeypatch):
    # The ints decide alone: no path that holds moves X or LLT into
    # another basis.  Nor does a counterexample: with the gate off, every
    # report is written from the compared ints, and reads as the Laurent
    # route's.
    def laurent(*args):
        raise AssertionError(f"Laurent route taken for {args!r}")

    paths = paths_through(5)
    monkeypatch.setattr(rook, "_type_polynomials",
                        partial(ordered_type_polynomials, gate=False))
    broken = ([symfunc_main(g) for g in paths]
              + [symfunc_llt(g) for g in paths])
    monkeypatch.setattr(SymFunc, "to_basis", laurent)
    assert sweep(5, {"main", "llt"}) == broken
    assert sum(not r.ok for r in broken) > len(paths)
    monkeypatch.undo()
    monkeypatch.setattr(SymFunc, "to_basis", laurent)
    assert all(r.ok for r in sweep(6, {"main", "llt"}))


def test_the_width_holds_every_entry_of_the_table_it_packs(monkeypatch):
    # X = e_5 = P_(1^5), LLT = m_(1^5), and a rook side of type (5) for
    # main and of no type for llt: every coefficient either side has is at
    # most 1, and 2 bits hold it.  kf's entries, which main and llt both
    # pack, reach L1 norm 6 at n = 5 (kf's are the Kostka numbers), so the
    # width must cover the table it packs too, for each check to report
    # rather than raise.  The fake rook DP answers at any width, so only
    # the table can tell.  Both widths cover it through n!, since no
    # Kostka number passes n!: K_la,mu is at most K_la,(1^n), the number
    # of standard tableaux of shape la.
    for n in range(9):
        assert max(map(max, symfunc.transitions(n).kostka)) <= \
            math.factorial(n)
    t = symfunc.transitions(5)
    assert max(map(max, t.kostka)) == 6
    tiny = SymFunc(5, "monomial", {(1, 1, 1, 1, 1): ONE})
    monkeypatch.setattr(verify, "chromatic_x", lambda g: tiny)
    monkeypatch.setattr(verify, "llt_poly", lambda g: tiny)
    monkeypatch.setattr(rook, "_type_polynomials", lambda g, w: {(5,): 1})
    assert check_main(FIG_PATH) == CheckReport(
        "main", "heights=2,2,4,4,5", "counterexample",
        lhs="(1,1,1,1,1): 1", rhs="(5): q^2")
    monkeypatch.setattr(rook, "_type_polynomials", lambda g, w: {})
    assert check_llt(FIG_PATH) == CheckReport(
        "llt", "heights=2,2,4,4,5;form=omega", "counterexample",
        lhs="(1,1,1,1,1): 1", rhs="0")


def test_main_bounds_x_through_kostka_and_on_through_kf(monkeypatch):
    # X = 6 m_(2,1,1) at n = 4, with a rook side of type (4): X's Schur
    # coefficients reach 18 in absolute value, the Kostka numbers 3, and
    # n! is 24, but its coefficient of P_(1^4) is -18 + 6q + 6q^2 + 6q^3,
    # of L1 norm 36.  A width from 24 still holds every coefficient here,
    # so the report alone cannot see a bound that stops at the Schur
    # vector.
    widths = []
    real = verify._width
    monkeypatch.setattr(verify, "_width",
                        lambda bound: widths.append(bound) or real(bound))
    x = SymFunc(4, "monomial", {(2, 1, 1): from_int(6)})
    monkeypatch.setattr(verify, "chromatic_x", lambda g: x)
    monkeypatch.setattr(rook, "_type_polynomials", lambda g, w: {(4,): 1})
    laurent = str(x.to_basis("hl_p"))
    assert laurent == "(2,1,1): 6\n(1,1,1,1): -18 + 6q + 6q^2 + 6q^3"
    assert check_main((1, 2, 3, 4)) == CheckReport(
        "main", "heights=1,2,3,4", "counterexample", lhs=laurent,
        rhs="(4): 1")
    assert len(widths) == 1 and widths[0] >= 36 > math.factorial(4)


def test_llt_bounds_every_rook_side_the_premise_allows(monkeypatch):
    # llt's rook side T[la] sums, over the types mu, r_mu times a weight of
    # L1 norm 2^(n - l(mu)) times K_la,mu(q); with r_mu counting at most
    # its set partitions, no coefficient of T passes the largest sum of
    # those bounds, 384 at n = 5.  Through n = 8, n! holds every T the
    # premise allows as well, so no report tells a width without that
    # term: only a test on the bound does.
    widths = []
    real = verify._width
    monkeypatch.setattr(verify, "_width",
                        lambda bound: widths.append(bound) or real(bound))
    tiny = SymFunc(5, "monomial", {(1, 1, 1, 1, 1): ONE})
    monkeypatch.setattr(verify, "llt_poly", lambda g: tiny)
    t = symfunc.transitions(5)
    allowed = max(sum((verify._set_partitions(mu) << 5 - len(mu)) * row[j]
                      for j, mu in enumerate(t.parts)) for row in t.kostka)
    assert allowed == 384 > math.factorial(5)
    assert not check_llt(FIG_PATH).ok
    assert len(widths) == 1 and widths[0] >= allowed


@pytest.mark.parametrize("check", [
    check_main, check_llt,
    pytest.param(partial(check_principal, alpha_max=3), id="check_principal"),
])
def test_a_width_narrower_than_the_bound_raises(monkeypatch, check):
    # A width short of what the bounds call for, by any number of bits,
    # must raise rather than return a verdict.
    real = verify._bits
    for short in range(1, 20):
        monkeypatch.setattr(verify, "_bits",
                            lambda bound: real(bound) - short)
        with pytest.raises(ValueError, match="bits cannot hold"):
            check(FIG_PATH)


@pytest.mark.parametrize("check", [check_main])
def test_a_negative_power_of_q_in_a_rook_factor_raises(monkeypatch, check):
    # The packed counterpart of hl_coefficients' check that a coefficient
    # of P is a polynomial.  The one placement of type (1^n) leaves every
    # board cell free, D - area of them with D = n(n-1)/2 = n((1^n)); a
    # rook side whose r_(1^n) lacks that q^(D - area) leaves
    # q^(area - D) in the coefficient, which raises instead of being
    # shifted off the int.  (llt multiplies each r_mu by q^(D - n(mu)),
    # never a negative power, so no int it reads can carry one.)
    n = len(FIG_PATH)
    ones = (1,) * n
    real = rook._type_polynomials
    monkeypatch.setattr(
        rook, "_type_polynomials",
        lambda g, w: {**real(g, w), ones: 1} if g == FIG_PATH else real(g, w))
    assert type_polynomials(FIG_PATH)[ones] == ONE
    assert area(FIG_PATH) < n * (n - 1) // 2
    with pytest.raises(ValueError, match="negative power of q"):
        check(FIG_PATH)


def test_main_reports_raise_on_a_coloring_key_that_is_no_partition(
        monkeypatch):
    # main reads X only at the partitions of n, so a stray key such as
    # (1, 2) beside X's own coefficients would pass every check unseen.
    x = {**chromatic_x(FIG_PATH).coeffs, (1, 2): ONE}
    monkeypatch.setattr(verify, "chromatic_x",
                        lambda g: SimpleNamespace(coeffs=x))
    with pytest.raises(ValueError, match=r"at \(1, 2\), not a partition of 5"):
        check_main(FIG_PATH)


def test_llt_reports_raise_on_a_coloring_key_that_is_no_partition(
        monkeypatch):
    f = {**llt_poly(FIG_PATH).coeffs, (1, 2): ONE}
    monkeypatch.setattr(verify, "llt_poly",
                        lambda g: SimpleNamespace(coeffs=f))
    with pytest.raises(ValueError, match=r"at \(1, 2\), not a partition of 5"):
        check_llt(FIG_PATH)


def test_check_modular_chromatic_counterexample_names_the_type(monkeypatch):
    # Swap in the word function for the complete graph only: the coloring
    # recurrence then breaks, and the report narrows to the first type.
    monkeypatch.setattr(
        verify, "chromatic_x",
        lambda g: llt_poly(g) if g == (3, 3, 3) else chromatic_x(g))
    bad = [r for r in check_modular(3, "chromatic") if not r.ok]
    assert bad and all(r.identity == "modular.chromatic" for r in bad)
    assert bad[0] == CheckReport(
        "modular.chromatic", "kind=1;column=1;middle=2,3,3;type=3",
        "counterexample", lhs="0", rhs="1")


def test_modular_recurrence_worked_example():
    # middle (2,3,3) with its lower and upper neighbors, single-rook types
    tp_mid = type_polynomials((2, 3, 3))
    tp_low = type_polynomials((2, 2, 3))
    tp_up = type_polynomials((3, 3, 3))
    mu = (1, 1, 1)
    assert tp_mid[mu] == q_power(1)
    assert tp_low[mu] == q_power(2)
    assert tp_up[mu] == ONE
    assert (ONE + Q) * tp_mid[mu] == tp_low[mu] + Q * tp_up[mu]


def test_check_modular():
    for n in range(5):
        for level in ("r_poly", "chromatic"):
            reports = check_modular(n, level)
            assert len(reports) == len(modular_triples(n))
            assert all(r.ok for r in reports)
    assert check_modular(3, "r_poly")[0].identity == "modular.r_poly"
    with pytest.raises(ValueError):
        check_modular(3, "colorings")


def test_check_multiplicativity_single_step():
    reports = check_multiplicativity((1,), 1)
    assert [r.instance for r in reports] == [
        "heights=1;k=1;type=2", "heights=1;k=1;type=1,1"]
    assert all(r.ok for r in reports)
    assert type_polynomials((1, 2)) == {(2,): ONE, (1, 1): Q}


def test_check_multiplicativity_small_sizes():
    for k in (1, 2):
        for n in range(4):
            for gamma in enumerate_dyck(n):
                assert all(r.ok for r in check_multiplicativity(gamma, k))
    for k in (1, 2):
        for n in range(3):
            for gamma in enumerate_dyck(n):
                reports = check_multiplicativity(gamma, k,
                                                 function_level=True)
                assert len(reports) == 1
                assert reports[0].ok
                assert reports[0].identity == "mult.function"
    with pytest.raises(ValueError):
        check_multiplicativity((1,), 0)


@pytest.mark.parametrize("gate", [True, False])
def test_mult_walks_exactly_the_vertical_strips(monkeypatch, gate):
    # The vertical k-strips of mu are the conjugates of the horizontal
    # k-strips of mu', each met once.
    for size in range(8):
        for mu in enumerate_partitions(size):
            for k in (1, 2, 3):
                walked = [conjugate(nu_c) for nu_c in
                          symfunc._horizontal_strips(conjugate(mu), k)]
                assert len(set(walked)) == len(walked)
                assert set(walked) == {
                    nu for nu in enumerate_partitions(size + k)
                    if is_vertical_strip(nu, mu)}
    # Whole reports, counterexamples with the gate off included, equal
    # those of the scan over every pair of a type and a partition.
    if not gate:
        monkeypatch.setattr(rook, "_type_polynomials",
                            partial(ordered_type_polynomials, gate=False))
    failed = 0
    for k in (1, 2, 3):
        for gamma in paths_through(7 - k):
            reports = check_multiplicativity(gamma, k)
            assert reports == mult_by_pair_scan(gamma, k)
            failed += sum(not r.ok for r in reports)
    assert (failed > 0) == (not gate)


def test_mult_strip_table_packs_every_vertical_strip():
    # Each memoized entry lists the conjugates of the horizontal k-strips
    # of mu', in their order, each with its strip factor at the width of
    # its size and k.
    for size in range(8):
        for k in (1, 2, 3):
            bits = verify._mult_width(size, k)
            for mu in enumerate_partitions(size):
                entries = verify._packed_strips(mu, k, bits)
                assert [nu for nu, _ in entries] == [
                    conjugate(nu_c) for nu_c in
                    symfunc._horizontal_strips(conjugate(mu), k)]
                for nu, packed in entries:
                    assert unpack(packed, bits) == \
                        verify._strip_factor(nu, mu, k)
    # The cached partition list is a tuple, so no caller can change what
    # the next check reports on.
    parts = verify._partitions(6)
    assert isinstance(parts, tuple)
    assert parts == tuple(enumerate_partitions(6))
    assert verify._partitions(6) is parts
    with pytest.raises(TypeError):
        parts[0] = (1,) * 6


def test_mult_width_is_set_by_the_factorial_term():
    # A strip factor at q = 1 with r new rows is k!/r! times binomials
    # binom(m_i, d_i), at most binom(k, r) n^(k - r), which is at most
    # (n + 1)...(n + k).  So n! times it never passes (n + k)!, and that
    # term alone sets the width: a width one bit short fails at every size.
    for k in (1, 2, 3):
        for n in range(11 - k):
            top = max(verify._strip_factor(nu, mu, k).at_one()
                      for mu in enumerate_partitions(n)
                      for nu in enumerate_partitions(n + k)
                      if is_vertical_strip(nu, mu))
            assert math.factorial(n) * top <= math.factorial(n + k)
            assert verify._mult_width(n, k) == \
                verify._width(math.factorial(n + k))


def test_mult_raises_when_the_count_premise_fails(monkeypatch):
    # The width rests on each type counting at most its set partitions, so
    # at most n! placements per path of size n.  Hand gamma's type (3)
    # seven, against its one set partition: the check raises instead of
    # returning a verdict, even though every coefficient still fits the
    # width.
    gamma = (2, 2, 3)
    real = rook._type_polynomials

    def dp(g, width):
        if g == gamma:
            return {(3,): 7}
        return real(g, width)

    monkeypatch.setattr(rook, "_type_polynomials", dp)
    with pytest.raises(ValueError, match=re.escape(
            "7 placements of type (3,) on (2, 2, 3), over its 1 set "
            "partitions")):
        check_multiplicativity(gamma, 1)


@pytest.mark.parametrize("check", [
    check_main, check_llt,
    pytest.param(partial(check_principal, alpha_max=6), id="check_principal"),
    pytest.param(partial(check_multiplicativity, k=1), id="check_mult"),
])
def test_a_type_one_placement_over_its_set_partitions_raises(monkeypatch,
                                                             check):
    # On the full board every type counts exactly its set partitions
    # (test_rook), so the premise every packed check's width rests on is
    # tight there: one placement more, of type (2,1,1) with one free cell,
    # raises before any width is trusted.
    gamma = (1, 2, 3, 4)
    real = rook._type_polynomials

    def dp(g, width):
        types = real(g, width)
        if g == gamma:
            types[(2, 1, 1)] += 1 << width
        return types

    assert type_polynomials(gamma)[(2, 1, 1)].at_one() == 6
    monkeypatch.setattr(rook, "_type_polynomials", dp)
    with pytest.raises(ValueError, match=re.escape(
            "7 placements of type (2, 1, 1) on (1, 2, 3, 4), over its 6 set "
            "partitions")):
        check(gamma)


def test_check_llt_small_sizes():
    for n in range(5):
        for gamma in enumerate_dyck(n):
            rep = check_llt(gamma)
            assert rep.ok, (gamma, rep)


def test_check_principal_small_sizes():
    # Every bound on the colors, down to those where all three routes
    # vanish at every k and the packing width is one bit.
    for n in range(5):
        for gamma in enumerate_dyck(n):
            for alpha_max in range(n + 3):
                reports = check_principal(gamma, alpha_max)
                assert len(reports) == alpha_max + 1
                assert all(r.ok for r in reports)
    insts = [r.instance for r in check_principal((1, 2), 1)]
    assert insts == ["heights=1,2;colors=0", "heights=1,2;colors=1"]
    with pytest.raises(ValueError, match="colors must be nonnegative"):
        check_principal((1,), -1)


def test_check_principal_runs_the_class_dp_once_per_path(monkeypatch):
    # Every number of colors is read off X's coefficients, from one call of
    # chromatic_x, looked up at call time.  A sweep calls it once per
    # reversal orbit, for the orbit's first member.
    seen = []
    real = verify.chromatic_x

    def recording(gamma):
        seen.append(gamma)
        return real(gamma)

    monkeypatch.setattr(verify, "chromatic_x", recording)
    for n in range(5):
        for gamma in enumerate_dyck(n):
            seen.clear()
            assert all(r.ok for r in check_principal(gamma, n + 2))
            assert seen == [gamma]
    seen.clear()
    sweep(4, {"principal"})
    assert seen == orbit_firsts(4)


def test_x_and_llt_never_run_the_class_dp_per_partition(monkeypatch,
                                                       capsys):
    # Every check makes one top-level call of the induced-path recursion
    # per path and function, and a sweep one per reversal orbit; the calls
    # inside it are its own recursion.  It is looked up at call time.
    calls, depth = [], []
    real = chromatic._induced_counts

    def counted(aseq, proper, bits):
        if not depth:
            calls.append((aseq, proper))
        depth.append(aseq)
        try:
            return real(aseq, proper, bits)
        finally:
            depth.pop()

    def top(paths):
        return [(area_sequence(g), proper) for g, proper in paths]

    monkeypatch.setattr(chromatic, "_induced_counts", counted)
    paths = [g for n in range(5) for g in enumerate_dyck(n)] + [FIG_PATH]
    for gamma in paths:
        calls.clear()
        assert check_main(gamma).ok
        assert check_llt(gamma).ok
        assert all(r.ok for r in check_principal(gamma, len(gamma) + 2))
        assert calls == top([(gamma, True), (gamma, False), (gamma, True)])
    calls.clear()
    assert all(r.ok for r in check_modular(5, "chromatic"))
    assert sorted(calls) == sorted(top(
        {(g, True) for t in modular_triples(5)
         for g in (t.middle, t.lower, t.upper)}))
    calls.clear()
    for what, basis in (("X", "s"), ("LLT", "m")):
        assert main(["expand", "--heights", "2,2,4,4,5", "--what", what,
                     "--basis", basis]) == 0
    capsys.readouterr()
    assert calls == top([(FIG_PATH, True), (FIG_PATH, False)])
    calls.clear()
    sweep(4, {"main", "llt"})
    assert sorted(calls) == sorted(
        top((g, proper) for g in orbit_firsts(4) for proper in (True, False)))


def test_check_principal_reports_a_direct_side_counterexample(monkeypatch):
    # Break the coloring side at two colors only, multiplying m_la(1, q)
    # by q: that instance, and no other, must be reported, with the rook
    # and product sides intact.
    real = verify.principal_monomial
    monkeypatch.setattr(
        verify, "principal_monomial",
        lambda la, k: real(la, k).shift(1 if k == 2 else 0))
    reports = check_principal(FIG_PATH, 3)
    assert [r.instance for r in reports if r.ok] == [
        "heights=2,2,4,4,5;colors=0", "heights=2,2,4,4,5;colors=1",
        "heights=2,2,4,4,5;colors=3"]
    assert [r for r in reports if not r.ok] == [CheckReport(
        "principal", "heights=2,2,4,4,5;colors=2", "counterexample",
        lhs="direct=q^3 + 3q^4 + 3q^5 + q^6",
        rhs="types=q^2 + 3q^3 + 3q^4 + q^5;"
            "product=q^2 + 3q^3 + 3q^4 + q^5")]


@pytest.mark.parametrize("side", ["direct", "types"])
def test_check_principal_bounds_every_route(monkeypatch, side):
    # Scale X by 3^30: its coefficients outgrow the other two routes'
    # values at q = 1, so the packing width must come from all of them for
    # the report to name the exact polynomials instead of raising.  Or
    # take X = e_5 with the real rook side: X's sums stay at most 6 and n!
    # is 120, but at 5 and 6 colors the type route's coefficients reach
    # 264 and 578, which alpha_max^n must cover.
    big = 3 ** 30
    if side == "direct":
        monkeypatch.setattr(verify, "chromatic_x",
                            lambda g: scale(chromatic_x(g), big))
        alpha_max = 4
    else:
        tiny = SymFunc(5, "monomial", {(1, 1, 1, 1, 1): ONE})
        monkeypatch.setattr(verify, "chromatic_x", lambda g: tiny)
        alpha_max = 6
    reports = check_principal(FIG_PATH, alpha_max)
    assert [r.ok for r in reports] == [True, True] + [False] * (alpha_max - 1)
    types = type_polynomials(FIG_PATH)
    for colors, report in enumerate(reports[2:], start=2):
        right = principal_direct(FIG_PATH, colors)
        if side == "direct":
            lhs, series = right * big, right
        else:
            # e_5(1, q, ..., q^(colors-1)), nonzero from 5 colors on.
            lhs = q_power(10) * q_binomial(colors, 5) if colors >= 5 else ZERO
            series = sum((r * q_falling(colors, len(mu))
                          for mu, r in types.items()),
                         ZERO).shift(area(FIG_PATH))
        assert report == CheckReport(
            "principal", f"heights=2,2,4,4,5;colors={colors}",
            "counterexample", lhs=f"direct={lhs}",
            rhs=f"types={series};product={right}")
    if side == "types":
        assert max(series.coeffs) == 578 >= 1 << math.factorial(5).bit_length()


@pytest.mark.parametrize("identity", ["main", "llt", "principal"])
def test_sweep_runs_the_coloring_dp_once_per_orbit(monkeypatch, identity):
    # Both coloring functions are looked up at call time.  X serves main
    # and principal, LLT serves llt, and each runs once per orbit.
    seen = {"x": [], "llt": []}

    def recording(name, real):
        return lambda gamma: seen[name].append(gamma) or real(gamma)

    monkeypatch.setattr(verify, "chromatic_x",
                        recording("x", verify.chromatic_x))
    monkeypatch.setattr(verify, "llt_poly", recording("llt", verify.llt_poly))
    assert all(r.ok for r in sweep(5, {identity}))
    want = {"x": orbit_firsts(5), "llt": []}
    if identity == "llt":
        want = {"x": [], "llt": orbit_firsts(5)}
    assert seen == want
    assert len(want["x"] or want["llt"]) == 1 + 1 + 2 + 4 + 10 + 26


def test_sweep_equals_the_per_path_checks():
    # One task per orbit, its reports put back in path order: the sweep
    # must list exactly what the checks give path by path.
    paths = paths_through(5)
    assert sweep(5, {"main", "llt", "principal"}) == [
        *(check_main(g) for g in paths),
        *(check_llt(g) for g in paths),
        *(r for g in paths for r in check_principal(g, len(g) + 2))]


@pytest.mark.parametrize("identity", ["main", "llt", "principal"])
@pytest.mark.parametrize("member", [0, 1])
def test_each_orbit_member_is_reported_on_its_own_rook_side(monkeypatch,
                                                           identity,
                                                           member):
    # Break the rook side of one member of one orbit, multiplying its
    # types by q, which keeps every count: the sweep must report that
    # path, and only that path, whichever member it is.
    bad = sorted((FIG_PATH, reflect(FIG_PATH)))[member]
    real = rook._type_polynomials
    monkeypatch.setattr(
        rook, "_type_polynomials",
        lambda g, w: {mu: h << w for mu, h in real(g, w).items()}
        if g == bad else real(g, w))
    failed = {r.instance.split(";")[0]
              for r in sweep(5, {identity}) if not r.ok}
    assert failed == {"heights=" + ",".join(map(str, bad))}


def test_sweep_tasks_look_up_their_checks_when_they_run(monkeypatch):
    # A task runs the check the module holds when the task runs, so that a
    # wrapper put in its place after import is the one called; a task of
    # no known kind raises.
    seen = []

    def recording(name, real):
        return lambda *args: seen.append(name) or real(*args)

    for name in ("check_modular", "check_multiplicativity"):
        monkeypatch.setattr(verify, name,
                            recording(name, getattr(verify, name)))
    assert all(r.ok for r in sweep(3, {"modular", "mult"}))
    tasks = sweep_tasks(3, {"modular", "mult"})
    assert seen == ["check_modular" if t[0] == "modular"
                    else "check_multiplicativity" for t in tasks]
    with pytest.raises(ValueError, match="unknown task"):
        verify._task_reports(("colorings", 3))


def test_sweep_main_count_and_determinism():
    reports = sweep(4, {"main"})
    assert len(reports) == 23
    assert all(r.ok for r in reports)
    assert reports == sweep(4, {"main"})
    assert reports[0].instance == "heights=-"


def test_sweep_all_identities_small():
    reports = sweep(3, {"main", "modular", "mult", "llt", "principal"})
    assert all(r.ok for r in reports)
    kinds = {r.identity for r in reports}
    assert kinds == {"main", "modular.r_poly", "modular.chromatic",
                     "mult", "mult.function", "llt", "principal"}


def test_sweep_parallel_equals_serial():
    serial = sweep(3, {"main", "llt"})
    parallel = sweep(3, {"main", "llt"}, jobs=2)
    assert serial == parallel


def test_sweep_warms_only_the_degrees_its_checks_convert_in(monkeypatch):
    weighed = []
    real = symfunc._psi
    monkeypatch.setattr(symfunc, "_psi",
                        lambda la, nu: weighed.append(nu) or real(la, nu))
    # The degrees whose P-basis and Kostka-Foulkes matrices are built when
    # the first task starts, that is, by the warm-up.
    warm = []
    real_task = verify._task_reports

    def built(name):
        return {n for n, tr in symfunc._TRANSITIONS.items()
                if name in vars(tr)}

    def tables():
        # What any degree holds beyond what its constructor counts.
        return set().union(*map(vars, symfunc._TRANSITIONS.values())) - {
            "n", "parts", "index", "kostka", "_packed"}

    def task(t):
        if not warm:
            warm.append((built("pm"), built("kf")))
        return real_task(t)

    monkeypatch.setattr(verify, "_task_reports", task)
    monkeypatch.setattr(symfunc, "_TRANSITIONS", {})
    sweep(4, {"principal"})
    assert symfunc._TRANSITIONS == {}
    assert weighed == []
    assert warm == [(set(), set())]
    warm.clear()
    # Only main and llt are warmed: both pack kf and take their widths from
    # the Kostka numbers, which kf's build checks are its entry norms, so
    # they build pm and kf and no norm table.  mult's function level builds
    # pm where it first converts, at degrees up to 5, and no kf.
    sweep(6, {"mult"})
    assert set(symfunc._TRANSITIONS) == set(range(6))
    assert warm == [(set(), set())]
    assert tables() == {"pm"}
    warm.clear()
    monkeypatch.setattr(symfunc, "_TRANSITIONS", {})
    sweep(2, {"main", "modular"})
    assert set(symfunc._TRANSITIONS) == {0, 1, 2}
    assert warm == [({0, 1, 2}, {0, 1, 2})]
    assert tables() == {"pm", "kf"}
    warm.clear()
    monkeypatch.setattr(symfunc, "_TRANSITIONS", {})
    sweep(3, {"llt", "mult"})
    assert warm == [({0, 1, 2, 3}, {0, 1, 2, 3})]
    assert tables() == {"pm", "kf"}
    warm.clear()
    monkeypatch.setattr(symfunc, "_TRANSITIONS", {})
    sweep(6, {"main", "llt"})
    assert warm == [(set(range(7)), set(range(7)))]
    assert tables() == {"pm", "kf"}


def _start_method_pool(monkeypatch, method):
    """Make sweep build its pool from the named start method's context, or
    for None from its default pool, through the pool class it looks up when
    it fans out."""
    if method is None:
        monkeypatch.setattr(verify, "Pool", None)
        return
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method} is not available")
    monkeypatch.setattr(verify, "Pool",
                        multiprocessing.get_context(method).Pool)


@pytest.mark.parametrize("method", [None, "fork"])
def test_parallel_sweep_builds_kf_in_the_parent_only(monkeypatch, tmp_path,
                                                     method):
    # The warm-up builds every P-basis and Kostka-Foulkes matrix the checks
    # read before the pool starts; forked workers inherit them, and weigh
    # no strip themselves.  The default pool forks, and the fork context is
    # named explicitly: only forked workers see this monkeypatch.
    _start_method_pool(monkeypatch, method)
    log = tmp_path / "pids"

    def logged(name, real):
        def call(*args):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return real(*args)
        return call

    monkeypatch.setattr(symfunc, "_psi", logged("psi", symfunc._psi))
    monkeypatch.setattr(symfunc, "_TRANSITIONS", {})
    assert all(r.ok for r in sweep(4, {"main", "llt", "mult"}, jobs=2))
    assert set(log.read_text().splitlines()) == {f"psi {os.getpid()}"}


@pytest.mark.parametrize("method", [None, "fork"])
def test_parallel_sweep_warms_from_identities_given_once(monkeypatch,
                                                        tmp_path, method):
    # Identities given as a one-shot iterator are read once, so the
    # warm-up still sees main after the task list is built, and forked
    # workers weigh no strip.
    _start_method_pool(monkeypatch, method)
    log = tmp_path / "pids"
    real = symfunc._psi

    def psi(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(symfunc, "_psi", psi)
    monkeypatch.setattr(symfunc, "_TRANSITIONS", {})
    assert all(r.ok for r in sweep(4, iter(["main"]), jobs=2))
    assert set(log.read_text().splitlines()) == {str(os.getpid())}


@pytest.mark.parametrize("method", [None, "fork", "forkserver", "spawn"])
def test_parallel_sweep_equals_serial_under_every_start_method(monkeypatch,
                                                               method):
    # None is the default pool.  Workers that do not fork rebuild whatever
    # they convert in.  The orbit tasks of main, llt and principal come
    # back in any order of completion, and their reports in path order.
    ids = {"main", "llt", "mult", "principal"}
    serial = sweep(4, ids)
    _start_method_pool(monkeypatch, method)
    assert sweep(4, ids, jobs=2) == serial
    assert list(verify.stream(4, ids, jobs=2)) == serial


def test_a_gate_off_sweep_fans_out_to_the_serial_reports(monkeypatch):
    # With the gate off, most paths from n = 4 on are counterexamples, each
    # with both sides written; forked workers inherit the broken rook DP,
    # and their reports, streamed or listed, must be the serial ones.
    monkeypatch.setattr(rook, "_type_polynomials",
                        partial(ordered_type_polynomials, gate=False))
    ids = {"main", "llt", "mult", "principal"}
    serial = sweep(5, ids)
    assert sum(not r.ok for r in serial) > len(serial) // 3
    assert sweep(5, ids, jobs=2) == serial
    assert list(verify.stream(5, ids, jobs=2)) == serial
    assert list(verify.stream(5, ids, jobs=3)) == serial


def test_each_path_comes_out_once_every_earlier_path_is_in():
    # Stand-in chunks, one per task, name each path of the task; a path's
    # report must come out in path order, as soon as the task of every
    # earlier path of its block has been taken, and no sooner.
    tasks = sweep_tasks(5, {"main", "mult", "llt"})
    taken = []

    def chunks():
        for i, task in enumerate(tasks):
            taken.append(i)
            members = (task[1] if task[0] in verify.ORBIT_IDENTITIES
                       else (task[1:],))
            yield [[(task[0], g)] for g in members]

    out = [(r, len(taken)) for r in verify._in_path_order(tasks, chunks())]
    expected = []
    for kind, block in groupby(enumerate(tasks), key=lambda it: it[1][0]):
        block = list(block)
        if kind not in verify.ORBIT_IDENTITIES:
            expected += [((kind, t[1:]), i + 1) for i, t in block]
            continue
        where = {g: i for i, t in block for g in t[1]}
        paths = sorted(where, key=lambda g: (len(g), g))
        assert paths == paths_through(5)
        for j, g in enumerate(paths):
            last = max(where[h] for h in paths[:j + 1])
            expected.append(((kind, g), last + 1))
    assert out == expected


def test_a_task_error_mid_sweep_comes_after_the_earlier_reports(monkeypatch):
    # A task that raises in a worker: every report before it comes out,
    # then its error; the workers are reaped and the heap unfrozen.
    tasks = sweep_tasks(5, {"mult"})
    bad = len(tasks) // 2
    real = verify.check_multiplicativity
    before = [r for t in tasks[:bad] for r in real(*t[1:])]

    def check(*args):
        if args == tasks[bad][1:]:
            raise ValueError(f"task {bad} failed")
        return real(*args)

    frozen = gc.get_freeze_count()
    monkeypatch.setattr(verify, "Pool", None)
    monkeypatch.setattr(verify, "check_multiplicativity", check)
    pids = record_forks(monkeypatch)
    out = []
    with pytest.raises(ValueError, match=f"task {bad} failed"):
        for r in verify.stream(5, {"mult"}, jobs=2):
            out.append(r)
    assert out == before
    assert gc.get_freeze_count() == frozen
    assert len(pids) == 2
    assert_reaped(pids)


def test_sweep_starts_no_more_workers_than_tasks(monkeypatch):
    # A recorder stands in for the pool class: it starts no process and
    # runs the tasks in order.
    started = []

    class Recorder:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=None):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(verify, "Pool", Recorder)
    for n_max, ids, jobs, workers in (
            (0, {"main"}, 8, []),               # one task: none start
            (0, {"mult"}, 4, []),               # no task at all
            (1, {"main"}, 8, [2]),              # two orbits
            (2, {"main", "llt"}, 16, [8]),
            (4, {"principal"}, 2, [2]),
            (4, {"main"}, 1, [])):
        started.clear()
        assert sweep(n_max, ids, jobs=jobs) == sweep(n_max, ids)
        assert started == workers


@pytest.mark.parametrize("method", [None, "fork"])
def test_sweep_leaves_the_collector_as_it_found_it(monkeypatch, method):
    # The pool is built over a frozen heap, which the sweep unfreezes once
    # the pool is closed, also when the pool's map raises.
    before = gc.get_freeze_count(), gc.isenabled()
    _start_method_pool(monkeypatch, method)
    assert all(r.ok for r in sweep(4, {"main", "mult"}, jobs=2))
    assert (gc.get_freeze_count(), gc.isenabled()) == before

    frozen = []

    class Failing:
        def __init__(self, processes):
            frozen.append(gc.get_freeze_count())

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=None):
            raise RuntimeError("map failed")

    monkeypatch.setattr(verify, "Pool", Failing)
    with pytest.raises(RuntimeError, match="map failed"):
        sweep(4, {"main", "mult"}, jobs=2)
    assert frozen[0] > before[0]
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_sweep_without_fork_runs_in_one_process(monkeypatch):
    # Where os has no fork, the default pool is not built: the sweep runs
    # its tasks here, with the same reports.
    serial = sweep(4, {"main", "mult"})
    monkeypatch.setattr(verify, "Pool", None)
    monkeypatch.delattr(os, "fork")
    assert sweep(4, {"main", "mult"}, jobs=2) == serial


def test_sweep_rejects_unknown_identity():
    with pytest.raises(ValueError):
        sweep(3, {"main", "bogus"})


def test_sweep_tasks_ranges():
    tasks = sweep_tasks(4, {"mult"})
    combos = {(len(t[1]), t[2], t[3]) for t in tasks}
    assert (3, 1, False) in combos
    assert (1, 3, False) in combos
    assert (2, 2, True) in combos
    assert all(len(t[1]) + t[2] <= 4 for t in tasks)
    assert all(len(t[1]) <= 3 for t in tasks if t[3])
    mods = sweep_tasks(7, {"modular"})
    assert ("modular", 7, "r_poly") in mods
    assert ("modular", 5, "chromatic") in mods
    assert ("modular", 6, "chromatic") not in mods
    # main, llt and principal: one task per reversal orbit, a palindromic
    # path alone and any other with its reflection, covering every path
    # with n <= n_max once.
    for identity in ("main", "llt", "principal"):
        tasks = sweep_tasks(6, {identity})
        assert len(tasks) == 1 + 1 + 2 + 4 + 10 + 26 + 76
        assert [t[1][0] for t in tasks] == orbit_firsts(6)
        for t in tasks:
            g = t[1][0]
            assert t[1] == ((g,) if g == reflect(g) else (g, reflect(g)))
            assert t[2:] == ((len(g) + 2,) if identity == "principal"
                             else ())
        assert sorted(g for t in tasks for g in t[1]) == \
            sorted(paths_through(6))


def test_report_json():
    rep = CheckReport("main", "heights=1,2", "verified")
    assert rep.to_json() == {
        "identity": "main", "instance": "heights=1,2",
        "status": "verified", "lhs": "", "rhs": ""}
