import ast
import inspect
import math
import random
from itertools import combinations
from pathlib import Path

import pytest

from rookhl.dyck import (
    area, enumerate_dyck, complete_path, modular_triples,
)
from rookhl.partitions import enumerate_partitions, multiplicities, nstat
from rookhl.qseries import QLaurent, ONE, ZERO, q_factorial, q_power, unpack
from rookhl import rook, verify
from rookhl.cli import main
from rookhl.rook import (
    placements, placement_type, rank_tables, free_cells, type_polynomials,
    hl_coefficients,
)
from placement_oracle import (
    chains, enumerated_type_polynomials, extended_placement, fc,
    oracle_free_cells, ordered_type_polynomials,
)
from reference import poset_cells


def subsets_oracle(gamma):
    """Every subset of the board with distinct columns and distinct rows."""
    cells = sorted(poset_cells(gamma))
    found = set()
    for k in range(len(cells) + 1):
        for combo in combinations(cells, k):
            cols = [i for i, _ in combo]
            rows = [j for _, j in combo]
            if len(set(cols)) == k and len(set(rows)) == k:
                found.add(combo)
    return found


def test_placements_match_subset_oracle():
    for n in range(6):
        for gamma in enumerate_dyck(n):
            got = placements(gamma)
            assert len(set(got)) == len(got)
            assert set(got) == subsets_oracle(gamma)


def test_placement_counts_on_extreme_boards():
    # Full staircase board: placements are set partitions into chains.
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for n in range(8):
        staircase = tuple(range(1, n + 1))
        assert len(placements(staircase)) == bell[n]
        # Empty board: only the empty placement.
        assert placements(complete_path(n)) == [()]


def test_chains_and_type():
    p = ((1, 4), (2, 3), (3, 5))
    assert chains(5, p) == [(1, 4), (2, 3, 5)]
    assert placement_type(5, p) == (3, 2)
    assert chains(3, ()) == [(1,), (2,), (3,)]
    assert placement_type(3, ()) == (1, 1, 1)
    assert chains(0, ()) == []
    assert placement_type(0, ()) == ()
    assert placement_type(4, ((1, 2), (2, 3), (3, 4))) == (4,)


def test_placement_type_sizes():
    for n in range(6):
        for gamma in enumerate_dyck(n):
            for p in placements(gamma):
                mu = placement_type(n, p)
                assert sum(mu) == n
                assert len(p) == n - len(mu)


def test_extended_placement_literal():
    # chain (2, 3, 5) inside n = 5
    seqs = extended_placement(5, ((2, 3), (3, 5), (1, 4)))
    assert seqs == [
        [(1, 1), (1, 4), (4, 4), (4, 6)],
        [(2, 2), (2, 3), (3, 3), (3, 5), (5, 5), (5, 6)],
    ]


def test_rank_tables_agree_with_literal_construction():
    for n in range(6):
        for gamma in enumerate_dyck(n):
            for p in placements(gamma):
                tables = rank_tables(n, p)
                for seq in extended_placement(n, p):
                    for k, (i, j) in enumerate(seq, start=1):
                        rank = k // 2
                        if k % 2 == 0:
                            # the extended rook of column i
                            assert tables.col_rank[i] == rank
                            assert tables.col_top[i] == j
                    # leftmost cell of each row j <= n is the first
                    # appearance of j as a row in the chain sequence
                    for j in {j for _, j in seq if j <= n}:
                        k, (il, _) = min(
                            (k, cell) for k, cell in enumerate(seq, start=1)
                            if cell[1] == j)
                        assert tables.row_left[j] == il
                        assert tables.row_rank[j] == k // 2


FIG_PATH = (2, 2, 4, 4, 5)


def test_free_cells_worked_examples():
    cases = [
        (((1, 3), (2, 4), (3, 5)), set()),
        (((1, 4), (2, 3), (3, 5)), {(1, 3)}),
        (((1, 4), (2, 3), (4, 5)), {(1, 3), (3, 5)}),
        (((1, 3), (2, 4), (4, 5)), {(3, 5)}),
    ]
    for p, free in cases:
        assert placement_type(5, p) == (3, 2)
        assert free_cells(FIG_PATH, p) == free
    assert sorted(fc(FIG_PATH, p) for p, _ in cases) == [0, 1, 1, 2]


def test_free_cells_of_empty_placement():
    # With no rooks every board cell is free.
    for n in range(7):
        for gamma in enumerate_dyck(n):
            assert free_cells(gamma, ()) == poset_cells(gamma)
            assert fc(gamma, ()) == math.comb(n, 2) - area(gamma)


def test_free_cells_avoid_rooks_and_stay_on_board():
    for gamma in enumerate_dyck(5):
        cells = poset_cells(gamma)
        for p in placements(gamma):
            free = free_cells(gamma, p)
            assert free <= cells
            assert not (free & set(p))


def test_r_poly_examples():
    fig = type_polynomials(FIG_PATH)
    assert fig[(3, 2)] == QLaurent(0, (1, 2, 1))
    assert fig[(1, 1, 1, 1, 1)] == q_power(8)
    assert type_polynomials(()) == {(): ONE}
    assert type_polynomials((1,)) == {(1,): ONE}
    # A single rook on (1, 2), and the empty placement with one free cell.
    assert type_polynomials((1, 2)) == {(2,): ONE, (1, 1): q_power(1)}
    # No rook fits on (2, 2): type (2,) has no placement.
    assert type_polynomials((2, 2)).get((2,), ZERO) == ZERO


def test_type_polynomials_consistent():
    for n in range(6):
        for gamma in enumerate_dyck(n):
            table = type_polynomials(gamma)
            # summing r(1) over types counts all placements
            assert sum(p.at_one() for p in table.values()) \
                == len(placements(gamma))
            assert set(table) <= set(enumerate_partitions(n))


def test_hl_coefficient_examples():
    assert hl_coefficients((1, 2))[(1, 1)] == QLaurent(0, (1, 1))
    assert hl_coefficients(FIG_PATH)[(3, 2)] == QLaurent(0, (1, 2, 1))
    assert hl_coefficients(()) == {(): ONE}


def test_hl_coefficient_raises_on_negative_power(monkeypatch):
    # A type polynomial that leaves a negative power of q is a broken
    # input, caught by a raise that python -O keeps.  On (1, 2), r_(1,1)
    # is q; a kernel that returns 1 leaves q^-1 (1 + q).
    monkeypatch.setattr(rook, "_type_polynomials",
                        lambda gamma, width: {(1, 1): 1})
    with pytest.raises(ValueError, match="not a polynomial"):
        hl_coefficients((1, 2))


def test_package_source_has_no_assert():
    # Correctness tripwires must raise: python -O strips assert statements.
    src = Path(rook.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_hl_coefficient_at_single_column_type():
    # Type (1,...,1) always yields the full q-factorial.
    for n in range(6):
        for gamma in enumerate_dyck(n):
            assert hl_coefficients(gamma)[(1,) * n] == q_factorial(n)


def test_hl_coefficients_are_polynomials():
    for n in range(5):
        for gamma in enumerate_dyck(n):
            for mu, poly in hl_coefficients(gamma).items():
                assert poly.is_polynomial()
                assert all(c >= 0 for c in poly.coeffs)
                assert poly == (q_power(area(gamma) - nstat(mu))
                                * type_polynomials(gamma)[mu]
                                * math.prod(q_factorial(m) for m in
                                            multiplicities(mu).values()))


def test_ungated_rule_differs_on_fig_path():
    # The strict reading of the free-cell rule needs the column gate; with
    # the gate off, cell (1, 4) of the first worked example leaks in.  The
    # package has no gate, and frees nothing there.
    p = ((1, 3), (2, 4), (3, 5))
    assert oracle_free_cells(FIG_PATH, p, gate=False) == {(1, 4)}
    assert oracle_free_cells(FIG_PATH, p, gate=True) == set()
    assert free_cells(FIG_PATH, p) == set()


def test_free_cells_match_oracle():
    # The package's free cells are the gated rule's; the gate only takes
    # cells away.
    for n in range(7):
        for gamma in enumerate_dyck(n):
            for p in placements(gamma):
                free = free_cells(gamma, p)
                assert free == oracle_free_cells(gamma, p)
                assert free <= oracle_free_cells(gamma, p, gate=False)


def test_type_polynomials_match_oracle_sums():
    for n in range(7):
        for gamma in enumerate_dyck(n):
            want = {}
            for p in placements(gamma):
                mu = tuple(sorted(map(len, chains(n, p)), reverse=True))
                w = q_power(len(oracle_free_cells(gamma, p)))
                want[mu] = want.get(mu, QLaurent()) + w
            assert type_polynomials(gamma) == want


def ordered(gamma, gate=True):
    """The ordered test kernel's type polynomials, unpacked at the width
    type_polynomials uses."""
    width = math.factorial(len(gamma)).bit_length()
    return {mu: unpack(hist, width) for mu, hist in
            ordered_type_polynomials(gamma, width, gate).items()}


def test_type_polynomials_match_enumeration():
    # The transfer DP against placements listed and scored one by one, on
    # every path through n = 7; and the ordered kernel, the negative
    # controls' stand-in, with the column gate off through n = 6, against
    # placements scored by the literal rule with the gate off.
    for n in range(8):
        for gamma in enumerate_dyck(n):
            assert type_polynomials(gamma) == \
                enumerated_type_polynomials(gamma)
            if n <= 6:
                assert ordered(gamma, gate=False) == \
                    enumerated_type_polynomials(gamma, gate=False)


def random_heights(rng, n, top):
    """Heights that never decrease and never fall below the diagonal,
    each at most top, drawn from rng."""
    gamma = []
    for i in range(1, n + 1):
        gamma.append(rng.randint(max(i, gamma[-1] if gamma else 1), top))
    return tuple(gamma)


def test_multiset_kernel_equals_the_ordered_kernel():
    # The multiset DP against the ordered one it replaced, packed, on every
    # path through n = 7 and on seeded random heights up to n + 3, at the
    # smallest width and at wider ones.
    for n in range(8):
        width = math.factorial(n).bit_length()
        for gamma in enumerate_dyck(n):
            assert rook._type_polynomials(gamma, width) == \
                ordered_type_polynomials(gamma, width)
    rng = random.Random(21)
    for _ in range(400):
        n = rng.randint(1, 9)
        gamma = random_heights(rng, n, n + 3)
        width = math.factorial(n).bit_length() + rng.randint(0, 4)
        assert rook._type_polynomials(gamma, width) == \
            ordered_type_polynomials(gamma, width), gamma


def test_multiset_kernel_sums_tie_runs_of_three():
    # Row d of the staircase meets all d - 1 columns below it, and where no
    # rook was placed below row d they are open at rank 1: from row 4 on a
    # tie run of c >= 3 columns takes one transition weighted [c]_q.
    gamma = (1, 2, 3, 4, 5, 6)
    assert columns_met(gamma)[3:] == [3, 4, 5]
    assert type_polynomials(gamma) == enumerated_type_polynomials(gamma)
    assert type_polynomials(gamma)[(1,) * 6] == q_power(15)


def test_multiset_kernel_keeps_the_tail_in_vertex_order():
    # On row 5 of (1, 4, 5, 6, 6, 6) vertex 2 joins the met columns, and
    # the tail holds vertices 3 and 4, of heights 5 and 6: row 6 meets
    # vertex 3 but not vertex 4, so sorting their ranks with the multiset
    # would score the wrong column.
    gamma = (1, 4, 5, 6, 6, 6)
    assert columns_met(gamma) == [0, 1, 1, 1, 2, 3]
    assert type_polynomials(gamma) == enumerated_type_polynomials(gamma)


def test_kernel_width_must_hold_n_factorial():
    # The seam takes the caller's width and has no gate; a width that
    # cannot hold n! placements per fc value raises.
    assert list(inspect.signature(rook._type_polynomials).parameters) == \
        ["gamma", "width"]
    for gamma in (FIG_PATH, (1, 2, 3, 4, 5, 6, 7)):
        least = math.factorial(len(gamma)).bit_length()
        with pytest.raises(ValueError, match="cannot hold"):
            rook._type_polynomials(gamma, least - 1)
        assert {mu: unpack(h, least) for mu, h in
                rook._type_polynomials(gamma, least).items()} == \
            type_polynomials(gamma)


def columns_met(gamma):
    """on for each row d of gamma: row d meets columns 1..on."""
    n, on, out = len(gamma), 0, []
    for d in range(1, n + 1):
        while on < d - 1 and gamma[on] < d:
            on += 1
        out.append(on)
    return out


@pytest.mark.parametrize("gamma", [
    (3, 3, 3, 6, 6, 6, 8, 8), (1, 2, 5, 5, 5, 8, 8, 8),
    (2, 4, 4, 4, 7, 7, 7, 8), (2, 2, 6, 6, 6, 6, 8, 8),
    (3, 3, 3, 7, 7, 7, 9, 10), (2, 4, 4, 9, 9, 9, 9, 9),
    (3, 3, 3, 6, 6, 6, 9, 9, 9), (1, 4, 4, 4, 6, 8, 8, 9, 11),
])
def test_type_polynomials_read_open_columns_across_jumps(gamma):
    # The DP keeps only open vertices and reads row d's open columns as
    # the first on - (closed vertices) entries of a state.  Where on jumps
    # by more than one in a row, vertices closed before the jump and open
    # ones after it share that prefix; heights above n leave columns that
    # no row meets.  The DP must still equal the enumeration, and so must
    # the ordered test kernel with either setting of the gate.
    on = columns_met(gamma)
    assert max(b - a for a, b in zip(on, on[1:])) > 1
    assert type_polynomials(gamma) == enumerated_type_polynomials(gamma)
    for gate in (True, False):
        assert ordered(gamma, gate) == \
            enumerated_type_polynomials(gamma, gate)


def test_type_polynomials_reject_heights_the_dp_cannot_read():
    # Decreasing heights, or heights below the diagonal, break the DP's
    # reading of each row as a prefix of columns: they raise, in the DP and
    # in the ordered test kernel, gate or not.
    for gamma in ((3, 2, 3), (2, 1, 3), (1, 1, 3)):
        with pytest.raises(ValueError):
            type_polynomials(gamma)
        with pytest.raises(ValueError):
            ordered(gamma, gate=False)
    # Heights above n only close columns, and stay accepted.
    for gamma in ((2, 2, 4), (2, 2, 4, 5, 5)):
        assert type_polynomials(gamma) == enumerated_type_polynomials(gamma)
        for gate in (True, False):
            assert ordered(gamma, gate) == \
                enumerated_type_polynomials(gamma, gate)


def test_gate_hook_reaches_every_rook_side_caller(monkeypatch, capsys):
    # The negative controls turn the gate off by putting the ordered test
    # kernel in rook._type_polynomials's place; every caller must look
    # that name up.
    seen = []
    real = rook._type_polynomials

    def recording(gamma, width):
        seen.append(gamma)
        return real(gamma, width)

    monkeypatch.setattr(rook, "_type_polynomials", recording)
    small = (2, 3, 3)
    calls = [
        (lambda: type_polynomials(FIG_PATH), {FIG_PATH}),
        (lambda: hl_coefficients(FIG_PATH), {FIG_PATH}),
        (lambda: verify.check_main(FIG_PATH), {FIG_PATH}),
        (lambda: verify.check_llt(FIG_PATH), {FIG_PATH}),
        (lambda: verify.check_principal(FIG_PATH, 2), {FIG_PATH}),
        (lambda: verify.check_multiplicativity(small, 2),
         {small, (2, 3, 3, 5, 5)}),
        (lambda: verify.check_multiplicativity(small, 2, True),
         {small, (2, 2), (2, 3, 3, 5, 5)}),
        (lambda: verify.check_modular(4, "r_poly"),
         {g for t in modular_triples(4)
          for g in (t.middle, t.lower, t.upper)}),
        (lambda: main(["rook", "--heights", "2,2,4,4,5"]), {FIG_PATH}),
        (lambda: main(["expand", "--heights", "2,2,4,4,5",
                       "--what", "X", "--basis", "P"]), {FIG_PATH}),
    ]
    for call, paths in calls:
        seen.clear()
        call()
        assert set(seen) == paths
    capsys.readouterr()
