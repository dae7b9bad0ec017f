import gc
import math
from itertools import combinations, product

import pytest

from rookhl.dyck import (
    check_heights, from_heights, parse_heights, format_heights, enumerate_dyck,
    area, area_sequence, concat, complete_path, reflect,
    ModularTriple, modular_triples,
)
from rookhl.partitions import enumerate_partitions
from rookhl.rook import placements
from rookhl.symfunc import _horizontal_strips
from reference import edges, poset_cells


def test_from_heights_accepts_valid():
    assert from_heights([2, 2, 4, 4, 5]) == (2, 2, 4, 4, 5)
    assert from_heights(()) == ()
    assert from_heights((1,)) == (1,)


def test_from_heights_names_offending_column():
    with pytest.raises(ValueError, match="column 2"):
        from_heights((2, 1))                 # decreasing
    with pytest.raises(ValueError, match="column 3"):
        from_heights((1, 2, 2))              # below diagonal
    with pytest.raises(ValueError, match="column 1"):
        from_heights((4, 4, 4))              # exceeds n
    with pytest.raises(ValueError, match="column 2"):
        from_heights((1, None))
    with pytest.raises(ValueError, match="column 1"):
        from_heights((True,))
    with pytest.raises(ValueError, match="column 2"):
        from_heights((1, True))


def error_of(fn, gamma):
    try:
        fn(gamma)
    except ValueError as e:
        return str(e)
    return None


def test_check_heights_agrees_with_from_heights():
    # The DPs' check and from_heights reject the same tuples with the same
    # message, a height that is no int and a height above n among them.
    for n in range(5):
        for gamma in product(range(n + 1), repeat=n):
            assert error_of(check_heights, gamma) == \
                error_of(from_heights, gamma)
        for gamma in enumerate_dyck(n):
            if gamma:
                high = gamma[:-1] + (n + 2,)
                assert error_of(check_heights, high) == \
                    error_of(from_heights, high) == \
                    f"height {n + 2} at column {n} exceeds n={n}"
            for i, m in enumerate(gamma):
                for odd in (float(m), m == 1, str(m)):
                    bad = gamma[:i] + (odd,) + gamma[i + 1:]
                    message = (f"height at column {i + 1} is not an "
                               f"integer: {odd!r}")
                    assert error_of(check_heights, bad) == message
                    assert error_of(from_heights, bad) == message


def test_enumerate_dyck_counts_are_catalan():
    for n in range(11):
        assert len(enumerate_dyck(n)) == math.comb(2 * n, n) // (n + 1)


def test_enumerate_dyck_order_and_validity():
    assert enumerate_dyck(0) == [()]
    assert enumerate_dyck(1) == [(1,)]
    assert enumerate_dyck(2) == [(1, 2), (2, 2)]
    assert enumerate_dyck(3) == [
        (1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3)]
    for n in range(7):
        ps = enumerate_dyck(n)
        assert ps == sorted(ps)
        assert len(set(ps)) == len(ps)
        for g in ps:
            assert from_heights(g) == g


def test_enumerators_leave_no_reference_cycles():
    # Each enumerator walks an explicit stack, so what one call makes is
    # freed by reference counting alone.
    calls = ((enumerate_partitions, (6,)), (enumerate_dyck, (4,)),
             (placements, ((2, 3, 3),)),
             (_horizontal_strips.__wrapped__, ((3, 2, 1), 3)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for enumerate_all, args in calls:
            gc.collect()
            assert enumerate_all(*args)
            assert gc.collect() == 0, enumerate_all.__name__
    finally:
        if enabled:
            gc.enable()


def test_area_and_sequence():
    assert area(()) == 0
    assert area((2, 2, 4, 4, 5)) == 2
    assert area_sequence((2, 2, 4, 4, 5)) == (0, 1, 0, 1, 0)
    assert area((5, 5, 5, 5, 5)) == 10
    assert area((1, 2, 3)) == 0
    for n in range(7):
        for g in enumerate_dyck(n):
            assert area(g) == sum(area_sequence(g))


def test_edges_examples():
    assert edges((2, 2, 4, 4, 5)) == {(1, 2), (3, 4)}
    assert edges((2, 3, 5, 6, 6, 6)) == {
        (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)}
    assert edges((1, 2, 3)) == set()
    assert edges(()) == set()


def test_poset_cells_example():
    assert poset_cells((2, 2, 4, 4, 5)) == {
        (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)}
    assert poset_cells((3, 3, 3)) == set()


def test_edges_and_cells_partition_all_pairs():
    for n in range(7):
        for g in enumerate_dyck(n):
            e, c = edges(g), poset_cells(g)
            assert not (e & c)
            assert e | c == {(i, j) for i, j in combinations(range(1, n + 1), 2)}
            assert len(e) == area(g)


def test_concat():
    assert concat((2, 2), (1, 2)) == (2, 2, 3, 4)
    assert concat((), (1,)) == (1,)
    assert concat((1,), ()) == (1,)
    g1, g2 = (2, 3, 3), (2, 2)
    g = concat(g1, g2)
    assert from_heights(g) == g
    n1 = len(g1)
    shifted = {(i + n1, j + n1) for i, j in edges(g2)}
    assert edges(g) == edges(g1) | shifted
    cross = {(i, j + n1) for i in range(1, n1 + 1)
             for j in range(1, len(g2) + 1)}
    assert poset_cells(g) == poset_cells(g1) | {
        (i + n1, j + n1) for i, j in poset_cells(g2)} | cross


def test_reflect_is_an_involution_on_valid_heights():
    # The relabeling v -> n + 1 - v maps the edges of a path's graph onto
    # the edges of its reflection's, and the paths it fixes number
    # C(n, floor(n / 2)).
    assert reflect((2, 2, 4, 4, 5)) == (1, 3, 3, 5, 5)
    assert reflect(()) == ()
    for n in range(10):
        palindromic = 0
        for g in enumerate_dyck(n):
            r = reflect(g)
            assert from_heights(r) == r
            assert reflect(r) == g
            assert area(r) == area(g)
            palindromic += r == g
            if n <= 7:
                assert edges(r) == {(n + 1 - j, n + 1 - i)
                                    for i, j in edges(g)}
        assert palindromic == math.comb(n, n // 2)


def test_complete_path():
    assert complete_path(0) == ()
    assert complete_path(3) == (3, 3, 3)
    k = 4
    g = complete_path(k)
    assert edges(g) == {(i, j) for i, j in combinations(range(1, k + 1), 2)}
    assert poset_cells(g) == set()
    assert area(g) == math.comb(k, 2)


def test_parse_format_heights():
    assert parse_heights("2,2,4,4,5") == (2, 2, 4, 4, 5)
    assert parse_heights("-") == ()
    assert format_heights((2, 3, 3)) == "2,3,3"
    assert format_heights(()) == "-"
    with pytest.raises(ValueError):
        parse_heights("2,1")
    with pytest.raises(ValueError):
        parse_heights("x")


# -- modular triples -----------------------------------------------------------


def _literal_triples(n):
    """Brute-force oracle: scan every ordered triple of paths and test the
    defining conditions verbatim, with no surgery shortcut."""
    paths = enumerate_dyck(n)
    found = set()

    def h(g, i):
        # g(i) with g(0) = 0 and g(n+1) treated as a ceiling no height meets
        if i == 0:
            return 0
        if i > n:
            return n + 1
        return g[i - 1]

    for g0, g1, g2 in product(paths, repeat=3):
        for i in range(1, n + 1):
            # kind 1 at column i
            if (h(g0, i) + 1 == h(g1, i) == h(g2, i) - 1
                    and h(g1, i - 1) < h(g1, i) < h(g1, i + 1)
                    and all(h(g0, c) == h(g1, c) == h(g2, c)
                            for c in range(1, n + 1) if c != i)
                    and h(g1, i) + 1 <= n
                    and h(g1, h(g1, i)) == h(g1, h(g1, i) + 1)):
                found.add(ModularTriple(g0, g1, g2, 1, i))
        for i in range(1, n):
            # kind 2 at column i
            if (h(g1, i) + 1 == h(g1, i + 1)
                    and h(g0, i) == h(g1, i) == h(g2, i) - 1
                    and h(g0, i + 1) + 1 == h(g1, i + 1) == h(g2, i + 1)
                    and all(h(g0, c) == h(g1, c) == h(g2, c)
                            for c in range(1, n + 1) if c not in (i, i + 1))
                    and all(h(g1, c) != i for c in range(1, n + 1))):
                found.add(ModularTriple(g0, g1, g2, 2, i))
    return found


def test_triples_match_literal_oracle():
    for n in range(5):
        assert set(modular_triples(n)) == _literal_triples(n)


def test_triple_counts():
    # n <= 4 confirmed against the literal oracle above; larger n pinned.
    assert [len(modular_triples(n)) for n in range(8)] == \
        [0, 0, 0, 2, 10, 42, 168, 660]


def test_known_triple():
    assert ModularTriple((2, 2, 3), (2, 3, 3), (3, 3, 3), 2, 1) \
        in modular_triples(3)


def test_triple_area_invariant_and_validity():
    for n in range(7):
        paths = set(enumerate_dyck(n))
        for t in modular_triples(n):
            assert t.lower in paths and t.middle in paths and t.upper in paths
            assert area(t.lower) + 1 == area(t.middle) == area(t.upper) - 1
            if t.kind == 1:
                i = t.column
                assert t.lower[i - 1] == t.middle[i - 1] - 1
                assert t.upper[i - 1] == t.middle[i - 1] + 1
            else:
                i = t.column
                assert t.lower[i] == t.middle[i - 1]
                assert t.upper[i - 1] == t.middle[i]


def test_triples_deterministic_order():
    ts = modular_triples(4)
    assert ts == sorted(ts, key=lambda t: (t.middle, t.kind, t.column))
    assert ts == modular_triples(4)
