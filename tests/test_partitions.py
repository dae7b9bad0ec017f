import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from rookhl.partitions import (
    enumerate_partitions, conjugate, nstat, multiplicities,
    parse_partition, format_partition, is_partition, check_partition,
)
from reference import dominance_leq, is_vertical_strip


@st.composite
def partitions(draw, max_size=9):
    n = draw(st.integers(min_value=0, max_value=max_size))
    opts = enumerate_partitions(n)
    return opts[draw(st.integers(min_value=0, max_value=len(opts) - 1))]


def test_counts_match_partition_numbers():
    # p(0)..p(12)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, p_n in enumerate(expected):
        assert len(enumerate_partitions(n)) == p_n


def test_order_is_reverse_lex():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(4) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert enumerate_partitions(5) == [
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
        (1, 1, 1, 1, 1)]
    for n in range(9):
        ps = enumerate_partitions(n)
        assert ps == sorted(ps, reverse=True)
        assert all(sum(la) == n and is_partition(la) for la in ps)


@given(partitions())
def test_conjugate_is_involution(la):
    assert conjugate(conjugate(la)) == la
    assert sum(conjugate(la)) == sum(la)


def test_conjugate_values():
    assert conjugate(()) == ()
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate((2, 2, 1)) == (3, 2)


def test_nstat_values():
    assert nstat(()) == 0
    assert nstat((3, 2)) == 2
    assert nstat((1, 1, 1, 1)) == 6
    assert nstat((5,)) == 0


@given(partitions())
def test_nstat_equals_column_binomials(la):
    # n(la) counts, in each column of the diagram, pairs of cells.
    assert nstat(la) == sum(math.comb(c, 2) for c in conjugate(la))


def test_multiplicities():
    m = multiplicities((3, 2, 2, 1))
    assert m[2] == 2 and m[3] == 1 and m[1] == 1 and m[7] == 0
    assert multiplicities(()) == {}


def test_dominance():
    assert dominance_leq((1, 1, 1), (3,))
    assert dominance_leq((2, 1), (3,))
    assert not dominance_leq((3,), (2, 1))
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    assert dominance_leq((4,), (4,))
    with pytest.raises(ValueError):
        dominance_leq((2,), (3,))


def test_enumeration_order_refines_dominance():
    # If mu is strictly dominated by la then la is listed before mu.
    for n in range(8):
        ps = enumerate_partitions(n)
        pos = {la: i for i, la in enumerate(ps)}
        for la, mu in combinations(ps, 2):
            if dominance_leq(mu, la):
                assert pos[la] < pos[mu]


def test_vertical_strips():
    assert is_vertical_strip((2, 1), (2,))
    assert is_vertical_strip((2, 2), (2, 1))
    assert is_vertical_strip((3, 1), (2,))
    assert not is_vertical_strip((3,), (1,))       # a row grows by 2
    assert not is_vertical_strip((2,), (2, 1))     # mu not inside nu
    assert is_vertical_strip((1, 1, 1), ())
    assert is_vertical_strip((3, 2), (3, 2))
    assert not is_vertical_strip((4, 2), (2, 2))


@given(partitions(), partitions())
def test_vertical_strip_via_conjugate_interlacing(nu, mu):
    # nu/mu is a vertical strip iff the conjugates interlace:
    # nu'_i >= mu'_i >= nu'_{i+1} for all i.
    nc, mc = conjugate(nu), conjugate(mu)

    def at(t, i):
        return t[i] if i < len(t) else 0

    interlaced = all(
        at(nc, i) >= at(mc, i) >= at(nc, i + 1)
        for i in range(max(len(nc), len(mc)) + 1))
    assert is_vertical_strip(nu, mu) == interlaced


def test_parse_and_format():
    assert parse_partition("3,2") == (3, 2)
    assert parse_partition("-") == ()
    assert parse_partition("") == ()
    assert parse_partition(" 4,4,1 ") == (4, 4, 1)
    assert format_partition((3, 2)) == "3,2"
    assert format_partition(()) == "-"
    with pytest.raises(ValueError):
        parse_partition("2,3")
    with pytest.raises(ValueError):
        parse_partition("a,b")
    with pytest.raises(ValueError):
        parse_partition("3,0")


@given(partitions())
def test_parse_format_round_trip(la):
    assert parse_partition(format_partition(la)) == la


def test_check_partition():
    assert check_partition((2, 1)) == (2, 1)
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition([2, 1])
    assert not is_partition((True,))
    with pytest.raises(ValueError):
        check_partition((2, True))
