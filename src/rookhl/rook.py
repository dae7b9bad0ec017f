"""Linked rook placements on the board above a path, their chain structure,
and the free-cell statistic.

A placement is a set of board cells, no two in the same column and no two
in the same row.  Reading a rook in cell (i, j) as "j follows i" partitions
the vertices 1..n into increasing chains; the placement's type is the
partition given by the chain lengths.  The q-weight of a placement is the
number of free cells, and summing q^fc over placements of a fixed type
gives the polynomial at the center of every identity in this package.

type_polynomials computes those sums without listing a placement: a
transfer DP (_type_polynomials, packed at the caller's width) places the
vertices one at a time, keeping only the ranks of the chains' open ends,
and scores each row of free cells as soon as its vertex joins a chain.
placements, placement_type and free_cells list and score placements one
by one, for `rookhl rook --list`; the tests sum them per type as the DP's
oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache
from typing import NamedTuple

from rookhl.dyck import area, check_heights
from rookhl.partitions import multiplicities, nstat
from rookhl.qseries import QLaurent, ONE, q_factorial, unpack


def placements(gamma: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """All linked rook placements on the board of gamma.

    Each placement is a tuple of (column, row) cells in column order.
    Enumeration backtracks over columns ascending, trying the empty column
    first and then rows ascending, so the order is deterministic.
    """
    # Depth-first from a stack, each column's choices pushed in reverse
    # order; `used` is the bitmask of the rows taken.
    n = len(gamma)
    out = []
    stack = [(1, (), 0)]
    while stack:
        i, acc, used = stack.pop()
        if i > n:
            out.append(acc)
            continue
        for j in range(n, gamma[i - 1], -1):
            if not used >> j & 1:
                stack.append((i + 1, acc + ((i, j),), used | 1 << j))
        stack.append((i + 1, acc, used))
    return out


def placement_type(n: int, placement) -> tuple[int, ...]:
    """Chain lengths, sorted descending: a partition of n.  A chain ends in
    the one vertex with no rook above it, ranked by the chain's length."""
    col_rank, col_top, _, _ = rank_tables(n, placement)
    return tuple(sorted((col_rank[d] for d in range(1, n + 1)
                         if col_top[d] > n), reverse=True))


class RankTables(NamedTuple):
    """Per-column and per-row rank data read off a placement's chains.

    Each field is a list indexed by vertex 1..n; slot 0 is unused.

    col_rank[i]  rank of the extended rook in column i
    col_top[i]   row of that rook: the chain successor of i, or n+1
    row_rank[j]  rank of the leftmost extended cell in row j
    row_left[j]  column of that cell: the chain predecessor of j, or j
    """
    col_rank: list[int]
    col_top: list[int]
    row_rank: list[int]
    row_left: list[int]


def rank_tables(n: int, placement) -> RankTables:
    """Rank tables in one pass over the vertices.  Every rook (i, j) has
    i < j, so a vertex's predecessor is ranked before the vertex."""
    col_top = [n + 1] * (n + 1)
    row_left = list(range(n + 1))
    for i, j in placement:
        col_top[i] = j
        row_left[j] = i
    col_rank = [0] * (n + 1)
    for d in range(1, n + 1):
        left = row_left[d]
        col_rank[d] = col_rank[left] + 1 if left != d else 1
    row_rank = [0] + [r - 1 for r in col_rank[1:]]
    return RankTables(col_rank, col_top, row_rank, row_left)


def free_cells(gamma, placement) -> set[tuple[int, int]]:
    """Board cells strictly below the extended rook of their column whose
    row rank fits under their column rank (weakly from the left, strictly
    from the right)."""
    n = len(gamma)
    col_rank, col_top, row_rank, row_left = rank_tables(n, placement)
    free = set()
    for i in range(1, n + 1):
        a = col_rank[i]
        for j in range(gamma[i - 1] + 1, col_top[i]):
            b = row_rank[j]
            left = row_left[j]
            if (i < left and b <= a) or (left < i and b < a):
                free.add((i, j))
    return free


def type_polynomials(gamma: tuple[int, ...]) -> dict[tuple[int, ...], QLaurent]:
    """The sum of q^fc over the placements of each type, r_mu, for every
    type with a placement, from one pass of _type_polynomials at its own
    width.  The DP is looked up at call time, so that tests can put
    another kernel in its place."""
    width = math.factorial(len(gamma)).bit_length()
    return {mu: unpack(hist, width)
            for mu, hist in _type_polynomials(gamma, width).items()}


def _type_polynomials(gamma, width: int) -> dict[tuple[int, ...], int]:
    """{mu: r_mu at q = 2^width}, vertex by vertex.

    A state holds the ranks (chain positions) of the open vertices, those
    no vertex follows yet.  Vertex d starts a chain (rank 1) or follows an
    open vertex i of its row (gamma[i-1] < d), taking rank(i) + 1 and
    closing i.  Row d meets columns 1..on, and on never decreases, so a
    state is one tuple: the open met columns' ranks as a sorted multiset,
    then the unmet vertices' in order, sorted in on the row that meets
    them.  By free_cells's rule, a new chain frees the cell of every open
    met column, and following one of the c columns ranked b those ranked
    above b and the tied ones to its left, 0 to c - 1 of them: the c
    choices leave one multiset, and one transition adds them, times [c]_q.

    Each state's fc histogram is one int, `width` bits per fc value.  No
    count exceeds n!, the number of choice sequences, so slots never carry
    and a width below n!.bit_length() raises ValueError.  Heights that
    decrease or fall below the diagonal make row d's columns no prefix and
    raise ValueError (dyck.check_heights); heights above n only close
    columns.
    """
    check_heights(gamma)
    n = len(gamma)
    if width < math.factorial(n).bit_length():
        raise ValueError(f"{width} bits cannot hold {n}! placements")
    spread = [((1 << width * c) - 1) // ((1 << width) - 1)    # [c]_q
              for c in range(n + 1)]
    states = {(): 1}
    on = 0      # row d meets columns 1..on, as gamma is weakly increasing
    for d in range(1, n + 1):
        met = on
        while on < d - 1 and gamma[on] < d:
            on += 1
        tail = d - 1 - on
        if on > met:
            # Tail vertices joined the met columns: sort the multiset again.
            merged = {}
            for ranks, hist in states.items():
                m = len(ranks) - tail
                key = tuple(sorted(ranks[:m])) + ranks[m:]
                merged[key] = merged.get(key, 0) + hist
            states = merged
        nxt = {}
        for ranks, hist in states.items():
            m = len(ranks) - tail
            # Starting a chain, b = 0: every open met column's cell is free.
            key = ranks + (1,)
            nxt[key] = nxt.get(key, 0) + (hist << width * m)
            i = 0
            while i < m:
                # ranks[i:j] is the run of the c = j - i columns ranked b.
                b = ranks[i]
                j = bisect_right(ranks, b, i + 1, m)
                key = ranks[:i] + ranks[i + 1:] + (b + 1,)
                nxt[key] = (nxt.get(key, 0)
                            + (hist << width * (m - j)) * spread[j - i])
                i = j
        states = nxt
    by_type: dict[tuple[int, ...], int] = {}
    for ranks, hist in states.items():
        mu = tuple(sorted(ranks, reverse=True))
        by_type[mu] = by_type.get(mu, 0) + hist
    return by_type


@cache
def mult_factorials(mu: tuple[int, ...]) -> QLaurent:
    """The product of [m]_q! over the multiplicities m of the parts of mu,
    memoized: every path of a size asks for the same types."""
    poly = ONE
    for m in multiplicities(mu).values():
        poly = poly * q_factorial(m)
    return poly


def hl_coefficients(gamma: tuple[int, ...]) -> dict[tuple[int, ...], QLaurent]:
    """The coefficient of the Hall-Littlewood P_mu in the expansion attached
    to gamma, q^(area - n(mu)) r_mu mult_factorials(mu), for every type mu
    present, from one pass of the DP.

    The shift alone may leave negative powers of q; the product is always
    an honest polynomial, and one that is not raises ValueError.
    """
    a = area(gamma)
    out = {}
    for mu, r in type_polynomials(gamma).items():
        poly = r.shift(a - nstat(mu)) * mult_factorials(mu)
        if not poly.is_polynomial():
            raise ValueError(f"coefficient of {mu} for {gamma} is not a "
                             f"polynomial: {poly}")
        out[mu] = poly
    return out
