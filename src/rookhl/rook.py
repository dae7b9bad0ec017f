"""Linked rook placements on the board above a path, their chain structure,
and the free-cell statistic.

A placement is a set of board cells, no two in the same column and no two
in the same row.  Reading a rook in cell (i, j) as "j follows i" partitions
the vertices 1..n into increasing chains; the placement's type is the
partition given by the chain lengths.  The q-weight of a placement is the
number of free cells, and summing q^fc over placements of a fixed type
gives the polynomial at the center of every identity in this package.

type_polynomials computes those sums without listing a placement: a
transfer DP places the vertices one at a time, keeping only the ranks of
the chains' open ends, and scores each row of free cells as soon as its
vertex joins a chain.  placements, placement_type and free_cells list and
score placements one by one, for `rookhl rook --list`; the tests sum them
per type as the DP's oracle.
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
    # Depth-first over columns, from an explicit stack: a column's choices
    # are pushed last row first and the empty column last, so they pop in
    # the order above.  `used` is the bitmask of the rows taken.
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
    """Chain lengths, sorted descending: a partition of n."""
    succ = [0] * (n + 1)
    for i, j in placement:
        succ[i] = j
    # length[d] counts the vertices from d to the end of its chain.  It is
    # filled from the top down, as succ[d] > d, and cleared once counted
    # into its predecessor's, so only chain starts keep a length.
    length = [1] * (n + 1)
    for d in range(n, 0, -1):
        j = succ[d]
        if j:
            length[d] = length[j] + 1
            length[j] = 0
    return tuple(sorted(filter(None, length[1:]), reverse=True))


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


def free_cells(gamma, placement, gate=True) -> set[tuple[int, int]]:
    """Board cells strictly below the extended rook of their column whose
    row rank fits under their column rank (weakly from the left, strictly
    from the right).  The column gate is optional so that tests can show
    what its removal breaks."""
    n = len(gamma)
    col_rank, col_top, row_rank, row_left = rank_tables(n, placement)
    free = set()
    for i in range(1, n + 1):
        a = col_rank[i]
        for j in range(gamma[i - 1] + 1, col_top[i] if gate else n + 1):
            b = row_rank[j]
            left = row_left[j]
            if (i < left and b <= a) or (left < i and b < a):
                free.add((i, j))
    return free


def type_polynomials(gamma: tuple[int, ...]) -> dict[tuple[int, ...], QLaurent]:
    """The sum of q^fc over the placements of each type, r_mu, for every
    type in one pass of the transfer DP.  Types with no placement are
    absent.

    The DP is _type_polynomials, looked up at call time so that it can be
    replaced with its column gate off.
    """
    return _type_polynomials(gamma)


def _type_polynomials(gamma, gate=True):
    """Sum q^fc over the placements of each type, vertex by vertex.

    A state lists the ranks (chain positions) of the open vertices, those
    placed that no vertex follows yet.  Vertex d starts a chain (rank 1) or
    follows an open vertex i of its row (gamma[i-1] < d), taking
    rank(i) + 1 and closing i.  Row d's columns are 1..on, and on never
    decreases, so every vertex an earlier row closed is among them: row
    d's open columns are the first m = on - (d - 1 - len(state)) entries.
    With left = i (or d for a new chain) and b = rank(d) - 1, the cell
    (j, d) of an open column j is free iff j < left and b <= rank(j), or
    left < j and b < rank(j): the rule of free_cells read row by row.  With
    the gate off a closed column keeps scoring, so it stays in the state
    with its rank negated, and m = on.

    Each state maps to its fc histogram packed into one int, `width` bits
    per fc value, and states that agree merge them.  A count never exceeds
    n!, the number of choice sequences, so slots never carry.  A final
    state's type is its sorted positive ranks, the lengths of its chains.

    Reading row d's columns as a prefix needs heights that never decrease
    and never fall below the diagonal, so any other heights raise
    ValueError (dyck.check_heights, which the coloring DP shares).
    Heights above n are accepted: they only close columns.
    """
    check_heights(gamma)
    n = len(gamma)
    width = math.factorial(n).bit_length()
    states = {(): 1}
    on = 0      # row d meets columns 1..on, as gamma is weakly increasing
    for d in range(1, n + 1):
        while on < d - 1 and gamma[on] < d:
            on += 1
        nxt = {}
        for ranks, hist in states.items():
            m = on - (d - 1 - len(ranks))
            row = ranks[:m] if gate else tuple(map(abs, ranks[:m]))
            ordered = sorted(row)
            # Starting a chain, b = 0: every scoring column's cell is free.
            key = ranks + (1,)
            nxt[key] = nxt.get(key, 0) + (hist << width * m)
            for p in range(m):
                b = ranks[p]
                if b > 0:
                    # Columns ranked above b, and those ranked b left of p.
                    free = m - bisect_right(ordered, b) + row[:p].count(b)
                    key = (ranks[:p] + (() if gate else (-b,)) + ranks[p + 1:]
                           + (b + 1,))
                    nxt[key] = nxt.get(key, 0) + (hist << width * free)
        states = nxt
    by_type: dict[tuple[int, ...], int] = {}
    for ranks, hist in states.items():
        mu = tuple(sorted((r for r in ranks if r > 0), reverse=True))
        by_type[mu] = by_type.get(mu, 0) + hist
    return {mu: unpack(hist, width) for mu, hist in by_type.items()}


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
