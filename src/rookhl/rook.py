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
Its one premise-checked read is _rook_types, and the P coefficients are
written once, from that read, as ints (_hl_packed).  placements,
placement_type and free_cells list and score placements one by one, for
`rookhl rook --list`; the tests sum them per type as the DP's oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache
from typing import NamedTuple

from rookhl.dyck import area, check_heights
from rookhl.partitions import multiplicities, nstat
from rookhl.qseries import QLaurent, unpack


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
    type with a placement: _rook_types unpacked at n!'s bit length."""
    width = math.factorial(len(gamma)).bit_length()
    return {mu: unpack(hist, width)
            for mu, hist in _rook_types(gamma, width).items()}


@cache
def _set_partitions(mu) -> int:
    """The number of set partitions of 1..n into blocks of sizes mu."""
    return math.factorial(sum(mu)) // math.prod(
        map(math.factorial, (*mu, *multiplicities(mu).values())))


def _rook_types(gamma, bits, types=None) -> dict[tuple[int, ...], int]:
    """{mu: r_mu at q = 2^bits} from _type_polynomials, looked up at call
    time so that tests can put another kernel in its place, or types if
    given (gamma's, read off a longer path's walk), under the premise every
    packed width rests on: a placement of type mu is a set partition of
    1..n into blocks of sizes mu (its chains), so r_mu counts at most
    _set_partitions(mu).  A type that counts more raises ValueError."""
    if types is None:
        types = _type_polynomials(gamma, bits)
    mask = (1 << bits) - 1
    for mu, packed in types.items():
        count = 0
        while packed:
            count += packed & mask
            packed >>= bits
        if count > _set_partitions(mu):
            raise ValueError(f"{count} placements of type {mu} on {gamma}, "
                             f"over its {_set_partitions(mu)} set partitions")
    return types


def _type_polynomials(gamma, width: int, prefix=None):
    """{mu: r_mu at q = 2^width}, vertex by vertex; with prefix = p, for
    0 <= p < n, the pair (the types at the end of row p, those at the
    end), from the one walk.  Row d <= p reads no height past column
    d - 1, so the first are the types of the path gamma[:p].

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
    and a width below n!.bit_length() raises ValueError; nor does type mu
    count more than n!/(prod mu_i! prod m_i!), its chains being a set
    partition of 1..n (_rook_types checks it).  Heights that decrease or
    fall below the diagonal make row d's columns no prefix, and they,
    heights above n and heights that are no ints raise ValueError
    (dyck.check_heights).
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
        if d - 1 == prefix:
            head = _by_type(states)
        met = on
        while gamma[on] < d:    # stops by column d: gamma[d-1] >= d
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
    return _by_type(states) if prefix is None else (head, _by_type(states))


def _by_type(states) -> dict[tuple[int, ...], int]:
    """The DP's states summed by type, their ranks sorted descending."""
    by_type: dict[tuple[int, ...], int] = {}
    for ranks, hist in states.items():
        mu = tuple(sorted(ranks, reverse=True))
        by_type[mu] = by_type.get(mu, 0) + hist
    return by_type


@cache
def _packed_factorials(mu, bits) -> int:
    """The product of [m]_q! over the multiplicities m of mu's parts at
    q = 2^bits, of repunits [t]_q, t = 2..m; memoized for every path."""
    one, out = (1 << bits) - 1, 1
    for m in multiplicities(mu).values():
        for t in range(2, m + 1):
            out *= ((1 << bits * t) - 1) // one
    return out


def _hl_packed(gamma, bits) -> dict[tuple[int, ...], int]:
    """{mu: the coefficient of the Hall-Littlewood P_mu attached to gamma,
    q^(area - n(mu)) r_mu _packed_factorials(mu), at q = 2^bits}.  Under
    _rook_types' premise its coefficients sum to at most n!/prod mu_i!.  A
    shift that drops a nonzero slot (a negative power of q) raises
    ValueError."""
    a = area(gamma)
    out = {}
    for mu, r in _rook_types(gamma, bits).items():
        r, low = r << bits * a, bits * nstat(mu)   # times q^(a - n(mu))
        if r & ((1 << low) - 1):
            raise ValueError(f"coefficient of {mu} for {gamma} has a "
                             f"negative power of q")
        out[mu] = (r >> low) * _packed_factorials(mu, bits)
    return out


def hl_coefficients(gamma: tuple[int, ...]) -> dict[tuple[int, ...], QLaurent]:
    """The coefficient of the Hall-Littlewood P_mu attached to gamma, for
    every type mu present: _hl_packed unpacked at n!'s bit length."""
    width = math.factorial(len(gamma)).bit_length()
    return {mu: unpack(c, width)
            for mu, c in _hl_packed(gamma, width).items()}
