"""Linked rook placements on the board above a path, their chain structure,
and the free-cell statistic.

A placement is a set of board cells, no two in the same column and no two
in the same row.  Reading a rook in cell (i, j) as "j follows i" partitions
the vertices 1..n into increasing chains; the placement's type is the
partition given by the chain lengths.  The q-weight of a placement is the
number of free cells, and summing q^fc over placements of a fixed type
gives the polynomial at the center of every identity in this package.
"""

from __future__ import annotations

from typing import NamedTuple

from rookhl.dyck import area
from rookhl.partitions import check_partition, multiplicities, nstat
from rookhl.qseries import QLaurent, ZERO, q_factorial, q_power


def placements(gamma: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """All linked rook placements on the board of gamma.

    Each placement is a tuple of (column, row) cells in column order.
    Enumeration backtracks over columns ascending, trying the empty column
    first and then rows ascending, so the order is deterministic.
    """
    n = len(gamma)
    rows_of = [list(range(gamma[i - 1] + 1, n + 1)) for i in range(1, n + 1)]
    out = []
    used = set()
    acc = []

    def rec(i):
        if i > n:
            out.append(tuple(acc))
            return
        rec(i + 1)
        for j in rows_of[i - 1]:
            if j not in used:
                used.add(j)
                acc.append((i, j))
                rec(i + 1)
                acc.pop()
                used.remove(j)

    rec(1)
    return out


def chains(n: int, placement) -> list[tuple[int, ...]]:
    """The increasing chains cut out by a placement on vertices 1..n,
    listed by their smallest element."""
    succ = dict(placement)
    has_pred = set(succ.values())
    out = []
    for start in range(1, n + 1):
        if start in has_pred:
            continue
        ch = [start]
        while ch[-1] in succ:
            ch.append(succ[ch[-1]])
        out.append(tuple(ch))
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


def extended_placement(n: int, placement) -> list[list[tuple[int, int]]]:
    """The literal extended cell sequence of each chain.

    A chain d_1 < ... < d_l contributes alternating diagonal cells and
    rooks: (d_1,d_1), (d_1,d_2), (d_2,d_2), ..., (d_l,d_l), (d_l, n+1),
    the final rook being a phantom above the board.  The rank of the k-th
    cell (1-based) is k // 2.
    """
    out = []
    for ch in chains(n, placement):
        seq = []
        for t, d in enumerate(ch):
            seq.append((d, d))
            nxt = ch[t + 1] if t + 1 < len(ch) else n + 1
            seq.append((d, nxt))
        out.append(seq)
    return out


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


def _free_cells(gamma, placement, gate=True):
    """free_cells, with the column gate optional so that tests can show
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


def free_cells(gamma, placement) -> set[tuple[int, int]]:
    """Board cells strictly below the extended rook of their column whose
    row rank fits under their column rank (weakly from the left, strictly
    from the right)."""
    return _free_cells(gamma, placement)


def fc(gamma, placement) -> int:
    return len(free_cells(gamma, placement))


def r_poly(gamma: tuple[int, ...], mu: tuple[int, ...]) -> QLaurent:
    """Sum of q^fc over placements of type mu on the board of gamma."""
    n = len(gamma)
    if sum(check_partition(mu)) != n:
        raise ValueError(f"type {mu} does not partition {n}")
    return type_polynomials(gamma).get(mu, ZERO)


def type_polynomials(gamma: tuple[int, ...]) -> dict[tuple[int, ...], QLaurent]:
    """r_poly for every type in one enumeration pass.  Types with no
    placement are absent.

    Each placement is scored by one call of free_cells, looked up at call
    time so that it can be replaced; the scores are counted per type and
    each type's polynomial is built once from its counts.
    """
    n = len(gamma)
    hist: dict[tuple[int, ...], dict[int, int]] = {}
    for p in placements(gamma):
        counts = hist.setdefault(placement_type(n, p), {})
        k = len(free_cells(gamma, p))
        counts[k] = counts.get(k, 0) + 1
    out = {}
    for mu, counts in hist.items():
        lo = min(counts)
        out[mu] = QLaurent(lo, [counts.get(k, 0)
                                for k in range(lo, max(counts) + 1)])
    return out


def hl_coefficient(gamma: tuple[int, ...], mu: tuple[int, ...],
                   r: QLaurent | None = None) -> QLaurent:
    """Coefficient of the Hall-Littlewood P indexed by mu in the expansion
    attached to gamma: q^(area - n(mu)) * r_poly * product of [mult]_q!.

    Intermediate factors are Laurent; the result is always an honest
    polynomial.  Pass r to reuse an already-computed r_poly.
    """
    if r is None:
        r = r_poly(gamma, mu)
    poly = q_power(area(gamma) - nstat(mu)) * r
    for m in multiplicities(mu).values():
        poly = poly * q_factorial(m)
    if not poly.is_polynomial():
        raise ValueError(f"coefficient of {mu} for {gamma} is not a "
                         f"polynomial: {poly}")
    return poly


def hl_coefficients(gamma: tuple[int, ...]) -> dict[tuple[int, ...], QLaurent]:
    """hl_coefficient for every type present, from one enumeration pass."""
    return {mu: hl_coefficient(gamma, mu, r)
            for mu, r in type_polynomials(gamma).items()}
