"""Test oracles for the type polynomials: every placement listed, its chains
read off, and its free cells scored one by one; the free-cell rule read
literally; and the ordered transfer DP.  The literal rule and the ordered
DP both take a column gate, which the negative controls turn off: the
package has none.

The package sums q^fc per type with a transfer DP over the vertices that
keeps its met columns as a multiset; here the sums are taken over the
enumeration, the way the package took them before any DP, and by the DP
the package ran before the multiset one.
"""

import math
from bisect import bisect_right

from rookhl.dyck import check_heights
from rookhl.qseries import QLaurent
from rookhl.rook import free_cells, placement_type, placements
from reference import poset_cells


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


def fc(gamma, placement) -> int:
    return len(free_cells(gamma, placement))


def oracle_free_cells(gamma, p, gate=True):
    """The free-cell rule read literally: ranks from the chains, cells from
    the whole board, each looked up in dicts.  Independent of the one-pass
    rank tables that free_cells uses.  With the gate off, a cell at or
    above the rook of its column may be free too."""
    n = len(gamma)
    succ = dict(p)
    pred = {j: i for i, j in p}
    pos = {d: t for ch in chains(n, p) for t, d in enumerate(ch, start=1)}
    free = set()
    for (i, j) in poset_cells(gamma):
        if gate and succ.get(i, n + 1) <= j:
            continue
        a, b, left = pos[i], pos[j] - 1, pred.get(j, j)
        if (i < left and b <= a) or (left < i and b < a):
            free.add((i, j))
    return free


def enumerated_type_polynomials(gamma, gate=True):
    """Sum q^fc over the placements of each type, one placement at a time,
    scored by the package's free_cells, or with the gate off by the
    literal rule.  Types with no placement are absent."""
    n = len(gamma)
    hist: dict[tuple[int, ...], dict[int, int]] = {}
    for p in placements(gamma):
        counts = hist.setdefault(placement_type(n, p), {})
        k = len(free_cells(gamma, p) if gate
                else oracle_free_cells(gamma, p, gate=False))
        counts[k] = counts.get(k, 0) + 1
    out = {}
    for mu, counts in hist.items():
        lo = min(counts)
        out[mu] = QLaurent(lo, [counts.get(k, 0)
                                for k in range(lo, max(counts) + 1)])
    return out


def ordered_type_polynomials(gamma, width, gate=True):
    """rook._type_polynomials with each state's open vertices in vertex
    order, one transition per open column, and the column gate optional.

    A state lists the ranks of the open vertices in vertex order; row d's
    open columns are its first m = on - (d - 1 - len(state)) entries, and
    following the one at position p scores the columns ranked above its
    rank b, plus those ranked b left of p.  With the gate off a closed
    column keeps scoring, so it stays in the state with its rank negated,
    and m = on.  It is rook._type_polynomials's seam, so the negative
    controls put it in that kernel's place with gate=False.
    """
    check_heights(gamma)
    n = len(gamma)
    if width < math.factorial(n).bit_length():
        raise ValueError(f"{width} bits cannot hold up to {n}! placements")
    states = {(): 1}
    on = 0
    for d in range(1, n + 1):
        while on < d - 1 and gamma[on] < d:
            on += 1
        nxt = {}
        for ranks, hist in states.items():
            m = on - (d - 1 - len(ranks))
            row = ranks[:m] if gate else tuple(map(abs, ranks[:m]))
            ordered = sorted(row)
            key = ranks + (1,)
            nxt[key] = nxt.get(key, 0) + (hist << width * m)
            for p in range(m):
                b = ranks[p]
                if b > 0:
                    free = m - bisect_right(ordered, b) + row[:p].count(b)
                    key = (ranks[:p] + (() if gate else (-b,)) + ranks[p + 1:]
                           + (b + 1,))
                    nxt[key] = nxt.get(key, 0) + (hist << width * free)
        states = nxt
    by_type = {}
    for ranks, hist in states.items():
        mu = tuple(sorted((r for r in ranks if r > 0), reverse=True))
        by_type[mu] = by_type.get(mu, 0) + hist
    return by_type
