"""Test oracle for the type polynomials: every placement listed, its chains
read off, and its free cells scored one by one.

The package sums q^fc per type with a transfer DP over the vertices; here
the sums are taken over the enumeration, the way the package took them
before the DP.
"""

from rookhl.qseries import QLaurent
from rookhl.rook import free_cells, placement_type, placements


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


def enumerated_type_polynomials(gamma, gate=True):
    """Sum q^fc over the placements of each type, one placement at a time.
    Types with no placement are absent."""
    n = len(gamma)
    hist: dict[tuple[int, ...], dict[int, int]] = {}
    for p in placements(gamma):
        counts = hist.setdefault(placement_type(n, p), {})
        k = len(free_cells(gamma, p, gate))
        counts[k] = counts.get(k, 0) + 1
    out = {}
    for mu, counts in hist.items():
        lo = min(counts)
        out[mu] = QLaurent(lo, [counts.get(k, 0)
                                for k in range(lo, max(counts) + 1)])
    return out
