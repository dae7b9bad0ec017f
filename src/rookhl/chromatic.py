"""Coloring and word generating functions of a path's graph.

Vertices are the columns 1..n; the neighbors of a vertex below it form a
contiguous window whose length is the area contribution of that column.
One memoized recursion serves the chromatic function X (Shareshian-Wachs
ascents over proper colorings) and the unicellular LLT word sum.  It takes
color 1 to be a class I of the smallest part's size, an independent set
for X and any vertex set for LLT, and leaves the rest to the path induced
on the other vertices, where each vertex keeps the part of its window
outside I.  The recursion is memoized on that path's area sequence, so the
paths of a sweep share every induced path they meet, and each coefficient
histogram is packed into one integer at the width its caller asks for.
_coloring_ints is the one read of it, each coefficient checked against
its premise, the words of its content: chromatic_x and llt_poly unpack
it, and verify's main and principal compare its ints as they stand.

The principal specialization, the colorings from 1..k weighted by
q^(ascents + sum of (color - 1)), is read off X's monomial coefficients:
ps_k(X) = sum over la of [m_la]X * m_la(1, q, ..., q^(k-1)) (Stanley,
EC2 7.8).  _packed_monomial builds the second factor as an int, a
memoized pure function of (la, k) and the width, principal_monomial
unpacks it, and principal_direct sums the products.

The tests compare the recursion with the color-by-color class DP of
tests/class_dp.py, that DP and the principal specialization with a
vertex-by-vertex recursion over the windows, and all of them with
brute-force product enumerations that know nothing of windows.
"""

from __future__ import annotations

import math
from functools import cache

from rookhl.dyck import area_sequence, check_heights
from rookhl.partitions import enumerate_partitions
from rookhl.qseries import ZERO, QLaurent, slot_sum, unpack
from rookhl.symfunc import SymFunc


@cache
def _induced_counts(aseq, proper, bits) -> list:
    """[(la, histogram)] over every partition la of n with a nonzero
    coefficient, for the path with area sequence aseq: the labelings
    (colorings if proper, words if not) that use color c exactly la[c-1]
    times, by ascents, packed `bits` bits per exponent from bit e*bits on.
    The list runs by decreasing smallest part, so a reader of the entries
    whose smallest part is at least p stops at the first below it.

    The coefficients are symmetric in the order of the parts, so color 1
    may take the smallest part p of la.  Its class I has p vertices, an
    independent set if proper, and each window edge u < w with u in I and
    w outside it is an ascent.  The rest is labeled as the path induced on
    the vertices outside I: relabeled in order, w keeps the part of its
    window outside I, again a window.  So la's count sums, over every such
    I, q^ascents times the induced path's count for la minus p, an entry
    whose smallest part is at least p: every la is built once, from its
    smallest part.  Memoized on the area sequence, so every path shares
    the induced paths it meets with every other.  No count exceeds n!,
    the labelings by any content.
    """
    n = len(aseq)
    if not n:
        return [((), 1)]
    low = [((1 << a) - 1) << (v - a) for v, a in enumerate(aseq)]
    # The whole vertex set is one class, a part n.  Any other part p leaves
    # n - p to parts of at least p, so p <= n / 2.
    out = {} if proper and any(aseq) else {(n,): 1}
    # Depth-first over the classes I, each vertex u added after those in
    # I, and with proper set only if I holds none of u's window.
    stack = [(0, 0, 0)]
    while stack:
        first, I, p = stack.pop()
        if p < n // 2:
            for u in range(first, n):
                if not (proper and low[u] & I):
                    stack.append((u + 1, I | 1 << u, p + 1))
        if not p:
            continue
        rest, e = [], 0
        for w, a in enumerate(aseq):
            if not I >> w & 1:
                k = (low[w] & I).bit_count()
                rest.append(a - k)
                e += k
        for la, hist in _induced_counts(tuple(rest), proper, bits):
            if la[-1] < p:
                break
            key = la + (p,)
            out[key] = out.get(key, 0) + (hist << bits * e)
    return sorted(out.items(), key=lambda item: -item[0][-1])


@cache
def _words(la) -> int:
    """The words of content la, n!/prod la_i!: the premise every width
    that X and LLT are read at rests on, since la's coefficient counts at
    most these labelings at q = 1 (LLT's counts all of them)."""
    return math.factorial(sum(la)) // math.prod(map(math.factorial, la))


@cache
def _partitions(n: int) -> frozenset:
    """The partitions of n, as a set."""
    return frozenset(enumerate_partitions(n))


def _coloring_ints(gamma, proper, bits) -> dict:
    """{la: la's coefficient at q = 2^bits} for X if proper, else for the
    LLT word function: _induced_counts at the caller's width, looked up at
    call time so that tests can put another recursion in its place, in a
    fresh dict, so no caller can change the memo.

    Each coefficient is read under its premise: it counts at most the
    _words(la) labelings of content la, so its slots sum to at most that,
    and one that sums past it raises ValueError, as does a key that is no
    partition of n.  No count passes n!, so a width that cannot hold n!
    raises too.  A window is contiguous only for heights that never
    decrease, never fall below the diagonal and never pass n, so other
    heights, and heights that are no ints, raise ValueError
    (dyck.check_heights)."""
    check_heights(gamma)
    n = len(gamma)
    if math.factorial(n) >> bits:
        raise ValueError(f"{bits} bits cannot hold {n}! labelings")
    parts = _partitions(n)
    out = {}
    for la, hist in _induced_counts(area_sequence(gamma), proper, bits):
        if la not in parts:
            raise ValueError(f"coloring side of degree {n} has a "
                             f"coefficient at {la}, not a partition of {n}")
        count = slot_sum(hist, bits)
        if count > _words(la):
            raise ValueError(f"{count} labelings of content {la} on "
                             f"{gamma}, over its {_words(la)} words")
        out[la] = hist
    return out


def _monomial_function(gamma, proper) -> SymFunc:
    """_coloring_ints unpacked into the monomial basis.  One width serves
    every size up to 20 (20! < 2^64); a larger size keys its own
    entries."""
    bits = max(64, math.factorial(len(gamma)).bit_length())
    return SymFunc._trusted(len(gamma), "monomial", {
        la: unpack(hist, bits)
        for la, hist in _coloring_ints(gamma, proper, bits).items()})


def chromatic_x(gamma) -> SymFunc:
    """The full coloring generating function in the monomial basis."""
    return _monomial_function(gamma, proper=True)


def llt_poly(gamma) -> SymFunc:
    """The full word generating function in the monomial basis."""
    return _monomial_function(gamma, proper=False)


@cache
def _packed_monomial(la, k, bits) -> int:
    """m_la(1, q, ..., q^(k-1)) at q = 2^bits: the parts of la placed in k
    positions 0..k-1, at most one per position, part p at position i
    weighing q^(i*p), and equal parts not told apart.  Its coefficients
    are nonnegative and sum to m_la(1^k) <= k^l(la), so no slot carries
    while that is below 2^bits.

    The last position holds no part or one part of each distinct size.  A
    pure function of its arguments, so it is memoized: a sweep asks for the
    same (la, k) on every path of a size.
    """
    if not la:
        return 1
    if k < len(la):
        return 0
    total = _packed_monomial(la, k - 1, bits)
    for i, p in enumerate(la):
        if i == 0 or la[i - 1] != p:
            rest = la[:i] + la[i + 1:]
            total += _packed_monomial(rest, k - 1, bits) << bits * (k - 1) * p
    return total


def principal_monomial(la, k) -> QLaurent:
    """m_la(1, q, ..., q^(k-1)): _packed_monomial unpacked at the bit
    length of k^l(la), which holds every coefficient."""
    bits = max(1, (k ** len(la)).bit_length())
    return unpack(_packed_monomial(la, k, bits), bits)


def principal_direct(gamma, colors: int) -> QLaurent:
    """Sum of q^(ascents + sum of (color - 1)) over proper colorings with
    colors drawn from 1..colors, from X's monomial coefficients."""
    if colors < 0:
        raise ValueError("colors must be nonnegative")
    return sum((c * principal_monomial(la, colors)
                for la, c in chromatic_x(gamma).coeffs.items()), ZERO)
