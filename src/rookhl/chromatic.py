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
histogram is packed into one integer.

The principal specialization, the colorings from 1..k weighted by
q^(ascents + sum of (color - 1)), is read off X's monomial coefficients:
ps_k(X) = sum over la of [m_la]X * m_la(1, q, ..., q^(k-1)) (Stanley,
EC2 7.8).  principal_monomial is the second factor, a memoized pure
function of (la, k), and principal_direct sums the products.

The tests compare the recursion with the color-by-color class DP of
tests/class_dp.py, that DP and the principal specialization with a
vertex-by-vertex recursion over the windows, and all of them with
brute-force product enumerations that know nothing of windows.
"""

from __future__ import annotations

import math
from functools import cache

from rookhl.dyck import area_sequence, check_heights
from rookhl.qseries import ONE, ZERO, QLaurent, unpack
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


def _coloring_coeffs(gamma, proper) -> dict:
    """_induced_counts for gamma, unpacked into a fresh dict, so no caller
    can change the memo.  One width serves every size up to 20 (20! <
    2^64); a larger top size keys its own entries.  A window is contiguous
    only for heights that never decrease and never fall below the
    diagonal, so other heights, and heights that are no ints, raise
    ValueError (dyck.check_heights)."""
    check_heights(gamma)
    bits = max(64, math.factorial(len(gamma)).bit_length())
    return {la: unpack(hist, bits) for la, hist in
            _induced_counts(area_sequence(gamma), proper, bits)}


def chromatic_x(gamma) -> SymFunc:
    """The full coloring generating function in the monomial basis."""
    return SymFunc._trusted(len(gamma), "monomial",
                            _coloring_coeffs(gamma, proper=True))


def llt_poly(gamma) -> SymFunc:
    """The full word generating function in the monomial basis."""
    return SymFunc._trusted(len(gamma), "monomial",
                            _coloring_coeffs(gamma, proper=False))


@cache
def principal_monomial(la, k) -> QLaurent:
    """m_la(1, q, ..., q^(k-1)): the parts of la placed in k positions
    0..k-1, at most one per position, part p at position i weighing
    q^(i*p), and equal parts not told apart.

    The last position holds no part or one part of each distinct size.  A
    pure function of its arguments, so it is memoized: a sweep asks for the
    same (la, k) on every path of a size.
    """
    if not la:
        return ONE
    if k < len(la):
        return ZERO
    total = principal_monomial(la, k - 1)
    for i, p in enumerate(la):
        if i == 0 or la[i - 1] != p:
            rest = la[:i] + la[i + 1:]
            total = total + principal_monomial(rest, k - 1).shift((k - 1) * p)
    return total


def principal_direct(gamma, colors: int) -> QLaurent:
    """Sum of q^(ascents + sum of (color - 1)) over proper colorings with
    colors drawn from 1..colors, from X's monomial coefficients."""
    if colors < 0:
        raise ValueError("colors must be nonnegative")
    return sum((c * principal_monomial(la, colors)
                for la, c in chromatic_x(gamma).coeffs.items()), ZERO)
