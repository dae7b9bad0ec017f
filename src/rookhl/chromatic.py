"""Coloring and word generating functions of a path's graph.

Vertices are the columns 1..n; the neighbors of a vertex below it form a
contiguous window whose length is the area contribution of that column.
One transfer DP serves the chromatic function X (Shareshian-Wachs ascents
over proper colorings) and the unicellular LLT word sum.  It places one
color class at a time, in increasing color order, so an ascent is counted
when its larger vertex gets a color: exactly the window neighbors that
already hold one are smaller-colored.  The state is the set of vertices
colored so far, and each state carries its exponent histogram packed into
one integer.

One step, _add_class, gives the next color to every state, and one loop
runs it: chromatic_x and llt_poly walk the partitions of n as a trie of
parts, descending for X and ascending for LLT, so partitions with a common
prefix share its states.

The principal specialization, the colorings from 1..k weighted by
q^(ascents + sum of (color - 1)), is read off X's monomial coefficients:
ps_k(X) = sum over la of [m_la]X * m_la(1, q, ..., q^(k-1)) (Stanley,
EC2 7.8).  principal_monomial is the second factor, a memoized pure
function of (la, k), and principal_from_x sums the products for every k
up to a bound, at q = 2^bits, as ints for verify's packed comparison.

The tests compare the trie with a color-by-color driver of the same step,
the DP and the principal route with a vertex-by-vertex recursion over the
windows, and all of them with brute-force product enumerations that know
nothing of windows.
"""

from __future__ import annotations

import math
from functools import cache

from rookhl.dyck import area_sequence, check_heights
from rookhl.qseries import ONE, ZERO, QLaurent, pack, unpack
from rookhl.symfunc import SymFunc


def _windows(gamma) -> list[int]:
    """low[v]: bitmask of the window of vertex v (0-based), its neighbors
    below it.  A window is contiguous only for heights that never decrease
    and never fall below the diagonal, so other heights raise ValueError."""
    check_heights(gamma)
    return [((1 << a) - 1) << (v - a)
            for v, a in enumerate(area_sequence(gamma))]


def _add_class(states, low, cap, later, bits, proper):
    """Give the next color to a class I of the uncolored vertices of every
    state, leaving at most `later` of them to the colors after it.

    states maps the bitmask S of the vertices colored so far to its
    exponent histogram, `bits` bits per exponent e from bit e*bits on, and
    so does the map returned for the vertices colored after it.  Coloring I
    adds popcount(low[w] & S) for each w in I (its window below w holds
    those smaller colors).  |I| runs from what the later colors cannot
    hold up to cap; with proper set, I is independent.
    """
    n = len(low)
    vertices = range(n)
    full = (1 << n) - 1
    grown = {}
    for S, hist in states.items():
        rest = full ^ S
        left = rest.bit_count()
        lo = left - later if left > later else 0
        hi = cap if cap < left else left
        if lo > hi:
            continue
        if lo == left:
            # The later colors can hold nothing more: this class is rest.
            e = 0
            for v in vertices:
                if rest >> v & 1:
                    if proper and low[v] & rest:
                        break
                    e += (low[v] & S).bit_count()
            else:
                grown[full] = grown.get(full, 0) + (hist << bits * e)
            continue
        free = [v for v in vertices if rest >> v & 1]
        # Depth-first over classes I, adding free[t] in increasing t;
        # t stops where too few free vertices remain to reach lo.
        stack = [(0, 0, 0, 0)]
        while stack:
            j, I, m, e = stack.pop()
            if m >= lo:
                T = S | I
                grown[T] = grown.get(T, 0) + (hist << bits * e)
            if m < hi:
                for t in range(j, left - lo + m + 1 if m < lo else left):
                    w = low[free[t]]
                    if proper and w & I:
                        continue
                    stack.append((t + 1, I | 1 << free[t], m + 1,
                                  e + (w & S).bit_count()))
    return grown


def _partition_counts(gamma, proper, ascending) -> dict:
    """{la: coefficient of x^la} over every partition la of n with a
    nonzero coefficient: the labelings (colorings if proper, words if not)
    that use color c exactly la[c-1] times, weighted by q^ascents.

    The partitions are walked as a trie of parts, ascending or descending:
    a node holds the state map after its prefix of parts, and each child
    adds one class to it with _add_class, so partitions with a common
    prefix share its states.  Every state at a node whose prefix sums to s
    has s vertices colored, so the class of a next part p, with n - s - p
    vertices left to the parts after it, has exactly p vertices.  The
    coefficients are symmetric, so the order of the parts does not change
    them.  A leaf, whose parts sum to n, holds only the full set.  A child
    with no state has no labeling below it, and is not walked.  A count
    never exceeds n!, the labelings by any content.
    """
    low = _windows(gamma)
    n = len(low)
    full = (1 << n) - 1
    bits = math.factorial(n).bit_length()
    out = {}

    def walk(states, parts, left):
        if not left:
            la = tuple(sorted(parts, reverse=True))
            out[la] = unpack(states[full], bits)
            return
        if ascending:
            least = parts[-1] if parts else 1
            # A part above left / 2 leaves too little for a larger one.
            sizes = [*range(least, left // 2 + 1), left]
        else:
            sizes = range(min(parts[-1] if parts else n, left), 0, -1)
        for p in sizes:
            grown = _add_class(states, low, p, left - p, bits, proper)
            if grown:
                walk(grown, parts + (p,), left - p)

    walk({0: 1}, (), n)
    return out


def chromatic_x(gamma) -> SymFunc:
    """The full coloring generating function in the monomial basis, from
    one walk of the partition trie with the parts descending."""
    return SymFunc._trusted(
        len(gamma), "monomial",
        _partition_counts(gamma, proper=True, ascending=False))


def llt_poly(gamma) -> SymFunc:
    """The full word generating function in the monomial basis, from one
    walk of the partition trie with the parts ascending."""
    return SymFunc._trusted(
        len(gamma), "monomial",
        _partition_counts(gamma, proper=False, ascending=True))


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


@cache
def _packed_monomial(la, k, bits) -> int:
    return pack(principal_monomial(la, k), bits)


def principal_from_x(coeffs, alpha_max: int, bits: int) -> list[int]:
    """ps_k(X) at q = 2^bits for k = 0..alpha_max, where coeffs holds X's
    monomial coefficients: the sum over la of [m_la]X times
    principal_monomial(la, k), both packed by qseries.pack.

    A partition with more than alpha_max parts adds nothing at any k, and
    is left out.  pack raises ValueError on a coefficient it cannot hold,
    so bits must exceed every coefficient's bit length by one; ps_k at
    q = 1 bounds every coefficient of X and of m_la that it reads, since
    all of them are nonnegative.
    """
    if alpha_max < 0:
        raise ValueError("colors must be nonnegative")
    terms = [(la, pack(c, bits)) for la, c in coeffs.items()
             if len(la) <= alpha_max]
    return [sum(x * _packed_monomial(la, k, bits) for la, x in terms)
            for k in range(alpha_max + 1)]


def principal_direct(gamma, colors: int) -> QLaurent:
    """Sum of q^(ascents + sum of (color - 1)) over proper colorings with
    colors drawn from 1..colors, from X's monomial coefficients.  No
    coefficient exceeds colors^n, the number of labelings."""
    bits = (colors ** len(gamma)).bit_length() + 1
    value = principal_from_x(chromatic_x(gamma).coeffs, colors, bits)[colors]
    return unpack(value, bits)
