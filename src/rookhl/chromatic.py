"""Coloring and word generating functions of a path's graph.

Vertices are the columns 1..n; the neighbors of a vertex below it form a
contiguous window whose length is the area contribution of that column.
One transfer DP serves the chromatic function X (Shareshian-Wachs ascents
over proper colorings), the unicellular LLT word sum, and the principal
specialization of X.  It places one color class at a time, in increasing
color order, so an ascent is counted when its larger vertex gets a color:
exactly the window neighbors that already hold one are smaller-colored.
The state is the set of vertices colored so far, and each state carries
its exponent histogram packed into one integer.  The DP reads the full
set's histogram after every color, so one pass gives the labelings by
every prefix of the colors: X and LLT take the last prefix, the principal
specialization every one.  The tests compare the DP with a
vertex-by-vertex recursion over the windows and with brute-force product
enumerations that know nothing of windows.
"""

from __future__ import annotations

from itertools import accumulate

from rookhl.dyck import area_sequence
from rookhl.partitions import enumerate_partitions
from rookhl.qseries import QLaurent
from rookhl.symfunc import SymFunc


def _class_counts(gamma, caps, lifts, proper):
    """Exponent histograms over labelings of the vertices by colors 1..k
    that use color c at most caps[c-1] times, one for each prefix
    k = 0..len(caps): entry k is the histogram for caps[:k], lifts[:k].

    A labeling weighs q^(ascents + sum of lifts[c-1] over its vertices'
    colors c), an ascent being an edge whose smaller endpoint carries the
    strictly smaller color.  proper=True forbids equal colors across an
    edge (colorings), proper=False allows them (words).

    Colors are placed one class at a time.  A state is the bitmask S of the
    vertices colored so far, mapped to its histogram with count[e] in bits
    e*B .. e*B + B - 1; no count exceeds len(caps)**n, so B bits never
    carry into the next exponent.  Giving color c to a class I on top of S
    adds popcount(low[w] & S) for each w in I (its window below w holds
    those smaller colors) plus lifts[c]*|I|.  |I| runs from what the later
    colors cannot hold up to caps[c]; with proper set, I is independent.

    The labelings by the first k colors are the states that reach the full
    set after color k.  The lower bound on |I| never drops one of them
    (the colors after k are left empty), and a full state passes every
    later color unchanged, as the empty class, so the histogram of the
    full set after color k is entry k.
    """
    n = len(gamma)
    aseq = area_sequence(gamma)
    # low[v]: bitmask of the window of vertex v (0-based), its neighbors < v.
    low = [((1 << a) - 1) << (v - a) for v, a in enumerate(aseq)]
    vertices = range(n)
    full = (1 << n) - 1
    bits = (len(caps) ** n).bit_length() + 1
    later = sum(caps)
    states = {0: 1}
    packed = []
    for cap, lift in zip(caps, lifts):
        packed.append(states.get(full, 0))
        later -= cap
        if cap == 0:
            # Every state fits in the later colors: it passes unchanged.
            continue
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
                e = lift * left
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
                    grown[T] = grown.get(T, 0) + (
                        hist << bits * (e + lift * m))
                if m < hi:
                    for t in range(j, left - max(lo - m, 1) + 1):
                        w = low[free[t]]
                        if proper and w & I:
                            continue
                        stack.append((t + 1, I | 1 << free[t], m + 1,
                                      e + (w & S).bit_count()))
        states = grown
    packed.append(states.get(full, 0))
    mask = (1 << bits) - 1
    area = sum(aseq)
    out = []
    # Entry k reaches exponent area + n * max(lifts[:k]).
    for hist, top in zip(packed, accumulate(lifts, max, initial=0)):
        counts = [0] * (area + n * top + 1)
        e = 0
        while hist:
            counts[e] = hist & mask
            hist >>= bits
            e += 1
        out.append(counts)
    return out


def _checked_content(gamma, content) -> tuple[int, ...]:
    content = tuple(content)
    if any(c < 0 for c in content):
        raise ValueError("content entries must be nonnegative")
    if sum(content) != len(gamma):
        raise ValueError(f"content {content} does not sum to {len(gamma)}")
    return content


def x_coefficient(gamma, content) -> QLaurent:
    """Coefficient of x^content in the ascent-weighted sum over proper
    colorings.  content may be any composition; by symmetry it matches the
    sorted partition."""
    content = _checked_content(gamma, content)
    return QLaurent(0, _class_counts(gamma, content, [0] * len(content),
                                     proper=True)[-1])


def llt_coefficient(gamma, content) -> QLaurent:
    """Coefficient of x^content in the inversion-weighted sum over all
    labelings.  An inversion is an edge whose smaller endpoint carries the
    strictly larger label."""
    # Counting ascents of the color-reversed word counts inversions: flip
    # each label c to ncolors + 1 - c and reverse the content.
    content = _checked_content(gamma, reversed(tuple(content)))
    return QLaurent(0, _class_counts(gamma, content, [0] * len(content),
                                     proper=False)[-1])


def chromatic_x(gamma) -> SymFunc:
    """The full coloring generating function in the monomial basis."""
    n = len(gamma)
    return SymFunc(n, "monomial",
                   {la: x_coefficient(gamma, la)
                    for la in enumerate_partitions(n)})


def llt_poly(gamma) -> SymFunc:
    """The full word generating function in the monomial basis."""
    n = len(gamma)
    return SymFunc(n, "monomial",
                   {la: llt_coefficient(gamma, la)
                    for la in enumerate_partitions(n)})


def principal_series(gamma, alpha_max: int) -> list[QLaurent]:
    """principal_direct(gamma, k) for k = 0..alpha_max, from one pass of
    the class DP.  Color c has cap n and lift c - 1 whatever the number of
    colors, so the colorings from 1..k are read off after color k."""
    if alpha_max < 0:
        raise ValueError("colors must be nonnegative")
    return [QLaurent(0, counts)
            for counts in _class_counts(gamma, [len(gamma)] * alpha_max,
                                        range(alpha_max), proper=True)]


def principal_direct(gamma, colors: int) -> QLaurent:
    """Sum of q^(ascents + sum of (color - 1)) over proper colorings with
    colors drawn from 1..colors, summed one color class at a time."""
    return principal_series(gamma, colors)[colors]
