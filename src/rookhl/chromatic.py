"""Coloring and word generating functions of a path's graph.

Vertices are the columns 1..n; the neighbors of a vertex below it form a
contiguous window whose length is the area contribution of that column.
One transfer DP serves the chromatic function X (Shareshian-Wachs ascents
over proper colorings), the unicellular LLT word sum, and the principal
specialization of X.  It places one color class at a time, in increasing
color order, so an ascent is counted when its larger vertex gets a color:
exactly the window neighbors that already hold one are smaller-colored.
The state is the set of vertices colored so far, and each state carries
its exponent histogram packed into one integer.

One step, _add_class, gives the next color to every state; two loops
run it.  _class_counts runs it color by color and reads the full set's
histogram after every color, so one pass gives the labelings by every
prefix of the colors: the principal specialization reads every one, and
x_coefficient and llt_coefficient, for one composition, the last.
chromatic_x and llt_poly walk the partitions of n as a trie of parts,
descending for X and ascending for LLT, so partitions with a common prefix
share its states.  The tests compare the trie with x_coefficient and
llt_coefficient, the DP with a vertex-by-vertex recursion over the
windows, and both with brute-force product enumerations that know nothing
of windows.
"""

from __future__ import annotations

import math
from itertools import accumulate

from rookhl.dyck import area_sequence, check_heights
from rookhl.qseries import QLaurent
from rookhl.symfunc import SymFunc


def _windows(gamma) -> list[int]:
    """low[v]: bitmask of the window of vertex v (0-based), its neighbors
    below it.  A window is contiguous only for heights that never decrease
    and never fall below the diagonal, so other heights raise ValueError."""
    check_heights(gamma)
    return [((1 << a) - 1) << (v - a)
            for v, a in enumerate(area_sequence(gamma))]


def _add_class(states, low, cap, lift, later, bits, proper):
    """Give the next color to a class I of the uncolored vertices of every
    state, leaving at most `later` of them to the colors after it.

    states maps the bitmask S of the vertices colored so far to its
    exponent histogram, `bits` bits per exponent e from bit e*bits on, and
    so does the map returned for the vertices colored after it.  Coloring I
    adds popcount(low[w] & S) for each w in I (its window below w holds
    those smaller colors) plus lift*|I|.  |I| runs from what the later
    colors cannot hold up to cap; with proper set, I is independent.
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
                grown[T] = grown.get(T, 0) + (hist << bits * (e + lift * m))
            if m < hi:
                for t in range(j, left - lo + m + 1 if m < lo else left):
                    w = low[free[t]]
                    if proper and w & I:
                        continue
                    stack.append((t + 1, I | 1 << free[t], m + 1,
                                  e + (w & S).bit_count()))
    return grown


def _unpack(hist, bits) -> list[int]:
    """The counts packed `bits` bits apart, up to the highest nonzero."""
    mask = (1 << bits) - 1
    counts = []
    while hist:
        counts.append(hist & mask)
        hist >>= bits
    return counts


def _class_counts(gamma, caps, lifts, proper):
    """Exponent histograms over labelings of the vertices by colors 1..k
    that use color c at most caps[c-1] times, one for each prefix
    k = 0..len(caps): entry k is the histogram for caps[:k], lifts[:k].

    A labeling weighs q^(ascents + sum of lifts[c-1] over its vertices'
    colors c), an ascent being an edge whose smaller endpoint carries the
    strictly smaller color.  proper=True forbids equal colors across an
    edge (colorings), proper=False allows them (words).

    The colors are placed one class at a time by _add_class, starting
    from the empty set.  No count exceeds len(caps)**n, so `bits` bits per
    exponent never carry into the next one.

    The labelings by the first k colors are the states that reach the full
    set after color k.  The lower bound on |I| never drops one of them
    (the colors after k are left empty), and a full state passes every
    later color unchanged, as the empty class, so the histogram of the
    full set after color k is entry k.
    """
    low = _windows(gamma)
    n = len(low)
    full = (1 << n) - 1
    bits = (len(caps) ** n).bit_length() + 1
    later = sum(caps)
    states = {0: 1}
    packed = []
    for cap, lift in zip(caps, lifts):
        packed.append(states.get(full, 0))
        later -= cap
        # With cap 0 every state fits in the later colors: it passes
        # unchanged.
        if cap:
            states = _add_class(states, low, cap, lift, later, bits, proper)
    packed.append(states.get(full, 0))
    area = sum(map(int.bit_count, low))
    # Entry k reaches exponent area + n * max(lifts[:k]).
    out = []
    for hist, top in zip(packed, accumulate(lifts, max, initial=0)):
        counts = _unpack(hist, bits)
        out.append(counts + [0] * (area + n * top + 1 - len(counts)))
    return out


def _partition_counts(gamma, proper, ascending) -> dict:
    """{la: coefficient of x^la} over every partition la of n with a
    nonzero coefficient, the colorings (proper) or words of _class_counts
    with caps la and no lifts.

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
            out[la] = QLaurent(0, _unpack(states[full], bits))
            return
        if ascending:
            least = parts[-1] if parts else 1
            # A part above left / 2 leaves too little for a larger one.
            sizes = [*range(least, left // 2 + 1), left]
        else:
            sizes = range(min(parts[-1] if parts else n, left), 0, -1)
        for p in sizes:
            grown = _add_class(states, low, p, 0, left - p, bits, proper)
            if grown:
                walk(grown, parts + (p,), left - p)

    walk({0: 1}, (), n)
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
    """The full coloring generating function in the monomial basis, from
    one walk of the partition trie with the parts descending."""
    return SymFunc(len(gamma), "monomial",
                   _partition_counts(gamma, proper=True, ascending=False))


def llt_poly(gamma) -> SymFunc:
    """The full word generating function in the monomial basis, from one
    walk of the partition trie with the parts ascending."""
    return SymFunc(len(gamma), "monomial",
                   _partition_counts(gamma, proper=False, ascending=True))


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
