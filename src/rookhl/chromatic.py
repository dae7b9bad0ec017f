"""Coloring and word generating functions of a path's graph.

Vertices are the columns 1..n; the neighbors of a vertex below it form a
contiguous window whose length is the area contribution of that column,
and the window is always a clique.  That makes ascent and inversion counts
incremental and pruning cheap, so one window recursion, with plain integer
exponent accumulators, serves the chromatic function X (Shareshian-Wachs
ascents over proper colorings), the unicellular LLT word sum, and the
principal specialization of X.  The tests compare each of them with a
brute-force product enumeration that knows nothing of windows.
"""

from __future__ import annotations

from rookhl.dyck import area, area_sequence
from rookhl.partitions import enumerate_partitions
from rookhl.qseries import QLaurent
from rookhl.symfunc import SymFunc


def _window_counts(gamma, caps, lifts, proper):
    """Exponent histogram over labelings of the vertices by colors
    1..len(caps) that use color c at most caps[c-1] times.

    A labeling weighs q^(ascents + sum of lifts[c-1] over its vertices'
    colors c), an ascent being an edge whose smaller endpoint carries the
    strictly smaller color.  proper=True forbids equal colors across an edge (colorings),
    proper=False allows them (words).
    """
    n = len(gamma)
    aseq = area_sequence(gamma)
    counts = [0] * (area(gamma) + n * max(lifts, default=0) + 1)
    remaining = list(caps)
    colors = range(len(caps))
    # Colors are 0-based inside the recursion; only their order matters.
    kappa = [0] * (n + 1)

    def rec(v, weight):
        if v > n:
            counts[weight] += 1
            return
        window = kappa[v - aseq[v - 1]:v]
        for c in colors:
            if remaining[c] == 0 or (proper and c in window):
                continue
            # A plain loop: measurably faster here than sum(generator).
            inc = lifts[c]
            for u in window:
                if u < c:
                    inc += 1
            remaining[c] -= 1
            kappa[v] = c
            rec(v + 1, weight + inc)
            remaining[c] += 1

    rec(1, 0)
    return counts


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
    return QLaurent(0, _window_counts(gamma, content, [0] * len(content),
                                      proper=True))


def llt_coefficient(gamma, content) -> QLaurent:
    """Coefficient of x^content in the inversion-weighted sum over all
    labelings.  An inversion is an edge whose smaller endpoint carries the
    strictly larger label."""
    # Counting ascents of the color-reversed word counts inversions: flip
    # each label c to ncolors + 1 - c and reverse the content.
    content = _checked_content(gamma, reversed(tuple(content)))
    return QLaurent(0, _window_counts(gamma, content, [0] * len(content),
                                      proper=False))


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


def principal_direct(gamma, colors: int) -> QLaurent:
    """Sum of q^(ascents + sum of (color - 1)) over proper colorings with
    colors drawn from 1..colors, enumerated one vertex at a time."""
    if colors < 0:
        raise ValueError("colors must be nonnegative")
    return QLaurent(0, _window_counts(gamma, [len(gamma)] * colors,
                                      list(range(colors)), proper=True))
