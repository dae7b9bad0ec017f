"""Dyck paths encoded by column heights, their reflection in the
anti-diagonal, and the local surgery producing modular triples of paths.

A path on n steps up and n steps right is stored as the tuple
(m_1, ..., m_n) where m_i is the height of the path above column i.
Validity: the heights are non-decreasing and i <= m_i <= n.  The path
doubles as a graph on vertices 1..n (edges below the path) and as a poset
board (cells above the path).  Heights are parsed and written as
partitions are (partitions.parse_ints, format_partition).
"""

from __future__ import annotations

from typing import NamedTuple

from rookhl.partitions import format_partition as format_heights, parse_ints


def from_heights(heights) -> tuple[int, ...]:
    """A height sequence as a tuple, validated by check_heights."""
    hs = tuple(heights)
    check_heights(hs)
    return hs


def check_heights(gamma) -> None:
    """Raise ValueError, naming the first offending column (1-based),
    unless every height is an int (not a bool), none falls below the
    diagonal or exceeds n = len(gamma), and none decreases.

    The transfer DPs read each vertex's neighbors below it as one window
    and each row's open columns as a prefix, and area would count cells
    above row n that no board has.
    """
    n = len(gamma)
    for i, m in enumerate(gamma, start=1):
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValueError(f"height at column {i} is not an integer: {m!r}")
        if m < i:
            raise ValueError(f"height {m} at column {i} is below the diagonal")
        if m > n:
            raise ValueError(f"height {m} at column {i} exceeds n={n}")
        if i > 1 and m < gamma[i - 2]:
            raise ValueError(f"heights decrease at column {i}")


def parse_heights(text: str) -> tuple[int, ...]:
    """Parse '2,2,4,4,5' into a validated height tuple; '-' or '' is n=0."""
    return from_heights(parse_ints(text, "heights"))


def enumerate_dyck(n: int) -> list[tuple[int, ...]]:
    """All valid height tuples of size n in ascending lexicographic order."""
    if n < 0:
        raise ValueError("enumerate_dyck requires n >= 0")
    # Depth-first over prefixes, each child pushed largest height first so
    # the smallest pops first; no closure, so no call leaves a cycle.
    out = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        i = len(prefix) + 1
        if i > n:
            out.append(prefix)
            continue
        lo = max(i, prefix[-1] if prefix else 0)
        for m in range(n, lo - 1, -1):
            stack.append(prefix + (m,))
    return out


def area(gamma: tuple[int, ...]) -> int:
    """Number of full cells between the path and the diagonal."""
    return sum(m - c for c, m in enumerate(gamma, start=1))


def area_sequence(gamma: tuple[int, ...]) -> tuple[int, ...]:
    """a_i = number of columns c < i whose height reaches row i."""
    n = len(gamma)
    return tuple(sum(1 for c in range(1, i) if gamma[c - 1] >= i)
                 for i in range(1, n + 1))


def reflect(gamma: tuple[int, ...]) -> tuple[int, ...]:
    """The path reflected in the anti-diagonal, relabeling vertex v as
    n + 1 - v: column n + 1 - r of the result has height
    n + 1 - min{c : m_c >= r}.  An involution on valid heights.

    The relabeling maps the edges of gamma's graph onto the edges of the
    reflection's.  A coloring of the reflection, read through it, colors
    gamma, and an ascent of one is a descent of the other.  Reversing the
    colors, c -> N + 1 - c, turns descents back into ascents and reverses
    the content, which a symmetric function does not see.  So gamma and
    its reflection have the same X, and by the same argument over all
    words the same unicellular LLT polynomial (Shareshian-Wachs,
    Chromatic quasisymmetric functions, 2016).  The argument says nothing
    of the rook side: that it agrees too follows from the identities that
    verify checks, not from the definitions.
    """
    n = len(gamma)
    out = [0] * n
    c = 0
    for r in range(1, n + 1):
        # Heights never decrease, so the first column reaching row r only
        # moves right as r grows; column r itself reaches it.
        while gamma[c] < r:
            c += 1
        out[n - r] = n - c
    return tuple(out)


def concat(g1: tuple[int, ...], g2: tuple[int, ...]) -> tuple[int, ...]:
    """Place g2 after g1; no edges or cells connect the two blocks' graphs,
    every cross pair becomes a board cell."""
    n1 = len(g1)
    return g1 + tuple(m + n1 for m in g2)


def complete_path(k: int) -> tuple[int, ...]:
    """The height tuple (k,...,k) whose graph is the complete graph on k
    vertices and whose board is empty."""
    if k < 0:
        raise ValueError("complete_path requires k >= 0")
    return (k,) * k


class ModularTriple(NamedTuple):
    """Paths (lower, middle, upper) differing by a one-column surgery.

    kind 1 moves column `column` of middle down/up by one step; kind 2
    swaps the heights of the consecutive columns (column, column + 1).
    Always area(lower) + 1 == area(middle) == area(upper) - 1.
    """
    lower: tuple[int, ...]
    middle: tuple[int, ...]
    upper: tuple[int, ...]
    kind: int
    column: int


def _triple(lower, middle, upper, kind, column) -> ModularTriple | None:
    """The triple, or None if lower or upper is no valid path."""
    try:
        return ModularTriple(from_heights(lower), middle, from_heights(upper),
                             kind, column)
    except ValueError:
        return None


def _try_kind1(g1: tuple[int, ...], i: int) -> ModularTriple | None:
    # Column i, of height h, moves down and up a step (_triple checks that
    # it can); columns h and h + 1 must be equally high.
    h = g1[i - 1]
    if not (h < len(g1) and g1[h - 1] == g1[h]):
        return None
    g0 = list(g1)
    g0[i - 1] -= 1
    g2 = list(g1)
    g2[i - 1] += 1
    return _triple(g0, g1, g2, 1, i)


def _try_kind2(g1: tuple[int, ...], i: int) -> ModularTriple | None:
    a, b = g1[i - 1], g1[i]
    if a + 1 != b or i in g1:
        return None
    g0 = list(g1)
    g0[i] = a
    g2 = list(g1)
    g2[i - 1] = b
    return _triple(g0, g1, g2, 2, i)


def modular_triples(n: int) -> list[ModularTriple]:
    """All modular triples among paths of size n, ordered by middle path
    (ascending lex), then kind, then column."""
    out = []
    for g1 in enumerate_dyck(n):
        for i in range(1, n + 1):
            t = _try_kind1(g1, i)
            if t is not None:
                out.append(t)
        for i in range(1, n):
            t = _try_kind2(g1, i)
            if t is not None:
                out.append(t)
    return out
