"""The color-by-color driver of the class DP, and the single monomial
coefficients it gives.

The package runs the DP's step, chromatic._add_class, only from the
partition trie behind chromatic_x and llt_poly.  This driver runs the same
step one color at a time and reads the full set after every color, so the
tests can hold the trie to it coefficient by coefficient, and the step to
the vertex-by-vertex window recursion for every prefix of the colors.
"""

from rookhl.chromatic import _add_class, _windows
from rookhl.qseries import QLaurent, unpack


def class_counts(gamma, caps, proper):
    """Exponent histograms over labelings of the vertices by colors 1..k
    that use color c at most caps[c-1] times, one for each prefix
    k = 0..len(caps): entry k is the histogram for caps[:k].

    A labeling weighs q^ascents, an ascent being an edge whose smaller
    endpoint carries the strictly smaller color.  proper=True forbids
    equal colors across an edge (colorings), proper=False allows them
    (words).

    The colors are placed one class at a time by _add_class, starting
    from the empty set.  No count exceeds len(caps)**n, so `bits` bits per
    exponent never carry into the next one.  The labelings by the first k
    colors are the states that reach the full set after color k: the
    lower bound on |I| never drops one of them (the colors after k are
    left empty), and a full state passes every later color unchanged, as
    the empty class.
    """
    low = _windows(gamma)
    n = len(low)
    full = (1 << n) - 1
    bits = (len(caps) ** n).bit_length() + 1
    later = sum(caps)
    states = {0: 1}
    packed = []
    for cap in caps:
        packed.append(states.get(full, 0))
        later -= cap
        # With cap 0 every state fits in the later colors: it passes
        # unchanged.
        if cap:
            states = _add_class(states, low, cap, later, bits, proper)
    packed.append(states.get(full, 0))
    area = sum(map(int.bit_count, low))
    out = []
    for hist in packed:
        p = unpack(hist, bits)
        counts = [0] * p.min_exp + list(p.coeffs)
        out.append(counts + [0] * (area + 1 - len(counts)))
    return out


def checked_content(gamma, content) -> tuple[int, ...]:
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
    content = checked_content(gamma, content)
    return QLaurent(0, class_counts(gamma, content, proper=True)[-1])


def llt_coefficient(gamma, content) -> QLaurent:
    """Coefficient of x^content in the inversion-weighted sum over all
    labelings.  An inversion is an edge whose smaller endpoint carries the
    strictly larger label."""
    # Counting ascents of the color-reversed word counts inversions: flip
    # each label c to ncolors + 1 - c and reverse the content.
    content = checked_content(gamma, reversed(tuple(content)))
    return QLaurent(0, class_counts(gamma, content, proper=False)[-1])
