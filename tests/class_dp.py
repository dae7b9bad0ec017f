"""The color-by-color class DP, and the single monomial coefficients it
gives: the oracle of chromatic_x and llt_poly.

The DP places one color class at a time, in increasing color order, so an
ascent is counted when its larger vertex gets a color: exactly the window
neighbors that already hold one are smaller-colored.  The state is the set
of vertices colored so far, and each state carries its exponent histogram
packed into one integer.  One step, _add_class, gives the next color to
every state, and class_counts runs it color by color, reading the full set
after every color.  The tests hold the package's induced-path recursion to
it coefficient by coefficient, and the step to the vertex-by-vertex window
recursion for every prefix of the colors.
"""

from rookhl.dyck import area_sequence, check_heights
from rookhl.qseries import QLaurent, unpack


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
