"""Test oracle for the transition matrices: semistandard tableaux listed by
backtracking, and the charge statistic taken on their reading words.

K_{la,mu} counts the tableaux of shape la and content mu, and the
Kostka-Foulkes polynomial K_{la,mu}(q) sums q^charge over them (Lascoux and
Schutzenberger).  The package builds both from horizontal strips instead.
"""

from collections import Counter

from rookhl.partitions import check_partition
from rookhl.qseries import QLaurent, ZERO, q_power


def ssyt(shape, content):
    """All semistandard tableaux of the given shape and content.

    Rows weakly increase left to right, columns strictly increase top to
    bottom, and letter v appears content[v-1] times.  Tableaux are tuples
    of row tuples.
    """
    shape = check_partition(shape)
    remaining = list(content)
    nletters = len(remaining)
    rows: list[list[int]] = [[] for _ in shape]
    out = []

    def fill(r, c):
        if r == len(shape):
            out.append(tuple(tuple(row) for row in rows))
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, nletters + 1):
            if remaining[v - 1] > 0:
                remaining[v - 1] -= 1
                rows[r].append(v)
                fill(nr, nc)
                rows[r].pop()
                remaining[v - 1] += 1

    if sum(shape) == sum(content):
        fill(0, 0) if shape else out.append(())
    return out


def reading_word(tableau) -> tuple[int, ...]:
    """Rows bottom to top, each left to right."""
    word = []
    for row in reversed(tableau):
        word.extend(row)
    return tuple(word)


def charge_word(word) -> int:
    """Charge of a word whose content is a partition.

    Standard subwords are peeled off one at a time: locate the rightmost 1,
    then for each next letter take its rightmost occurrence to the left of
    the current position, wrapping to the rightmost occurrence overall when
    none exists.  The letter's index grows by one exactly on a wrap, and
    charge accumulates all indices over all rounds.
    """
    w = list(word)
    counts = Counter(w)
    top = max(w, default=0)
    cseq = [counts.get(v, 0) for v in range(1, top + 1)]
    if any(cseq[i] < cseq[i + 1] for i in range(len(cseq) - 1)) or 0 in cseq:
        raise ValueError(f"content of {word!r} is not a partition")
    total = 0
    while w:
        pos = max(k for k, v in enumerate(w) if v == 1)
        taken = [pos]
        idx = 0
        r = 1
        while any(v == r + 1 for v in w):
            left = [k for k in range(pos) if w[k] == r + 1]
            if left:
                pos = left[-1]
            else:
                pos = max(k for k, v in enumerate(w) if v == r + 1)
                idx += 1
            total += idx
            taken.append(pos)
            r += 1
        drop = set(taken)
        w = [v for k, v in enumerate(w) if k not in drop]
    return total


def charge(tableau) -> int:
    return charge_word(reading_word(tableau))


def kostka(la, mu) -> int:
    """Number of semistandard tableaux of shape la and content mu."""
    return len(ssyt(la, mu))


def kostka_foulkes(la, mu) -> QLaurent:
    """Charge generating polynomial over tableaux of shape la, content mu."""
    total = ZERO
    for t in ssyt(la, mu):
        total = total + q_power(charge(t))
    return total
