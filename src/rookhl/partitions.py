"""Integer partitions as plain tuples of weakly decreasing positive ints.

The empty partition is ().  Enumeration order everywhere in the package is
reverse lexicographic, i.e. plain descending tuple order, which lists (n)
first and (1,...,1) last and refines dominance order.

coefficient_line writes the '(3,2): 1 + 2q + q^2' line of one coefficient
that the commands print; it lives here so that rook prints it without
loading symfunc.
"""

from __future__ import annotations

from collections import Counter


def is_partition(la) -> bool:
    return (isinstance(la, tuple)
            and all(isinstance(p, int) and not isinstance(p, bool) and p > 0
                    for p in la)
            and all(la[i] >= la[i + 1] for i in range(len(la) - 1)))


def check_partition(la):
    if not is_partition(la):
        raise ValueError(f"not a partition: {la!r}")
    return la


def enumerate_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n in reverse lexicographic (descending tuple) order."""
    if n < 0:
        raise ValueError("enumerate_partitions requires n >= 0")
    # Depth-first over prefixes, each child pushed smallest part first so
    # the largest pops first; no closure, so no call leaves a cycle.
    out = []
    stack = [((), n)]
    while stack:
        prefix, left = stack.pop()
        if not left:
            out.append(prefix)
            continue
        cap = prefix[-1] if prefix and prefix[-1] < left else left
        for part in range(1, cap + 1):
            stack.append((prefix + (part,), left - part))
    return out


def conjugate(la: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    if not la:
        return ()
    return tuple(sum(1 for p in la if p >= i) for i in range(1, la[0] + 1))


def nstat(la: tuple[int, ...]) -> int:
    """n(lambda) = sum_i (i-1) * lambda_i."""
    return sum(i * p for i, p in enumerate(la))


def multiplicities(la: tuple[int, ...]) -> Counter:
    """Counter mapping each part size to its multiplicity."""
    return Counter(la)


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Parse '3,2,1' into (3, 2, 1), checking nothing else; '-' or '' is ().
    Text that is no such list raises ValueError naming what it should be:
    the command-line codec of partitions and of dyck's heights."""
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse {what} from {text!r}") from None


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse '3,2,1' into (3, 2, 1); '-' or '' is the empty partition."""
    return check_partition(parse_ints(text, "partition"))


def format_partition(la: tuple[int, ...]) -> str:
    """Inverse of parse_partition and of dyck.parse_heights; it is
    dyck.format_heights too."""
    if not la:
        return "-"
    return ",".join(str(p) for p in la)


def coefficient_line(la, poly) -> str:
    """The '(3,2): 1 + 2q + q^2' row printed for one coefficient, its
    partition written by format_partition, save () for the empty one."""
    return f"({format_partition(la) if la else ''}): {poly}"
