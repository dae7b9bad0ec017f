"""Exact Laurent polynomials in q over arbitrary-precision integers.

QLaurent is the universal coefficient type of this package: every statistic
generating function, transition-matrix entry, and identity check is built
from it.  There is no floating point, no tolerance and no polynomial
division anywhere.
"""

from __future__ import annotations


class QLaurent:
    """A Laurent polynomial in q with integer coefficients.

    Stored densely: ``coeffs[i]`` is the coefficient of ``q**(min_exp + i)``.
    Canonical form is maintained by the constructor: the first and last
    coefficients are nonzero, and the zero polynomial is always
    ``QLaurent(0, ())``.
    """

    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int = 0, coeffs=()):
        coeffs = list(coeffs)
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "min_exp", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "min_exp", min_exp + lo)
            object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))

    def __setattr__(self, name, value):
        raise AttributeError("QLaurent is immutable")

    # -- basic queries ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def max_exp(self) -> int:
        """Largest exponent with nonzero coefficient (0 for the zero poly)."""
        if not self.coeffs:
            return 0
        return self.min_exp + len(self.coeffs) - 1

    def is_polynomial(self) -> bool:
        """True when no negative power of q appears."""
        return not self.coeffs or self.min_exp >= 0

    # -- ring structure ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = from_int(other)
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.min_exp == other.min_exp and self.coeffs == other.coeffs

    def __hash__(self):
        # A constant compares equal to its int, so it must hash like it.
        if self.min_exp == 0 and len(self.coeffs) < 2:
            return hash(self.at_one())
        return hash((self.min_exp, self.coeffs))

    def __neg__(self) -> "QLaurent":
        return QLaurent(self.min_exp, tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "QLaurent":
        if isinstance(other, int):
            other = from_int(other)
        if not isinstance(other, QLaurent):
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.max_exp)
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_exp - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_exp - lo + i] += c
        return QLaurent(lo, out)

    __radd__ = __add__

    def __sub__(self, other) -> "QLaurent":
        if isinstance(other, int):
            other = from_int(other)
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QLaurent":
        return from_int(other) - self

    def __mul__(self, other) -> "QLaurent":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return QLaurent(self.min_exp, tuple(c * other for c in self.coeffs))
        if not isinstance(other, QLaurent):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QLaurent(self.min_exp + other.min_exp, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QLaurent":
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial "
                             "are not defined")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "QLaurent":
        """Multiply by q**k (k may be negative)."""
        if not self.coeffs:
            return ZERO
        return QLaurent(self.min_exp + k, self.coeffs)

    def invert_q(self) -> "QLaurent":
        """Substitute q -> 1/q.  An involution and a ring homomorphism."""
        if not self.coeffs:
            return ZERO
        return QLaurent(-self.max_exp, tuple(reversed(self.coeffs)))

    # -- evaluation ---------------------------------------------------------

    def at_one(self) -> int:
        """Evaluate at q = 1."""
        return sum(self.coeffs)

    def l1_norm(self) -> int:
        """The sum of the absolute coefficients: it bounds every one of
        them, and is subadditive and submultiplicative."""
        return sum(map(abs, self.coeffs))

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.min_exp + i
            if e == 0:
                body = str(abs(c))
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if abs(c) == 1 else f"{abs(c)}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QLaurent({self.min_exp}, {self.coeffs})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"min_exp": self.min_exp, "coeffs": list(self.coeffs)}


ZERO = QLaurent()
ONE = QLaurent(0, (1,))
Q = QLaurent(1, (1,))


def from_int(n: int) -> QLaurent:
    """The constant polynomial n."""
    return QLaurent(0, (n,))


def q_power(k: int) -> QLaurent:
    """q**k as a Laurent polynomial (k may be negative)."""
    return QLaurent(k, (1,))


def pack(p: QLaurent, bits: int) -> int:
    """p at q = 2**bits, for a polynomial whose coefficients are all in
    [0, 2**(bits-1)).

    Evaluation is a ring homomorphism, so sums and products of packed
    values pack the sums and products.  Two such polynomials differ by one
    whose coefficients lie strictly between -2**(bits-1) and 2**(bits-1),
    and such a nonzero polynomial is nonzero at 2**bits: packed values are
    equal exactly when the polynomials are.  A negative power of q, a
    negative coefficient or one of 2**(bits-1) or more breaks that
    argument, and raises ValueError.
    """
    if any(c < 0 for c in p.coeffs):
        raise ValueError(f"cannot pack {p}: negative coefficient")
    return pack_signed(p, bits)


def pack_signed(p: QLaurent, bits: int) -> int:
    """p at q = 2**bits, for a polynomial whose coefficients all lie
    strictly between -2**(bits-1) and 2**(bits-1).

    pack with signs: a ring homomorphism too.  Two such polynomials differ
    by one whose coefficients lie strictly between -2**bits and 2**bits;
    if it is nonzero, its lowest nonzero coefficient is no multiple of
    2**bits, so its value is nonzero.  A negative power of q, or a
    coefficient out of range, raises ValueError.
    """
    if p.min_exp < 0:
        raise ValueError(f"cannot pack {p}: negative power of q")
    limit = 1 << bits >> 1
    value = 0
    for c in reversed(p.coeffs):
        if not -limit < c < limit:
            raise ValueError(f"cannot pack {p} in {bits} bits: coefficient "
                             f"{c} is not strictly between -2**{bits - 1} "
                             f"and 2**{bits - 1}")
        value = (value << bits) + c
    return value << bits * p.min_exp


def unpack(value: int, bits: int) -> QLaurent:
    """The polynomial with coefficients in [0, 2**bits) whose value at
    q = 2**bits is value; it inverts pack."""
    if value < 0 or bits < 1:
        raise ValueError(f"cannot unpack {value} in {bits} bits")
    mask = (1 << bits) - 1
    coeffs = []
    while value:
        coeffs.append(value & mask)
        value >>= bits
    return QLaurent(0, coeffs)


def unpack_signed(value: int, bits: int) -> QLaurent:
    """The polynomial with coefficients in [-2**(bits-1), 2**(bits-1))
    whose value at q = 2**bits is value, read one balanced digit at a
    time; it inverts pack_signed.  One bit holds only the zero
    polynomial."""
    if bits < 1 or bits == 1 and value:
        raise ValueError(f"cannot unpack {value} in {bits} bits")
    half = 1 << bits >> 1
    coeffs = []
    while value:
        c = (value + half) % (1 << bits) - half
        coeffs.append(c)
        value = (value - c) >> bits
    return QLaurent(0, coeffs)


def q_int(n: int) -> QLaurent:
    """[n]_q = 1 + q + ... + q^(n-1).  [0]_q = 0."""
    if n < 0:
        raise ValueError("q_int requires n >= 0")
    return QLaurent(0, (1,) * n)


def q_falling(alpha: int, k: int) -> QLaurent:
    """Falling q-factorial [alpha]_q [alpha-1]_q ... [alpha-k+1]_q.

    Zero when k > alpha (a factor [0]_q occurs); 1 when k = 0.
    """
    if alpha < 0 or k < 0:
        raise ValueError("q_falling requires nonnegative arguments")
    if k > alpha:
        return ZERO
    result = ONE
    for t in range(alpha, alpha - k, -1):
        result = result * q_int(t)
    return result
