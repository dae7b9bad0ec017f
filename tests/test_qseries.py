import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rookhl.qseries import (
    QLaurent, ZERO, ONE, Q, from_int, q_power, pack, pack_signed,
    unpack, unpack_signed, q_falling_at, slot_sum,
)
from reference import (
    coeff, q_binomial, q_eval, q_factorial, q_falling, q_int,
    qlaurent_from_json,
)


laurents = st.builds(
    QLaurent,
    st.integers(min_value=-5, max_value=5),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
)


# -- canonical form ---------------------------------------------------------

def test_zero_is_canonical():
    assert QLaurent(7, ()) == ZERO
    assert QLaurent(3, (0, 0, 0)) == ZERO
    assert QLaurent().min_exp == 0
    assert QLaurent().coeffs == ()
    assert not ZERO


def test_trailing_and_leading_zeros_stripped():
    p = QLaurent(-2, (0, 1, 5, 0, 0))
    assert p.min_exp == -1
    assert p.coeffs == (1, 5)
    assert p.max_exp == 0


def test_equal_means_identical_representation():
    assert QLaurent(0, (1, 1)) == QLaurent(0, (1, 1, 0))
    assert QLaurent(1, (1,)) != QLaurent(0, (1,))
    assert ONE == 1
    assert ZERO == 0
    assert from_int(-3) == -3


def test_immutable():
    with pytest.raises(AttributeError):
        ONE.min_exp = 5


# -- arithmetic --------------------------------------------------------------

def test_small_products():
    assert (ONE + Q) * (ONE + Q) == QLaurent(0, (1, 2, 1))
    assert (ONE - Q) * (ONE + Q) == QLaurent(0, (1, 0, -1))
    assert Q * Q == q_power(2)
    assert q_power(-1) * Q == ONE


def test_int_mixing():
    assert 2 * Q + 1 == QLaurent(0, (1, 2))
    assert 1 - Q == QLaurent(0, (1, -1))
    assert Q - 1 == QLaurent(0, (-1, 1))
    assert 0 * Q == ZERO
    # equal objects hash alike, so constants and ints share set slots
    assert from_int(5) == 5 and hash(from_int(5)) == hash(5)
    assert {from_int(5), 5} == {5}
    assert hash(ZERO) == hash(0) and hash(ONE) == hash(1)
    assert hash(from_int(-2)) == hash(-2)


def test_pow():
    assert (ONE + Q) ** 0 == ONE
    assert (ONE + Q) ** 3 == QLaurent(0, (1, 3, 3, 1))
    assert q_power(-2) ** 2 == q_power(-4)
    with pytest.raises(ValueError):
        (ONE + Q) ** -1


def test_shift_and_coeff():
    p = QLaurent(0, (1, 2, 3))
    assert p.shift(-2) == QLaurent(-2, (1, 2, 3))
    assert coeff(p.shift(-2), -2) == 1
    assert coeff(p, 1) == 2
    assert coeff(p, 99) == 0
    assert ZERO.shift(5) == ZERO


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(laurents, laurents)
def test_invert_q_is_ring_hom(a, b):
    assert a.invert_q().invert_q() == a
    assert (a + b).invert_q() == a.invert_q() + b.invert_q()
    assert (a * b).invert_q() == a.invert_q() * b.invert_q()


def test_invert_q_example():
    p = QLaurent(0, (1, 2, 0, 3))  # 1 + 2q + 3q^3
    assert p.invert_q() == QLaurent(-3, (3, 0, 2, 1))


# -- q-combinatorics -----------------------------------------------------------

@given(st.integers(min_value=0, max_value=4),
       st.lists(st.integers(min_value=0, max_value=2 ** 20), max_size=6),
       st.integers(min_value=22, max_value=70))
def test_pack_round_trips_and_is_a_homomorphism(shift, coeffs, bits):
    p = QLaurent(shift, coeffs)
    assert pack(p, bits) == sum(c << bits * (shift + i)
                                for i, c in enumerate(coeffs))
    assert unpack(pack(p, bits), bits) == p
    # The square of the packed value packs the square, which unpacks while
    # its coefficients stay below 2^(bits-1).
    square = p * p
    if max(square.coeffs, default=0) < 1 << bits - 1:
        assert pack(p, bits) ** 2 == pack(square, bits)
        assert unpack(pack(p, bits) ** 2, bits) == square
    assert pack(ZERO, 1) == 0 and unpack(0, 1) == ZERO


@given(st.integers(min_value=0, max_value=4),
       st.lists(st.integers(min_value=0, max_value=2 ** 20), max_size=6),
       st.integers(min_value=21, max_value=70))
def test_slot_sum_is_the_value_at_one(shift, coeffs, bits):
    # Slots below 2^bits never carry, so their sum is the polynomial's
    # value at q = 1, whatever power of q it starts at.
    value = sum(c << bits * (shift + i) for i, c in enumerate(coeffs))
    assert slot_sum(value, bits) == QLaurent(shift, coeffs).at_one()


signed = st.lists(st.integers(min_value=-2 ** 20, max_value=2 ** 20),
                  max_size=6)


@given(st.integers(min_value=0, max_value=4), signed, signed,
       st.integers(min_value=22, max_value=70))
def test_pack_signed_round_trips_and_is_a_homomorphism(shift, coeffs, other,
                                                        bits):
    p, r = QLaurent(shift, coeffs), QLaurent(0, other)
    assert pack_signed(p, bits) == sum(c << bits * (shift + i)
                                       for i, c in enumerate(coeffs))
    assert unpack_signed(pack_signed(p, bits), bits) == p
    # Sums and products pack to the sums and products of the packed
    # values, which unpack while their coefficients stay in range.
    limit = 1 << bits - 1
    for value, poly in ((pack_signed(p, bits) + pack_signed(r, bits), p + r),
                        (pack_signed(p, bits) * pack_signed(r, bits), p * r)):
        if all(-limit < c < limit for c in poly.coeffs):
            assert value == pack_signed(poly, bits)
            assert unpack_signed(value, bits) == poly
    if coeffs and min(coeffs) >= 0:
        assert pack_signed(p, bits) == pack(p, bits)


def test_pack_signed_raises_where_the_value_would_not_determine_it():
    assert pack_signed(QLaurent(0, (-3, 3, 0, -1)), 3) == \
        -3 + (3 << 3) - (1 << 9)
    assert unpack_signed(-3 + (3 << 3) - (1 << 9), 3) == \
        QLaurent(0, (-3, 3, 0, -1))
    for p, bits in ((QLaurent(-1, (1,)), 8),          # negative power of q
                    (QLaurent(0, (1, -4)), 3),        # -4 = -2^(3-1)
                    (QLaurent(0, (4,)), 3),           # 4 = 2^(3-1)
                    (-ONE, 1),
                    (ONE, 0)):
        with pytest.raises(ValueError, match="cannot pack"):
            pack_signed(p, bits)
    # At one bit only 0 unpacks: the balanced digits of any other value
    # would never run out.
    assert unpack_signed(0, 1) == ZERO
    for value, bits in ((1, 1), (-1, 1), (0, 0)):
        with pytest.raises(ValueError, match="cannot unpack"):
            unpack_signed(value, bits)


def test_pack_raises_where_the_value_would_not_determine_the_polynomial():
    assert pack(QLaurent(0, (1, 3, 0, 1)), 3) == 1 + (3 << 3) + (1 << 9)
    # unpack reads every coefficient below 2^bits, as products of packed
    # values may hold.
    assert unpack(5 << 3 | 7, 3) == QLaurent(0, (7, 5))
    for p, bits in ((QLaurent(0, (1, -1)), 8),        # negative coefficient
                    (QLaurent(-1, (1,)), 8),          # negative power of q
                    (QLaurent(0, (1, 4)), 3),         # 4 = 2^(3-1)
                    (ONE, 1),                         # 1 = 2^0
                    (ONE, 0)):
        with pytest.raises(ValueError, match="cannot pack"):
            pack(p, bits)
    for value, bits in ((-1, 8), (5, 0)):
        with pytest.raises(ValueError, match="cannot unpack"):
            unpack(value, bits)


def test_q_int_values():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(4) == QLaurent(0, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_factorial_against_inversion_count():
    # [n]_q! generates permutations of [n] by inversion number.
    for n in range(6):
        counts = {}
        for w in itertools.permutations(range(n)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if w[i] > w[j])
            counts[inv] = counts.get(inv, 0) + 1
        expected = sum(q_power(e) * c for e, c in counts.items())
        assert q_factorial(n) == expected
    assert q_factorial(3) == QLaurent(0, (1, 2, 2, 1))


def test_q_binomial_against_subset_sums():
    # [n choose k]_q generates k-subsets S of {1..n} by sum(S) - (1+...+k).
    for n in range(7):
        for k in range(n + 1):
            counts = {}
            base = k * (k + 1) // 2
            for s in itertools.combinations(range(1, n + 1), k):
                e = sum(s) - base
                counts[e] = counts.get(e, 0) + 1
            expected = sum(q_power(e) * c for e, c in counts.items())
            assert q_binomial(n, k) == expected
    assert q_binomial(4, 2) == QLaurent(0, (1, 1, 2, 1, 1))


def test_q_binomial_times_the_factorials_is_the_factorial():
    # The Gaussian binomial's defining identity, at every size through 12
    # and at one far past any sweep.
    fact = [q_factorial(n) for n in range(41)]
    for n in list(range(13)) + [40]:
        for k in range(n + 1):
            assert q_binomial(n, k) * fact[k] * fact[n - k] == fact[n]


def test_q_binomial_domain_errors():
    with pytest.raises(ValueError):
        q_binomial(2, 3)
    with pytest.raises(ValueError):
        q_binomial(-1, 0)
    with pytest.raises(ValueError):
        q_binomial(3, -1)


def test_q_falling():
    assert q_falling(5, 0) == ONE
    assert q_falling(3, 2) == q_int(3) * q_int(2)
    assert q_falling(2, 3) == ZERO
    assert q_falling(4, 4) == q_factorial(4)
    with pytest.raises(ValueError):
        q_falling(-1, 0)


def test_q_falling_at_is_the_packed_laurent_falling_factorial():
    # The one packed q-integer kernel against the Laurent reference, at
    # every width from the least that holds its value at q = 1 up to three
    # more bits; pack's own half range holds from one bit above the least.
    for alpha in range(13):
        for k in range(alpha + 2):
            ref = q_falling(alpha, k)
            least = math.perm(alpha, k).bit_length()
            for bits in range(least, least + 4):
                got = q_falling_at(alpha, k, bits)
                assert got == q_eval(ref, 1 << bits), (alpha, k, bits)
                if bits > least:
                    assert got == pack(ref, bits), (alpha, k, bits)


def test_q_falling_at_raises_one_bit_below_its_value_at_one():
    # Below the least width that holds alpha!/(alpha-k)!, a slot could
    # carry: the kernel raises instead.  So does a negative argument.
    for alpha in range(13):
        for k in range(alpha + 1):
            least = math.perm(alpha, k).bit_length()
            with pytest.raises(ValueError, match="bits cannot hold"):
                q_falling_at(alpha, k, least - 1)
    for alpha, k in ((-1, 0), (0, -1), (-2, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            q_falling_at(alpha, k, 8)


# -- evaluation -----------------------------------------------------------------

def test_at_one():
    assert q_factorial(4).at_one() == 24
    assert q_binomial(6, 3).at_one() == 20
    assert ZERO.at_one() == 0


def test_eval_rational():
    assert q_eval(q_int(3), Fraction(1, 2)) == Fraction(7, 4)
    assert q_eval(q_power(-2), Fraction(1, 3)) == 9
    assert q_eval(ONE, Fraction(0)) == 1
    with pytest.raises(ZeroDivisionError):
        q_eval(q_power(-1), Fraction(0))


# -- presentation and serialization ------------------------------------------------

def test_str_ascending_form():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(from_int(-2)) == "-2"
    assert str(QLaurent(0, (1, 2, 1))) == "1 + 2q + q^2"
    assert str(QLaurent(-1, (1, 2, 0, 0, 1))) == "q^-1 + 2 + q^3"
    assert str(ONE - Q) == "1 - q"
    assert str(QLaurent(1, (-1, -3))) == "-q - 3q^2"


def test_json_round_trip():
    p = QLaurent(-2, (3, 0, -1, 7))
    blob = json.dumps(p.to_json())
    assert qlaurent_from_json(json.loads(blob)) == p
    assert p.to_json() == {"min_exp": -2, "coeffs": [3, 0, -1, 7]}
    assert ZERO.to_json() == {"min_exp": 0, "coeffs": []}


@given(laurents)
def test_json_round_trip_property(p):
    assert qlaurent_from_json(json.loads(json.dumps(p.to_json()))) == p
