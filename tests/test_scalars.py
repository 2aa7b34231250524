"""Field handles: exact rationals and prime fields.

Oracle notes: GF(p) arithmetic is checked against plain integer arithmetic
mod p [DERIVED]; rational behaviour against fractions.Fraction [DERIVED].
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmavect.scalars import GF, QQ, FpElement, field_from_spec


def test_rational_of_and_parse():
    assert QQ.of(3) == Fraction(3)
    assert QQ.of(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.parse("7/3") == Fraction(7, 3)
    assert QQ.parse("-4") == Fraction(-4)
    assert QQ.format(Fraction(-1, 2)) == "-1/2"
    half = Fraction(1, 2)
    assert QQ.of(half) is half  # a Fraction passes through unchanged
    F7 = GF(7)
    assert F7.of(half) == FpElement(4, 7) and F7.of(Fraction(-3, 2)) == FpElement(2, 7)
    assert F7.of(FpElement(3, 7)) == FpElement(3, 7) and F7.of(-1) == FpElement(6, 7)


def test_field_identity_elements():
    assert QQ.zero == 0 and QQ.one == 1
    F7 = GF(7)
    assert F7.zero == 0 and F7.one == 1
    assert F7.is_zero(F7.of(14))
    assert not F7.is_zero(F7.of(15))
    # an empty sum of products is the field's zero, of the field's type
    assert QQ.dot([]) == 0 and type(QQ.dot([])) is Fraction
    assert F7.dot([]) == 0 and type(F7.dot([])) is FpElement


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_gf_add_mul_match_integer_arithmetic(a, b):
    p = 11
    F = GF(p)
    assert F.of(a) + F.of(b) == (a + b) % p
    assert F.of(a) * F.of(b) == (a * b) % p
    assert F.of(a) - F.of(b) == (a - b) % p


@given(st.integers(1, 12))
def test_gf_inverse(a):
    p = 13
    x = FpElement(a, p)
    assert x * x.inverse() == 1


@given(st.integers(-30, 30), st.integers(0, 12))
def test_gf_power_matches_modular_pow(a, n):
    p = 13
    got = FpElement(a, p) ** n
    assert isinstance(got, FpElement) and got.value == pow(a, n, p)


def _left_to_right(field, pairs):
    total = field.zero
    for c, v in pairs:
        total = total + c * v
    return total


rationals = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.one_of(st.integers(1, 3 ** 60), st.integers(0, 60).map(lambda k: 3 ** k))))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([None, 2, 7, 65521]))
def test_dot_matches_a_left_to_right_sum(data, p):
    """Field.dot against adding c * v one product at a time: the same value
    and the same element type, over QQ (ints and Fractions whose
    denominators reach 3^60, powers of 3 among them so that denominators
    share factors) and over GF(2), GF(7) and GF(65521)."""
    field = QQ if p is None else GF(p)
    if p is None:
        elements = rationals
    else:
        elements = st.integers(-10 ** 6, 10 ** 6).map(lambda n: FpElement(n, p))
    pairs = data.draw(st.lists(st.tuples(elements, elements), max_size=8))
    got, want = field.dot(pairs), _left_to_right(field, pairs)
    assert got == want and type(got) is type(want)


def test_gf_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        FpElement(0, 5).inverse()


def test_gf_rejects_composite_modulus():
    with pytest.raises(ValueError):
        GF(15)


def _sieve(n):
    prime = [False, False] + [True] * (n - 1)
    for i in range(2, int(n ** 0.5) + 1):
        if prime[i]:
            prime[i * i::i] = [False] * len(prime[i * i::i])
    return prime


SIEVE = _sieve(10 ** 6)


def _accepted(p):
    try:
        return GF(p).p == p
    except ValueError:
        return False


@given(st.integers(2, 10 ** 6))
def test_gf_accepts_exactly_the_primes_below_a_million(p):
    assert _accepted(p) == SIEVE[p]


@given(st.integers(2, 46340), st.integers(2, 46340))
def test_gf_rejects_products_of_two_factors(a, b):
    # 46340^2 < 2^31; a product of two factors above 2^10 escapes trial
    # division that stops at 2^10
    assert not _accepted(a * b)


@pytest.mark.parametrize("n", [2047, 1373653, 25326001, 1065023, 46337 * 46327])
def test_gf_rejects_strong_pseudoprimes_and_large_composites(n):
    # 2047, 1373653 and 25326001 are the least strong pseudoprimes to the
    # bases {2}, {2, 3} and {2, 3, 5}; the others have no factor below 2^10
    with pytest.raises(ValueError, match=str(n)):
        GF(n)


def test_gf_accepts_the_largest_prime_below_2_31():
    assert GF(2 ** 31 - 1).p == 2147483647
    for p in (2, 3, 5, 7, 1031, 1033):
        assert GF(p).p == p


def test_fraction_coercion_into_gf():
    # 1/2 = 4 in GF(7) because 2*4 = 8 = 1 [DERIVED]
    assert GF(7).of(Fraction(1, 2)) == 4
    with pytest.raises(ZeroDivisionError):
        GF(7).of(Fraction(1, 7))


def test_field_from_spec():
    assert field_from_spec("rational") is QQ
    assert field_from_spec("fp:5").p == 5
    with pytest.raises(ValueError):
        field_from_spec("real")


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        FpElement(1, 5) + FpElement(1, 7)
