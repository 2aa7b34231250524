"""Index universes: membership, order, monoid laws, codecs.

Oracle notes: ordering is checked against Python's native comparison of the
underlying numbers/tuples [DERIVED]; the codec is checked by round-trip.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sigmavect.sets import DescribedSet
from sigmavect.universe import (
    POINT,
    FiniteUniverse,
    Integers,
    MonomialUniverse,
    Naturals,
    PairUniverse,
    Rationals,
    TupleUniverse,
    UniverseError,
    universe_from_record,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def test_membership_basics():
    N = Naturals()
    assert N.contains(0) and N.contains(7)
    assert not N.contains(-1) and not N.contains(True)
    Z = Integers()
    assert Z.contains(-5)
    assert not Z.contains(Fraction(1, 2))
    with pytest.raises(UniverseError):
        N.check(-3)


def test_point_universe():
    assert POINT.contains("*")
    assert POINT.key("*") == 0


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_integer_order_matches_builtin(a, b):
    Z = Integers()
    assert Z.lt(a, b) == (a < b)
    assert Z.le(a, b) == (a <= b)


@given(rationals, rationals)
def test_rational_monoid(a, b):
    Q = Rationals()
    assert Q.op(a, b) == a + b
    assert Q.op(a, Q.inv(a)) == Q.unit


def test_tuple_universe_lex_order():
    T = TupleUniverse(2)
    a = T.check((1, 5))
    b = T.check((2, 0))
    assert T.lt(a, b)  # first coordinate dominates
    assert T.op(a, b) == (Fraction(3), Fraction(5))
    assert T.parse(T.format(a)) == a


def test_monomial_universe_basics():
    X = MonomialUniverse(["x"])
    x = X.monomial(x=1)
    assert X.format(x) == "x"
    assert X.format(X.unit) == "1"
    assert X.format(X.monomial(x=Fraction(1, 2))) == "x^(1/2)"
    assert X.op(x, x) == X.monomial(x=2)
    assert X.inv(x) == X.monomial(x=-1)
    # lex order: x^(1/2) < x < x^2
    assert X.lt(X.monomial(x=Fraction(1, 2)), x)
    assert X.lt(x, X.monomial(x=2))


def test_monomial_two_generators():
    XY = MonomialUniverse(["x", "y"])
    el = XY.monomial(x=2, y=-3)
    assert XY.format(el) == "x^2*y^-3"
    assert XY.parse("x^2*y^-3") == el
    assert XY.parse("1") == XY.unit
    # x dominates y lexicographically
    assert XY.lt(XY.monomial(y=100), XY.monomial(x=1))


def test_natural_exponent_monomials_have_no_inverses():
    M = MonomialUniverse(["t"], exponents="natural")
    assert not M.is_group
    assert not M.contains((Fraction(-1),))
    with pytest.raises(UniverseError):
        M.inv(M.monomial(t=1))


@given(st.tuples(rationals, rationals))
def test_monomial_codec_roundtrip(vec):
    XY = MonomialUniverse(["x", "y"])
    el = XY.check(vec)
    assert XY.parse(XY.format(el)) == el


def test_pair_universe():
    P = PairUniverse(Naturals(), Naturals())
    a = P.check((1, 2))
    b = P.check((1, 3))
    assert P.lt(a, b)
    assert P.op(a, b) == (2, 5)
    assert P.vectorize(a) == (Fraction(1), Fraction(2))
    assert P.devectorize(P.vectorize(a)) == a
    assert P.parse(P.format(a)) == a


def test_pair_nested_parse():
    P = PairUniverse(PairUniverse(Naturals(), Naturals()), Naturals())
    el = P.check(((1, 2), 3))
    assert P.parse(P.format(el)) == el


def test_record_roundtrip():
    for u in (
        Naturals(),
        Integers(),
        Rationals(),
        TupleUniverse(3),
        MonomialUniverse(["x", "y"], "integer"),
        PairUniverse(Naturals(), Integers()),
        FiniteUniverse(["a", "b"]),
    ):
        assert universe_from_record(u.to_record()) == u


def test_vectorize_devectorize_guards():
    N = Naturals()
    with pytest.raises(UniverseError):
        N.devectorize((Fraction(-1),))
    with pytest.raises(UniverseError):
        N.devectorize((Fraction(1, 2),))


EXACT_UNIVERSES = [
    Naturals(),
    Integers(),
    Rationals(),
    TupleUniverse(2),
    MonomialUniverse(["x"], "rational"),
    MonomialUniverse(["x", "y"], "integer"),
    MonomialUniverse(["t"], "natural"),
    PairUniverse(Naturals(), Rationals()),
    FiniteUniverse(["a", 0, Fraction(1, 2)]),
]
scalar_values = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.floats(-3, 3, allow_nan=False),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)
candidate_values = st.recursive(
    scalar_values, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)


@given(st.sampled_from(EXACT_UNIVERSES), candidate_values)
@example(EXACT_UNIVERSES[-1], False)
@example(EXACT_UNIVERSES[-1], 0.0)
@example(FiniteUniverse(["*"]), ["*"])
@example(FiniteUniverse(["*"]), {})
def test_contains_agrees_with_check(u, v):
    # contains(v) holds exactly when check(v) returns, and check then gives
    # back an equal element (a rational number becomes a Fraction, an
    # integral exponent coordinate an int); floats and bools are never
    # exact rational coordinates, and a finite universe holds its labels
    # themselves (not True for 1)
    try:
        checked = u.check(v)
    except UniverseError:
        assert not u.contains(v)
    else:
        assert u.contains(v)
        assert checked == v
        if isinstance(u, FiniteUniverse):
            assert type(checked) is type(next(lab for lab in u.labels if lab == v))


def test_inexact_coordinates_are_refused():
    X = MonomialUniverse(["x"])
    for bad in ((0.5,), (True,)):
        assert not X.contains(bad)
        with pytest.raises(UniverseError):
            X.check(bad)
    Q = Rationals()
    assert Q.contains(2) and Q.check(2) == Fraction(2)
    assert not Q.contains(0.5) and not Q.contains(True)
    assert X.check((1,)) == (Fraction(1),)


def test_integral_exponent_coordinates_are_ints():
    X = MonomialUniverse(["x", "y"])
    for v in ((2, Fraction(1, 2)), (Fraction(4, 2), Fraction(1, 2))):
        got = X.check(v)
        assert got == (2, Fraction(1, 2))
        assert [type(c) for c in got] == [int, Fraction]
        # one element, whatever form it came in: same key, hash and text
        assert hash(got) == hash((Fraction(2), Fraction(1, 2)))
        assert X.format(got) == "x^2*y^(1/2)"
    for bad in ((2.0, 0), (True, 0), (Fraction(1, 2), 0.5)):
        assert not X.contains(bad)
        with pytest.raises(UniverseError):
            X.check(bad)
    half = X.monomial(y=Fraction(1, 2))
    for el in (X.unit, X.op(half, half), X.monomial(x=Fraction(4, 2)),
               X.parse("x^2*y^(2/2)"), X.devectorize((Fraction(3), Fraction(-1)))):
        assert all(type(c) is int for c in el), el
    assert [type(c) for c in X.parse("x^(1/3)*y")] == [Fraction, int]
    Q = Rationals()
    assert [type(c) for c in Q.vectorize(Fraction(3)) + Q.vectorize(Fraction(1, 3))] == [
        int, Fraction]
    assert type(Q.devectorize((3,))) is Fraction


def test_described_sets_take_int_coordinates():
    # membership reads an int as the rational it is, as `check` does
    Q = Rationals()
    assert DescribedSet.grid(Q, 0, [1]).contains(2)
    assert DescribedSet.progression(Q, 0, 1).contains(2)
    assert DescribedSet.interval(Q, lo=0).contains(2)
    X = MonomialUniverse(["x"])
    assert DescribedSet.grid(X, (0,), [(1,)]).contains((2,))
    assert not DescribedSet.grid(X, (0,), [(1,)]).contains((2.0,))
