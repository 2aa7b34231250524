"""Series spaces, the support-intersection pairing, summable families.

Oracle notes: pairings are checked against a plain dot product over an
exhaustively enumerated finite support [DERIVED]; family sums against
coefficientwise addition done by hand in the test [DERIVED].
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmavect.scalars import GF, QQ
from sigmavect.bornology import all_subsets, finite_subsets, well_ordered
from sigmavect.hahn import cauchy_product, invert_unit, truncate
from sigmavect.series import (
    FiniteSeries,
    PairingUndecided,
    SeriesError,
    Space,
    add,
    check_summable,
    family_sum,
    finite_family,
    linear_combination,
    monomial_expansion,
    pairing,
    scale,
    series_from_record,
    sub,
)
from sigmavect.sets import DescribedSet
from sigmavect.universe import MonomialUniverse, Naturals, PairUniverse, UniverseError

N = Naturals()
SEQ = Space(QQ, N, finite_subsets(N))
DUAL = Space(QQ, N, all_subsets(N))
X = MonomialUniverse(["x"])
NN = PairUniverse(N, N)


def test_coefficient_keys_are_checked_before_and_after_a_memo_hit():
    X = MonomialUniverse(["x"])
    f = Space(QQ, X, well_ordered(X)).lazy(
        lambda g: 1 + X.vectorize(g)[0], DescribedSet.grid(X, X.unit, [X.monomial(x=1)])
    )
    for _ in range(2):  # the second pass finds (1,) in the memo
        for bad in ([1], (Fraction(1), Fraction(2)), (None,)):
            with pytest.raises(UniverseError):
                f.coeff(bad)
        # an int coordinate is the same key as its Fraction form
        assert f.coeff((1,)) == f.coeff((Fraction(1),)) == 2
    seq = DUAL.lazy(lambda n: n, DescribedSet.progression(N, 0, 1))
    assert seq.coeff(1) == 1
    with pytest.raises(UniverseError):
        seq.coeff(True)


def test_space_dual_and_contains():
    assert SEQ.dual().bornology.kind == "all"
    f = SEQ.series({0: 1, 3: -2})
    assert SEQ.contains(f)
    assert not DUAL.contains(f)


def test_finite_series_drops_zeros():
    f = SEQ.series({0: 1, 1: 0, 2: Fraction(0)})
    assert f.terms == {0: Fraction(1)}
    assert f.coeff(1) == 0


def test_support_window_sorted():
    f = SEQ.series({5: 1, 1: 2, 9: 3})
    assert f.support_window(10) == [1, 5, 9]
    assert f.support_window(2) == [1, 5]


def test_lazy_series_memoizes_and_respects_certificate():
    calls = []

    def oracle(n):
        calls.append(n)
        return n + 1

    cert = DescribedSet.progression(N, 0, 2)
    g = DUAL.lazy(oracle, cert)
    assert g.coeff(4) == 5
    assert g.coeff(4) == 5
    assert calls == [4]          # memoized
    assert g.coeff(3) == 0       # outside the certificate: zero, no oracle call
    assert calls == [4]


def test_lazy_rejects_unbounded_certificate():
    with pytest.raises(SeriesError):
        SEQ.lazy(lambda n: 1, DescribedSet.progression(N, 0, 1))


def test_linear_combination_matches_manual_sum():
    f = SEQ.series({0: 1, 2: 3})
    g = SEQ.series({2: -3, 5: 7})
    h = add(f, g)
    # oracle: coefficientwise addition [DERIVED]
    assert h.terms == {0: Fraction(1), 5: Fraction(7)}
    assert sub(f, f).terms == {}
    assert scale(2, f).terms == {0: Fraction(2), 2: Fraction(6)}


def test_pairing_matches_dot_product():
    f = SEQ.series({0: 2, 3: -1, 7: 5})
    g = DUAL.series({0: 1, 3: 4, 8: 100})
    # oracle: 2*1 + (-1)*4 = -2 [DERIVED]
    assert pairing(f, g) == -2


def test_pairing_with_lazy_dual():
    f = SEQ.series({1: 1, 4: 1})
    ones = DUAL.lazy(lambda n: 1, DescribedSet.progression(N, 0, 1))
    assert pairing(f, ones) == 2


def test_pairing_requires_duality_tag():
    f = SEQ.series({0: 1})
    g = SEQ.series({0: 1})
    with pytest.raises(SeriesError):
        pairing(f, g)
    assert pairing(f, g, declared_dual=True) == 1


def test_pairing_undecided_on_infinite_meet():
    ones = DUAL.lazy(lambda n: 1, DescribedSet.progression(N, 0, 1))
    twos = DUAL.lazy(lambda n: 2, DescribedSet.progression(N, 0, 2))
    with pytest.raises(PairingUndecided):
        pairing(ones, twos, declared_dual=True)


def test_record_roundtrip():
    f = SEQ.series({0: Fraction(1, 2), 4: -3})
    g = series_from_record(f.to_record())
    assert g.terms == f.terms


# -- summable families -----------------------------------------------------


def test_finite_family_sum_matches_manual():
    members = [SEQ.series({i: 1, i + 1: -1}) for i in range(4)]
    fam = finite_family(members)
    report = check_summable(fam)
    assert report["verdict"] == "accepted"
    assert report["window"] == 32
    s = family_sum(fam)
    # oracle: telescoping, 1 at 0 and -1 at 4 [DERIVED]
    for n in range(6):
        assert s.coeff(n) == (1 if n == 0 else (-1 if n == 4 else 0))


def test_family_sum_with_weights():
    members = [SEQ.series({i: 1}) for i in range(3)]
    fam = finite_family(members)
    s = family_sum(fam, weights=lambda i: Fraction(i + 1))
    assert [s.coeff(n) for n in range(3)] == [1, 2, 3]


def test_check_summable_rejects_lying_certificate():
    good = SEQ.series({0: 1})
    fam = finite_family([good])
    # sabotage: shrink the union certificate so the support escapes it
    fam.union_cert = DescribedSet.finite(N, [5])
    report = check_summable(fam)
    assert report["verdict"] == "rejected"
    assert report["failures"]


def test_monomial_expansion_reconstructs():
    sp = Space(QQ, N, finite_subsets(N))
    f = sp.series({1: 4, 6: -2})
    fam, weights = monomial_expansion(f)
    s = family_sum(fam, weights=weights, precheck=False)
    for n in range(8):
        assert s.coeff(n) == f.coeff(n)


# keys drawn raw: a Puiseux exponent may come as an int or as a Fraction
KEYS = {
    "naturals": (N, st.integers(0, 10)),
    "puiseux": (X, st.tuples(st.one_of(st.integers(-2, 4),
                                       st.fractions(-2, 4, max_denominator=3)))),
    "pair": (NN, st.tuples(st.integers(0, 4), st.integers(0, 4))),
}


def _lazy(f):
    """f behind a caller's oracle, so a pairing with it meets certificates."""
    return f.space.lazy(f.coeff, f.certificate)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.sampled_from(sorted(KEYS)), st.booleans(), st.data())
def test_pairing_bilinear_dot_product_oracle(field, kind, disjoint, data):
    u, keys = KEYS[kind]
    d1 = data.draw(st.dictionaries(keys, st.integers(-5, 5), max_size=6))
    d2 = data.draw(st.dictionaries(keys, st.integers(-5, 5), max_size=6))
    if disjoint:
        d2 = {k: c for k, c in d2.items() if k not in d1}
    sp = Space(field, u, finite_subsets(u))
    f, g = sp.series(d1), sp.dual().series(d2)
    # oracle: the dot product over the keys of d1, reduced into the field [DERIVED]
    want = field.of(sum(Fraction(c * d2.get(k, 0)) for k, c in d1.items()))
    got = pairing(f, g)
    assert got == want and type(got) is type(want)
    assert pairing(g, f) == want
    # the certificate path, on the same series behind caller oracles
    for a, b in ((_lazy(f), g), (f, _lazy(g)), (_lazy(f), _lazy(g))):
        via = pairing(a, b)
        assert via == got and type(via) is type(got)


def _shape(el):
    """The types inside a key, e.g. (int,) or (Fraction,) for a monomial."""
    return tuple(map(_shape, el)) if isinstance(el, tuple) else type(el)


def _as_public(make):
    """make()'s result, once every `FiniteSeries._derived` call it made is
    shown to build exactly what the checking constructor builds from the
    same pairs: the same keys of the same types, in the same order, the
    same field values, no zeros, and the same certificate."""
    calls, build = [], FiniteSeries._derived

    def spy(cls, space, items):
        items = list(items)
        calls.append((space, items, build(space, items)))
        return calls[-1][2]

    with mock.patch.object(FiniteSeries, "_derived", classmethod(spy)):
        out = make()
    assert calls
    for space, items, h in calls:
        ref = FiniteSeries(space, dict(items))
        assert list(h.terms.items()) == list(ref.terms.items())
        assert [(_shape(g), type(c)) for g, c in h.terms.items()] == \
            [(_shape(g), type(c)) for g, c in ref.terms.items()]
        assert not any(h.field.is_zero(c) for c in h.terms.values())
        assert h.certificate.to_record() == ref.certificate.to_record()
    return out


PUISEUX = st.dictionaries(
    st.tuples(st.one_of(st.integers(0, 4), st.fractions(0, 4, max_denominator=3))),
    st.sampled_from([-7, -3, -1, 0, 1, 2, 5, 7, 14]), max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), PUISEUX, PUISEUX, st.integers(-6, 30),
       st.sampled_from([-1, 1, 2, 7]))
def test_derived_finite_series_match_the_checking_constructor(field, d1, d2, top, c):
    sp = Space(field, X, well_ordered(X))
    f, g = sp.series(d1), sp.series(d2)
    bound = X.monomial(x=Fraction(top, 6))
    # finite x finite products and finite linear combinations
    _as_public(lambda: cauchy_product(f, g))
    _as_public(lambda: linear_combination([(c, f), (1, g)]))
    assert _as_public(lambda: sub(f, f)).terms == {}
    seven = _as_public(lambda: scale(7, f))
    assert len(seven.terms) == (0 if field.p == 7 else len(f.terms))
    # frameless truncations: a finite series, a caller's oracle, a lazy sum
    for h in (f, _lazy(f), add(_lazy(f), g)):
        assert h.frame is None
        _as_public(lambda: truncate(h, bound))
    # framed truncations: a product with a frameless factor, an inverse
    prod = cauchy_product(f, _lazy(g))
    assert prod.frame is not None
    _as_public(lambda: truncate(prod, bound))
    if len(f.terms) > 1:
        inv = invert_unit(f)
        assert inv.frame is not None
        _as_public(lambda: truncate(inv, bound))


@pytest.mark.parametrize("u, bad", [
    (X, (0.5,)), (X, (True,)), (X, True), (X, (1, 2)),
    (N, 1.0), (N, True), (NN, (1, 2, 3)), (NN, (True, 1)),
])
def test_public_entries_check_each_monomial(u, bad):
    sp = Space(QQ, u, finite_subsets(u))
    for build in (lambda: sp.series({bad: 1}), lambda: sp.delta(bad),
                  lambda: DescribedSet.finite(u, [bad])):
        with pytest.raises(UniverseError):
            build()
