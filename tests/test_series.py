"""Series spaces, the support-intersection pairing, summable families.

Oracle notes: pairings are checked against a plain dot product over an
exhaustively enumerated finite support [DERIVED]; family sums against
coefficientwise addition done by hand in the test [DERIVED].
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmavect.scalars import QQ
from sigmavect.bornology import all_subsets, finite_subsets, well_ordered
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
from sigmavect.universe import MonomialUniverse, Naturals, UniverseError

N = Naturals()
SEQ = Space(QQ, N, finite_subsets(N))
DUAL = Space(QQ, N, all_subsets(N))


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


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(0, 10), st.integers(-5, 5), max_size=5),
       st.dictionaries(st.integers(0, 10), st.integers(-5, 5), max_size=5))
def test_pairing_bilinear_dot_product_oracle(d1, d2):
    f = SEQ.series(d1)
    g = DUAL.series(d2)
    want = sum(Fraction(d1[k] * d2.get(k, 0)) for k in d1)
    assert pairing(f, g) == want
