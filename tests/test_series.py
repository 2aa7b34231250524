"""Series spaces, the support-intersection pairing, summable families.

Oracle notes: pairings are checked against a plain dot product over an
exhaustively enumerated finite support [DERIVED]; family sums against
coefficientwise addition done by hand in the test [DERIVED]; finite series
on integer frames against products, combinations and truncations of dicts
keyed by normal-form exponent tuples [DERIVED].
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmavect import hahn
from sigmavect.scalars import GF, QQ
from sigmavect.bornology import all_subsets, finite_subsets, generate, well_ordered
from sigmavect.hahn import cauchy_product, invert_unit, truncate
from sigmavect.series import (
    FiniteSeries,
    LazySeries,
    PairingUndecided,
    SeriesError,
    Space,
    SummableFamily,
    add,
    check_summable,
    family_sum,
    finite_family,
    linear_combination,
    pairing,
    scale,
    sub,
)
from sigmavect.sets import DescribedSet
from sigmavect.slalg import euler_derivation
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


def test_a_finite_family_reads_the_weights_of_members_with_a_term():
    """The sum of a finite family of finite series reads the weight of each
    member that has a term, once, and never that of a zero member; a family
    of zeros sums to the space's zero."""
    members = [SEQ.series({0: 1, 2: 3}), SEQ.zero(), SEQ.series({2: -1, 3: 2})]
    read = []

    def weights(i):
        if not members[i].terms:
            raise AssertionError("the weight of a member with no term is read")
        read.append(i)
        return Fraction(i + 1)

    s = family_sum(finite_family(members), weights)
    assert read == [0, 2]
    assert isinstance(s, FiniteSeries) and s.terms == {0: 1, 3: 6}
    zero = family_sum(finite_family([SEQ.zero(), SEQ.zero()]), lambda i: 1 / 0)
    assert isinstance(zero, FiniteSeries) and zero.space == SEQ and zero.is_zero()


def test_check_summable_rejects_lying_certificate():
    good = SEQ.series({0: 1})
    fam = finite_family([good])
    # sabotage: shrink the union certificate so the support escapes it
    fam.union_cert = DescribedSet.finite(N, [5])
    report = check_summable(fam)
    assert report["verdict"] == "rejected"
    assert report["failures"]


class _Escaping(LazySeries):
    """A member whose coefficients ignore its certificate."""

    def coeff(self, gamma):
        return self.field.one


def _family(space, members, pointwise, union):
    return SummableFamily(space, list(range(len(members))), members.__getitem__, pointwise, union)


def _verdict(fam):
    report = check_summable(fam)
    return report["verdict"], report["failures"]


def test_check_summable_verdicts():
    one = SEQ.series({0: 1})
    everywhere = lambda gamma: [0]
    # the union certificate decides first: unbounded rejects, undecided
    # leaves the verdict undecided whatever the probes find
    fam = _family(SEQ, [one], everywhere, DescribedSet.progression(N, 0, 1))
    assert _verdict(fam) == ("rejected", ["union support certificate is unbounded"])
    with pytest.raises(SeriesError, match="family rejected: union support"):
        family_sum(fam)
    odd = Space(QQ, N, generate(N, [DescribedSet.grid(N, 0, [2, 3])]))
    fam = _family(odd, [odd.series({1: 1})], everywhere, DescribedSet.grid(N, 1, [2]))
    assert _verdict(fam) == ("undecided", ["union support certificate boundedness undecided"])
    # a probe with no pointwise certificate is undecided and the rest go on
    fam = _family(SEQ, [one], lambda gamma: None if gamma == 1 else [0],
                  DescribedSet.finite(N, [0, 1]))
    assert _verdict(fam) == ("undecided", ["pointwise certificate missing at 1"])
    # a member nonzero at a probe whose pointwise list leaves it out
    fam = _family(SEQ, [one, SEQ.series({0: 2})], everywhere, DescribedSet.finite(N, [0]))
    assert _verdict(fam) == (
        "rejected", ["index 1 contributes at 0 outside the pointwise certificate"])
    with pytest.raises(SeriesError, match="index 1 contributes at 0"):
        family_sum(fam)
    # a member nonzero at a probe outside its own certificate
    leak = _Escaping(SEQ, lambda gamma: 1, DescribedSet.finite(N, [0]))
    fam = _family(SEQ, [leak], everywhere, DescribedSet.finite(N, [0, 1]))
    assert _verdict(fam) == ("rejected", ["member 0 support escapes its certificate"])
    with pytest.raises(SeriesError, match="member 0 support escapes"):
        family_sum(fam)


def test_check_summable_probes_every_member_of_an_explicit_family():
    # 40 deltas, the last also carrying 5 at 0, where the pointwise
    # certificate names only member 0: the probes read the first 32 members
    # alone, accepted, and the sum read 1 at 0 where the true sum is 6
    members = [SEQ.series({i: 1}) for i in range(39)] + [SEQ.series({0: 5, 39: 1})]
    fam = _family(SEQ, members, lambda gamma: [gamma], DescribedSet.finite(N, range(40)))
    assert _verdict(fam) == (
        "rejected", ["index 39 contributes at 0 outside the pointwise certificate"])
    with pytest.raises(SeriesError, match="index 39 contributes at 0"):
        family_sum(fam)


def test_a_finite_family_with_a_replaced_certificate_is_judged_by_its_certificates():
    good = SEQ.series({0: 1})
    fam = finite_family([good])
    assert fam.members == (good,)
    total = family_sum(fam)
    assert isinstance(total, FiniteSeries) and total.terms == {0: 1}
    fam.union_cert = DescribedSet.finite(N, [5])
    assert fam.members is None
    with pytest.raises(SeriesError, match="family rejected"):
        family_sum(fam)
    s = family_sum(fam, precheck=False)
    assert not isinstance(s, hahn._Framed) and s.coeff(0) == 0


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
    same pairs, their frame keys decoded: the same keys of the same types,
    in the same order, the same field values, no zeros, and the same
    certificate."""
    calls, build = [], FiniteSeries._derived

    def spy(cls, space, scale, items):
        items = list(items)
        calls.append((space, scale, items, build(space, scale, items)))
        return calls[-1][3]

    with mock.patch.object(FiniteSeries, "_derived", classmethod(spy)):
        out = make()
    assert calls
    for space, scale, items, h in calls:
        ref = FiniteSeries(space, {space.universe.decode(k, scale): c for k, c in items})
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
        assert not isinstance(h, hahn._Framed)
        _as_public(lambda: truncate(h, bound))
    # framed truncations: a product with a frameless factor, an inverse
    prod = cauchy_product(f, _lazy(g))
    assert isinstance(prod, hahn._Framed)
    _as_public(lambda: truncate(prod, bound))
    if len(f.terms) > 1:
        inv = invert_unit(f)
        assert isinstance(inv, hahn._Framed)
        _as_public(lambda: truncate(inv, bound))
    # the Euler derivation of a finite series, and its one-term images
    # read through a caller's oracle: x^q goes to q * x^q
    d = euler_derivation(sp)
    want = {g: field.of(g[0]) * a for g, a in f.terms.items() if not field.is_zero(field.of(g[0]))}
    assert _as_public(lambda: d.apply(f)).terms == want
    if f.terms:
        lazy = d.apply(_lazy(f))
        assert _as_public(lambda: {g: lazy.coeff(g) for g in f.terms}) == \
            {g: want.get(g, field.zero) for g in f.terms}


def test_a_finite_coefficient_at_a_key_with_no_coordinates_is_refused():
    f = Space(QQ, X, well_ordered(X)).series({(Fraction(1, 2),): 3})
    assert f.coeff((Fraction(1, 2),)) == 3
    for bad in ((0.5,), "x", 3):
        with pytest.raises(UniverseError):
            f.coeff(bad)


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


# -- finite series on integer frames against a monomial-keyed oracle ---------

XY = MonomialUniverse(["x", "y"])


def _exponent():
    """A raw exponent with a denominator from 1 to 6: an int or a Fraction."""
    return st.one_of(st.integers(-3, 6), st.builds(Fraction, st.integers(-18, 36),
                                                  st.integers(1, 6)))


def _nf(q):
    """An exponent in normal form: an int when it is integral."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _key(g):
    return tuple(_nf(c) for c in g)


def _oracle_series(field, d):
    """{normal-form exponent tuple: nonzero field value}, in d's order."""
    out = {}
    for g, c in d.items():
        c = field.of(c)
        if c:
            out[_key(g)] = c
    return out


def _clean(d):
    return {g: c for g, c in d.items() if c}


def _oracle_product(field, a, b):
    out = {}
    for g, c in a.items():
        for h, e in b.items():
            k = _key(tuple(Fraction(x) + y for x, y in zip(g, h)))
            out[k] = out.get(k, field.zero) + c * e
    return _clean(out)


def _oracle_combination(field, pairs):
    out = {}
    for w, d in pairs:
        for g, c in d.items():
            out[g] = out.get(g, field.zero) + field.of(w) * c
    return _clean(out)


def _oracle_upto(d, bound):
    top = tuple(Fraction(c) for c in bound)
    return {g: d[g] for g in sorted(d, key=lambda g: tuple(map(Fraction, g)))
            if tuple(map(Fraction, g)) <= top}


def _same_terms(h, want):
    """h.terms is want: the same keys with the same coordinate types, the
    same values of the same types, in the same order."""
    got = list(h.terms.items())
    assert got == list(want.items())
    assert [(_shape(g), type(c)) for g, c in got] == \
        [(_shape(g), type(c)) for g, c in want.items()]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.sampled_from([1, 2]), st.data())
def test_framed_finite_series_match_a_monomial_oracle(field, dim, data):
    u = X if dim == 1 else XY
    sp = Space(field, u, finite_subsets(u))
    mono = st.tuples(*[_exponent()] * dim)
    coeffs = st.sampled_from([-7, -3, -1, 0, 1, 2, 5, 7, 14])
    ds = [data.draw(st.dictionaries(mono, coeffs, max_size=5)) for _ in range(3)]
    f, g, h = (sp.series(d) for d in ds)
    a, b, c = (_oracle_series(field, d) for d in ds)
    for s, want in zip((f, g, h), (a, b, c)):
        _same_terms(s, want)
    # products either way round
    _same_terms(cauchy_product(f, g), _oracle_product(field, a, b))
    _same_terms(cauchy_product(g, f), _oracle_product(field, b, a))
    _same_terms(cauchy_product(cauchy_product(f, g), h),
                _oracle_product(field, _oracle_product(field, a, b), c))
    # linear combinations, and cancellation to zero
    _same_terms(add(f, g), _oracle_combination(field, [(1, a), (1, b)]))
    _same_terms(sub(f, g), _oracle_combination(field, [(1, a), (-1, b)]))
    _same_terms(scale(3, h), _oracle_combination(field, [(3, c)]))
    _same_terms(linear_combination([(2, f), (-1, g), (5, h)]),
                _oracle_combination(field, [(2, a), (-1, b), (5, c)]))
    assert sub(f, f).terms == {} and sub(f, f).is_zero()
    _same_terms(scale(7, f), _oracle_combination(field, [(7, a)]))
    assert scale(7, f).is_zero() == (field.p == 7 or not a)
    # the pairing of two finite series
    assert pairing(f, g, declared_dual=True) == \
        field.dot([(v, b[k]) for k, v in a.items() if k in b])
    # truncations on and off the support, and off every frame
    keys = list(a) + list(b)
    bounds = [data.draw(st.sampled_from(keys))] if keys else []
    bounds.append(data.draw(mono))
    for bound in bounds:
        _same_terms(truncate(f, bound), _oracle_upto(a, _key(bound)))
        _same_terms(truncate(cauchy_product(f, g), bound),
                    _oracle_upto(_oracle_product(field, a, b), _key(bound)))
        # the sum of a finite family of finite series, a finite series
        w = [2, -1, 3]
        fam = finite_family([f, g, h])
        total = family_sum(fam, lambda i: w[i])
        want = _oracle_combination(field, list(zip(w, (a, b, c))))
        assert isinstance(total, FiniteSeries)
        _same_terms(total, want)
        _same_terms(truncate(total, bound), _oracle_upto(want, _key(bound)))
    # public constructors still refuse a bad key
    for bad in [(0.5,) * dim, (True,) * dim, (0,) * (dim + 1), "x"]:
        for build in (lambda: sp.series({bad: 1}), lambda: sp.delta(bad)):
            with pytest.raises(UniverseError):
                build()

