"""Convolution algebra on well-ordered supports.

Oracle notes: products of finite series are checked against an independent
dictionary convolution written in the test [DERIVED]; inverses against the
classical power-series recurrence b_0 = 1/c_0, b_n = -(1/c_0)sum c_k b_{n-k}
[DERIVED]; the Fibonacci generating function coefficients 1,1,2,3,5,8 are a
textbook fact [PAPER].
"""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import time_limit
from sigmavect import gridsolve, hahn
from sigmavect.bornology import all_subsets, well_ordered
from sigmavect.expr import Env, Evaluator, parse
from sigmavect.hahn import (
    HahnError,
    _Frame,
    _grid_atoms,
    _pairs,
    cauchy_product,
    invert_unit,
    leading_term,
    monomial_shift,
    neumann_sum,
    truncate,
)
from sigmavect.scalars import GF, QQ
from sigmavect.series import FiniteSeries, Space, add, family_sum, finite_family, scale, sub
from sigmavect.sets import DescribedSet, FiniteAtom, GridAtom, IntervalAtom, ProgressionAtom
from sigmavect.slalg import module_action
from sigmavect.universe import MonomialUniverse, Naturals, PairUniverse, Rationals

X = MonomialUniverse(["x"])
SP = Space(QQ, X, well_ordered(X))
ONE = SP.delta(X.unit)


def m(q):
    return X.monomial(x=Fraction(q))


def conv_oracle(t1, t2):
    """Independent convolution of exponent->coefficient dicts."""
    out = {}
    for a, ca in t1.items():
        for b, cb in t2.items():
            k = a + b
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def as_exp_dict(f, upto=30):
    return {
        X.vectorize(g)[0]: f.coeff(g)
        for g in f.support_window(upto)
    }


def test_unit_is_neutral():
    f = SP.series({m(1): 2, m(3): -5})
    assert cauchy_product(ONE, f).eq_window(f)
    assert cauchy_product(f, ONE).eq_window(f)


def test_product_matches_convolution_oracle():
    f = SP.series({m(0): 1, m(1): -1})
    g = SP.series({m(0): 1, m(1): 1, m(2): 1})
    p = cauchy_product(f, g)
    want = conv_oracle({Fraction(0): Fraction(1), Fraction(1): Fraction(-1)},
                       {Fraction(0): Fraction(1), Fraction(1): Fraction(1),
                        Fraction(2): Fraction(1)})
    assert as_exp_dict(p) == want


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(st.fractions(min_value=-2, max_value=4, max_denominator=3),
                    st.integers(-4, 4), min_size=1, max_size=4),
    st.dictionaries(st.fractions(min_value=-2, max_value=4, max_denominator=3),
                    st.integers(-4, 4), min_size=1, max_size=4),
)
def test_random_products_match_oracle(d1, d2):
    f = SP.series({m(q): c for q, c in d1.items()})
    g = SP.series({m(q): c for q, c in d2.items()})
    p = cauchy_product(f, g)
    want = conv_oracle({Fraction(q): Fraction(c) for q, c in d1.items()},
                       {Fraction(q): Fraction(c) for q, c in d2.items()})
    assert as_exp_dict(p, 40) == want


def test_products_on_other_framed_universes_decode_their_terms():
    # a product of finite series keeps frame keys, which `terms` decodes:
    # on the rationals, and on pairs of a natural and a monomial, whose
    # frame holds the monomial's exponent times 6
    Q = Rationals()
    sp = Space(QQ, Q, well_ordered(Q))
    d1 = {Fraction(1, 2): 2, Fraction(1, 3): 1}
    d2 = {Fraction(1, 6): 3, 1: -1}
    p = cauchy_product(sp.series(d1), sp.series(d2))
    assert p.scale == 6 and p.terms == conv_oracle(d1, d2)
    P = PairUniverse(Naturals(), X)
    sp = Space(QQ, P, all_subsets(P))
    d1 = {(1, Fraction(1, 2)): 2}
    d2 = {(2, Fraction(1, 3)): 5, (0, Fraction(0)): 1}
    want = {}
    for (n1, e1), c1 in d1.items():
        for (n2, e2), c2 in d2.items():
            want[n1 + n2, e1 + e2] = want.get((n1 + n2, e1 + e2), 0) + c1 * c2
    p = cauchy_product(sp.series({(n, m(e)): c for (n, e), c in d1.items()}),
                       sp.series({(n, m(e)): c for (n, e), c in d2.items()}))
    assert p.scale == 6 and p.terms == {(n, m(e)): c for (n, e), c in want.items()}


def test_product_many():
    f = SP.series({m(0): 1, m(1): 1})
    p3 = cauchy_product(cauchy_product(f, f), f)
    # oracle: binomial coefficients of (1+x)^3 [DERIVED]
    assert [p3.coeff(m(k)) for k in range(5)] == [1, 3, 3, 1, 0]


def test_product_space_shares_the_factors_universe_and_field():
    f = SP.series({m(0): 1, m(1): 1})
    Y = MonomialUniverse(["y"])
    for space in (Space(GF(7), X, well_ordered(X)), Space(QQ, Y, well_ordered(Y))):
        for g in (f, SP.lazy(f.coeff, f.certificate)):
            with pytest.raises(HahnError):
                cauchy_product(f, g, space=space)


def test_leading_term():
    f = SP.series({m(2): 7, m(5): 1})
    assert leading_term(f) == (m(2), 7)
    assert leading_term(SP.zero()) is None


def test_valuation_additivity():
    f = SP.series({m(Fraction(1, 2)): 3, m(4): 1})
    g = SP.series({m(Fraction(3, 2)): -2})
    gp, cp = leading_term(cauchy_product(f, g))
    assert gp == m(2) and cp == -6


def test_monomial_shift():
    f = SP.series({m(0): 1, m(2): 5})
    s = monomial_shift(f, m(3), 2)
    assert s.coeff(m(3)) == 2 and s.coeff(m(5)) == 10


def invert_oracle(coeffs, upto):
    """Classical recurrence for inverting sum c_n x^n with c_0 != 0."""
    b = [Fraction(1) / coeffs[0]]
    for n in range(1, upto + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += coeffs[k] * b[n - k] if k < len(coeffs) else 0
        b.append(-acc / coeffs[0])
    return b


def test_invert_matches_recurrence_oracle():
    rng = random.Random(7)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(1, 5))] + [
            Fraction(rng.randint(-4, 4)) for _ in range(3)
        ]
        f = SP.series({m(n): c for n, c in enumerate(coeffs)})
        inv = invert_unit(f)
        want = invert_oracle(coeffs, 10)
        got = [inv.coeff(m(n)) for n in range(11)]
        assert got == want


PUISEUX_GENERATORS = [
    (Fraction(1, 2),), (Fraction(1, 3),), (Fraction(2, 3),),
    (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(1, 2), Fraction(2, 3)),
]
# every exponent the shifted units and inverses below can reach up to x^3
PROBES = [m(Fraction(k, 6)) for k in range(-12, 19)]


def neumann_inverse(f, eps=None):
    """The inverse as sum eps^n through `neumann_sum`, for f = c x^g0 (1 - eps);
    eps is read off a finite f, and given for a lazy one."""
    g0, c = leading_term(f)
    if eps is None:
        normalized = monomial_shift(f, X.inv(g0), f.field.one / c)
        eps = Space(f.field, X, f.bornology).series(
            {g: -v for g, v in normalized.terms.items() if g != X.unit})
    return monomial_shift(neumann_sum(eps), X.inv(g0), f.field.one / c)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([QQ, GF(5), GF(101)]),
    st.sampled_from(PUISEUX_GENERATORS),
    st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2)]),
    st.integers(1, 4),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    st.integers(-4, 4), min_size=1, max_size=4),
    st.booleans(),
)
def test_invert_matches_neumann_construction(field, gens, shift, c0, rest, lazy_eps):
    """invert_unit against monomial_shift(neumann_sum(eps), ...) on one- and
    two-generator Puiseux units over QQ and GF(p).  With lazy_eps the unit is
    itself an inverse, so its eps is lazy, on grids built here by hand."""
    sp = Space(field, X, well_ordered(X))
    gvec = gens + (0,) * (2 - len(gens))
    delta = {}
    for (k1, k2), c in rest.items():
        e = k1 * gvec[0] + k2 * gvec[1]
        if e > 0:
            delta[m(e)] = delta.get(m(e), 0) + c
    h = sp.series({m(0): 1, **{g: -c for g, c in delta.items()}})
    if not lazy_eps:
        f = monomial_shift(h, m(shift), c0)
        want = neumann_inverse(f)
    else:
        # f = c0 x^shift / h = c0 x^shift (1 - eps) with eps = 1 - 1/h,
        # which lies in the grids based at each generator
        g = invert_unit(h)
        gms = [m(q) for q in gens]
        cert = DescribedSet(X, [GridAtom(X, q, gms) for q in gms])
        eps = sp.lazy(lambda gam: field.zero if gam == X.unit else -g.coeff(gam), cert)
        f = monomial_shift(g, m(shift), c0)
        want = neumann_inverse(f, eps)
    got = invert_unit(f)
    assert [got.coeff(p) for p in PROBES] == [want.coeff(p) for p in PROBES]
    if not lazy_eps:
        assert got.certificate == want.certificate


NEST_BOUND = Fraction(3)
NEST_PROBES = [Fraction(k, 6) for k in range(-6, 19)]


def dict_mul(field, d1, d2, bound=NEST_BOUND):
    """Dictionary convolution, cut at bound, of exponent -> coefficient
    dicts; exact up to bound when both factors are and their exponents are
    >= 0."""
    out = {}
    for a, ca in d1.items():
        for b, cb in d2.items():
            if a + b <= bound:
                out[a + b] = out.get(a + b, field.zero) + ca * cb
    return out


def dict_inverse(field, d, bound=NEST_BOUND):
    """The inverse of c0 (1 - eps), d's constant term c0 != 0, as
    c0^-1 * sum eps^n cut at bound, by dictionary convolution."""
    c0inv = field.one / d[Fraction(0)]
    eps = {e: -c * c0inv for e, c in d.items() if e != 0}
    total, power = {Fraction(0): c0inv}, {Fraction(0): c0inv}
    while power:
        power = {e: c for e, c in dict_mul(field, power, eps, bound).items()}
        for e, c in power.items():
            total[e] = total.get(e, field.zero) + c
    return total


unit_polys = st.tuples(
    st.integers(1, 4), st.sampled_from([1, 2, 3]),
    st.dictionaries(st.integers(1, 4), st.integers(-4, 4), min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(101)]), st.integers(0, 5), unit_polys, unit_polys)
def test_nested_expressions_match_dictionary_convolution(field, shape, p1, p2):
    """Products of inverses, inverses of products (of a lazy factor too),
    Puiseux inverses times integral-exponent polynomials, factors on the
    frames of x^(1/2) and x^(1/3) together, a frameless `Space.lazy` factor,
    and shifts of a unit, an inverse and that lazy factor, against dictionary
    convolution and `neumann_sum` on a window."""
    sp = Space(field, X, well_ordered(X))

    def poly(spec, q=None):
        c0, q0, rest = spec
        d = {Fraction(0): field.of(c0)}
        for k, c in rest.items():
            if field.of(c) != field.zero:
                d[Fraction(k, q or q0)] = field.of(c)
        return d, sp.series({m(e): c for e, c in d.items()})

    d1, f1 = poly(p1)
    d2, f2 = poly(p2, 1 if shape == 2 else None)
    if shape == 0:  # a product of inverses
        got = cauchy_product(invert_unit(f1), invert_unit(f2))
        want = dict_mul(field, dict_inverse(field, d1), dict_inverse(field, d2))
    elif shape == 1:  # the inverse of a product, of finite then of lazy factors
        got = invert_unit(cauchy_product(invert_unit(f1), f2))
        want = dict_inverse(field, dict_mul(field, dict_inverse(field, d1), d2))
    elif shape == 2:  # a Puiseux inverse times an integral-exponent polynomial
        got = cauchy_product(f2, invert_unit(f1))
        want = dict_mul(field, d2, dict_inverse(field, d1))
    elif shape == 3:  # frames of x^(1/2) and x^(1/3), read by a third product
        d1, f1 = poly(p1, 2)
        d2, f2 = poly(p2, 3)
        got = cauchy_product(cauchy_product(invert_unit(f1), f1), invert_unit(f2))
        want = dict_mul(field, dict_mul(field, dict_inverse(field, d1), d1),
                        dict_inverse(field, d2))
    else:  # a frameless lazy factor: 1 / (1 - x^(1/q)) as a caller's oracle
        q = p2[1]
        geo = sp.lazy(lambda g: field.one, DescribedSet.grid(X, X.unit, [m(Fraction(1, q))]))
        geo_terms = {Fraction(k, q): field.one for k in range(3 * q + 1)}
        if shape == 4:
            got = cauchy_product(invert_unit(f1), geo)
        else:  # shifts cancelling to the same product: c^-1 x^-2s / f1 times
            # x^s / f2 (a shifted Puiseux inverse) times c x^s geo
            s, c = m(Fraction(1, q)), p2[0]
            got = cauchy_product(
                invert_unit(monomial_shift(f1, m(Fraction(2, q)), c)),
                cauchy_product(monomial_shift(invert_unit(f2), s), monomial_shift(geo, s, c)))
            geo_terms = dict_mul(field, dict_inverse(field, d2), geo_terms)
        want = dict_mul(field, dict_inverse(field, d1), geo_terms)
        assert [neumann_sum(sp.series({m(Fraction(1, q)): 1})).coeff(m(e))
                for e in NEST_PROBES] == [geo.coeff(m(e)) for e in NEST_PROBES]
    assert [got.coeff(m(e)) for e in NEST_PROBES] == [
        want.get(e, field.zero) for e in NEST_PROBES]
    # the inverse of f1 as a Neumann sum agrees on the same window
    assert [invert_unit(f1).coeff(m(e)) for e in NEST_PROBES] == [
        neumann_inverse(f1).coeff(m(e)) for e in NEST_PROBES]


STENCIL_PROBES = [m(Fraction(k, 6)) for k in range(-36, 37)]
# the dictionary reference is cut at STENCIL_BOUND and exact up to x^6 on
# every series below, whose exponents go down to -13/2
STENCIL_BOUND = Fraction(13)
laurent_polys = st.tuples(
    st.sampled_from([1, 2, 3]),
    st.dictionaries(st.integers(-3, 3), st.sampled_from([-3, -2, -1, 1, 2, 3]),
                    min_size=1, max_size=4))


def lazy(f):
    """f as a frameless `Space.lazy` series, read through its monomials."""
    return f.space.lazy(f.coeff, f.certificate)


def stencil_factors(field, shape, spec, u1, u2):
    """(space, p, f2, framed): a Laurent or Puiseux polynomial p, a unit
    f2 on p's exponent denominator, and a framed series that is an inverse
    (shape 0), a product of inverses (1), a stencil product (2) or a shift
    (3)."""
    sp = Space(field, X, well_ordered(X))

    def unit(spec, q):
        c0, _, rest = spec
        return sp.series({m(0): c0, **{m(Fraction(k, q)): c for k, c in rest.items()}})

    q, terms = spec
    p = sp.series({m(Fraction(k, q)): c for k, c in terms.items()})
    f1, f2 = unit(u1, u1[1]), unit(u2, q)
    if shape == 0:
        framed = invert_unit(f1)
    elif shape == 1:
        framed = cauchy_product(invert_unit(f1), invert_unit(f2))
    elif shape == 2:
        framed = cauchy_product(f2, invert_unit(f1))
    else:
        framed = monomial_shift(invert_unit(f1), m(Fraction(-1, 2)), 3)
    return sp, p, f2, framed


def exponents(f):
    """The exponent -> coefficient dict of a finite series of x."""
    return {X.vectorize(g)[0]: c for g, c in f.terms.items()}


def dict_shift(field, d, e, c=1):
    return {a + e: field.of(c) * v for a, v in d.items()}


def dict_laurent_inverse(field, d):
    """The inverse of a Laurent or Puiseux polynomial c x^g0 (1 - eps) by
    `dict_inverse` of its unit part, exact up to STENCIL_BOUND - g0."""
    g0 = min(d)
    c = d[g0]
    unit = {e - g0: v / c for e, v in d.items()}
    return {e - g0: v / c for e, v in dict_inverse(field, unit, STENCIL_BOUND).items()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(0, 3), laurent_polys, unit_polys,
       unit_polys, st.integers(-3, 3))
def test_stencils_match_the_generic_path(field, shape, spec, u1, u2, shift):
    """A finite factor is read as a stencil; the same factor wrapped as a
    frameless `Space.lazy` series is read by the same rule through its
    monomials.  Products either way round, shifts and inverses must agree on
    a box, for Laurent and Puiseux factors over QQ and GF(7), against framed
    factors that are an inverse, a product of inverses, a stencil product
    and a shift, both with each other and with dictionary convolution."""
    sp, p, f2, framed = stencil_factors(field, shape, spec, u1, u2)
    p_lazy = lazy(p)
    s = m(Fraction(shift, spec[0]))

    def mul(d1, d2):
        return dict_mul(field, d1, d2, STENCIL_BOUND)

    dp, df2, df1 = exponents(p), exponents(f2), exponents(sp.series(
        {m(0): u1[0], **{m(Fraction(k, u1[1])): c for k, c in u1[2].items()}}))
    inv1 = dict_laurent_inverse(field, df1)
    dframed = [inv1, mul(inv1, dict_laurent_inverse(field, df2)), mul(df2, inv1),
               dict_shift(field, inv1, Fraction(-1, 2), 3)][shape]
    dpinv = dict_laurent_inverse(field, dp)
    triples = [
        (cauchy_product(p, framed), cauchy_product(p_lazy, framed), mul(dp, dframed)),
        (cauchy_product(framed, p), cauchy_product(framed, p_lazy), mul(dp, dframed)),
        (monomial_shift(framed, s, 2), cauchy_product(lazy(sp.delta(s, 2)), framed),
         dict_shift(field, dframed, X.vectorize(s)[0], 2)),
        (invert_unit(p), invert_unit(p_lazy), dpinv),
        # nested: a stencil over a stencil product, and over the stencil inverse
        (cauchy_product(p, cauchy_product(p, framed)),
         cauchy_product(p_lazy, cauchy_product(p_lazy, framed)), mul(dp, mul(dp, dframed))),
        (cauchy_product(f2, invert_unit(p)), cauchy_product(lazy(f2), invert_unit(p_lazy)),
         mul(df2, dpinv)),
    ]
    for got, via_lazy, want in triples:
        values = [got.coeff(g) for g in STENCIL_PROBES]
        assert values == [via_lazy.coeff(g) for g in STENCIL_PROBES]
        assert values == [want.get(X.vectorize(g)[0], field.zero) for g in STENCIL_PROBES]


def monomial_truncation(f, bound):
    """The terms of f up to bound, listed through the certificate's
    monomials (`elements_upto`) and read by `coeff`, zeros dropped."""
    terms = [(g, f.coeff(g)) for g in f.certificate.elements_upto(bound)]
    return [(g, c) for g, c in terms if not f.field.is_zero(c)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(0, 3), laurent_polys, unit_polys,
       unit_polys, st.integers(-3, 3), st.integers(-24, 36), st.integers(0, 6))
def test_framed_truncation_matches_the_monomial_path(field, shape, spec, u1, u2, shift, k, i):
    """`truncate` walks a series on its frame's ints, or a caller's series on
    a frame of its atoms; it must keep the terms, in order, that the
    certificate's monomials give, for products either way round, inverses,
    stencil products, shifts, `Space.lazy` series on a grid and on a counted
    progression, a family sum, a weighted Neumann sum and a linear
    combination of framed series, at bounds x^(k/6) (on the frame or off
    it), below the support and at a certificate point."""
    sp, p, f2, framed = stencil_factors(field, shape, spec, u1, u2)
    s = m(Fraction(shift, spec[0]))
    # frameless factors on a finite atom and on a counted progression give
    # framed products whose certificates hold finite atoms and counted
    # progressions
    counted = sp.lazy(lambda g: field.one, DescribedSet(X, [ProgressionAtom(X, s, m(Fraction(1, 3)), 7)]))
    on_grid = sp.lazy(lambda g: field.of(int(6 * X.vectorize(g)[0]) % 5 - 2),
                      DescribedSet.grid(X, s, [m(Fraction(1, 2)), m(Fraction(2, 3))]))
    eps = sp.series({m(Fraction(k, u1[1])): c for k, c in u1[2].items()})
    frameless = [counted, on_grid, lazy(framed),
                 family_sum(finite_family([framed, p, on_grid]), lambda j: 2 - j),
                 neumann_sum(eps, lambda n: n - 2),
                 add(framed, scale(3, cauchy_product(p, framed)))]
    for f in [framed, cauchy_product(p, framed), cauchy_product(framed, p),
              monomial_shift(framed, s, 2), invert_unit(p),
              cauchy_product(p, cauchy_product(p, framed)), cauchy_product(f2, invert_unit(p)),
              cauchy_product(lazy(p), f2), cauchy_product(counted, f2),
              cauchy_product(counted, framed), *frameless]:
        points = f.certificate.first_n(i + 1)
        if not points:  # a Neumann sum of a zero eps is a finite series
            continue
        below = X.op(points[0], m(-1))
        for bound in (m(Fraction(k, 6)), points[-1], below):
            assert list(truncate(f, bound).terms.items()) == monomial_truncation(f, bound)
        assert not truncate(f, below).terms


def test_stencil_reads_below_zero_on_the_naturals():
    """On the naturals a stencil reads its other factor at n - a, which
    falls below 0 for n < a: off the universe, where it reads as zero.
    Products either way round and with a lazy counted stencil, and their
    truncations, against the convolution sums."""
    nat = Naturals()
    sp = Space(QQ, nat, all_subsets(nat))
    ramp = sp.lazy(lambda n: n + 1, DescribedSet.progression(nat, 0, 1))
    e = sp.series({2: 1, 5: -3})
    counted = sp.lazy(lambda n: 2 * n, DescribedSet.progression(nat, 3, 2, 3))  # 3, 5, 7

    def want(d, n):
        return sum(c * (n - a + 1) for a, c in d.items() if a <= n)

    for got, d in [(cauchy_product(e, ramp), e.terms), (cauchy_product(ramp, e), e.terms),
                   (cauchy_product(counted, ramp), {3: 6, 5: 10, 7: 14})]:
        assert [got.coeff(n) for n in range(12)] == [want(d, n) for n in range(12)]
        assert truncate(got, 8).terms == {n: want(d, n) for n in range(9) if want(d, n)}
    assert truncate(ramp, 4).terms == {n: n + 1 for n in range(5)}


def test_a_callers_oracle_is_read_only_where_a_decomposition_reads_it():
    """f's oracle raises at x^5, a point of its finite atom that is a
    decomposition of no coefficient up to x^(9/2) of f times a finite, a
    frameless and a framed factor, either way round: truncating there must
    not read it, while the coefficient at x^5 of f * (1 + 2x) does, and
    so, again, does each read of x^(11/2) from a stencil on x and x^5."""
    def oracle(g):
        if g == m(5):
            raise ZeroDivisionError("read at x^5")
        return 1

    f = SP.lazy(oracle, DescribedSet(X, [FiniteAtom(X, [m(1), m(5)]),
                                         GridAtom(X, m(Fraction(1, 2)), [m(1)])]))
    finite = SP.series({m(0): 1, m(1): 2})
    ones = SP.lazy(lambda g: 1, DescribedSet.grid(X, m(Fraction(1, 2)), [m(Fraction(1, 2))]))
    for g in (finite, ones, invert_unit(SP.series({m(0): 1, m(1): -1}))):
        for p in (cauchy_product(f, g), cauchy_product(g, f)):
            assert truncate(p, m(Fraction(9, 2))).terms
    with pytest.raises(ZeroDivisionError, match="read at x"):
        cauchy_product(f, finite).coeff(m(5))
    # as a stencil on its finite atom alone, f is read at x^5 only for a
    # coefficient that needs it, and a failed read leaves the stencil whole
    h = cauchy_product(SP.lazy(oracle, DescribedSet.finite(X, [m(1), m(5)])), ones)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError, match="read at x"):
            h.coeff(m(Fraction(11, 2)))
    assert [h.coeff(m(Fraction(k, 2))) for k in range(1, 7)] == [0, 0, 1, 1, 1, 1]
    # truncating h sweeps its points in order and keeps that stencil lazy:
    # x^5 is first read for x^(11/2), on a fresh h as on this one
    for h in (h, cauchy_product(SP.lazy(oracle, DescribedSet.finite(X, [m(1), m(5)])), ones)):
        assert truncate(h, m(Fraction(9, 2))).terms == {m(Fraction(k, 2)): 1 for k in range(3, 10)}
        with pytest.raises(ZeroDivisionError, match="read at x"):
            truncate(h, m(Fraction(11, 2)))


XY = MonomialUniverse(["x", "y"])


def sweep_terms(lo):
    """{(a, b): c}: the term c x^a y^b, or c x^(a/2 + |b|/3) in one variable."""
    return st.dictionaries(st.tuples(st.integers(lo, 3), st.integers(-2, 2)),
                           st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.sampled_from(["line", "puiseux", "plane"]),
       st.integers(0, 6), st.integers(1, 6), sweep_terms(1), sweep_terms(-1),
       st.tuples(st.integers(2, 6), st.integers(0, 5)), st.lists(st.integers(0, 40), max_size=6))
def test_a_truncation_sweep_matches_random_access_on_a_fresh_copy(field, kind, shape, c0, rest,
                                                                 other, bound, reads):
    """`truncate` has a quotient fill its memo in one increasing sweep and
    reads a product point by point, in increasing order; it must give the
    terms that `coeff`, walking its stack down from each point in
    decreasing order, gives on a copy built anew, and leave a memo that
    random access reads the same.  Inverses, quotients (a finite
    factor times an inverse, either way round, and a shift of an inverse),
    products of a caller's stencil, of two inverses and nested, and the
    inverse of a quotient, on exponents x^n, x^(n/2 + k/3) and x^a y^b (a
    grid whose generators all lead in x, listed on the heap), under QQ and
    GF(7), after `coeff` reads that have filled part of the memo out of
    order."""
    u = XY if kind == "plane" else X
    sp = Space(field, u, well_ordered(u))

    def mono(a, b):
        if kind == "plane":
            return XY.monomial(x=a, y=b)
        return m(a if kind == "line" else Fraction(a, 2) + Fraction(abs(b), 3))

    def poly(terms, unit=False):
        d = {u.unit: c0} if unit else {}
        for (a, b), c in terms.items():
            if a > 0 or not unit:  # a unit's other terms lie above 1
                d[mono(a, b)] = d.get(mono(a, b), 0) + c
        return sp.series(d)

    def build():
        p, q = poly(rest, unit=True), poly(other)
        inv = invert_unit(p)
        return [inv, cauchy_product(q, inv), cauchy_product(inv, q),
                monomial_shift(inv, mono(-1, 1), 2),
                cauchy_product(sp.lazy(q.coeff, q.certificate), cauchy_product(q, inv)),
                cauchy_product(inv, invert_unit(poly(other, unit=True))),
                invert_unit(cauchy_product(inv, poly(other, unit=True)))][shape]

    if kind == "plane":
        top = XY.monomial(x=bound[0], y=bound[1] - 3)
    else:
        top = m(bound[0] + Fraction(bound[1], 6))
    swept, fresh = build(), build()
    points = swept.certificate.first_n(16)
    for i in reads if points else ():
        swept.coeff(points[i % len(points)])
    want = [(g, c) for g in reversed(fresh.certificate.elements_upto(top))
            if not field.is_zero(c := fresh.coeff(g))][::-1]
    assert list(truncate(swept, top).terms.items()) == want
    assert [swept.coeff(g) for g in points] == [fresh.coeff(g) for g in points]


def test_truncation_in_two_variables():
    """A grid whose generators lead in one variable is walked on the heap in
    frame ints; one whose generators lead in different variables has
    infinitely many points below x and abstains with the same message at
    every bound."""
    xy = MonomialUniverse(["x", "y"])
    sp = Space(QQ, xy, well_ordered(xy))
    x, y = xy.monomial(x=1), xy.monomial(y=1)
    bounds = [xy.monomial(x=3, y=-2), xy.monomial(x=Fraction(5, 2)), xy.monomial(y=3), xy.unit]
    f = invert_unit(sp.series({xy.unit: 1, x: -1, xy.monomial(x=1, y=1): -2}))
    for g in (f, cauchy_product(sp.series({xy.unit: 2, y: 1}), f), monomial_shift(f, y, 3)):
        for bound in bounds:
            assert list(truncate(g, bound).terms.items()) == monomial_truncation(g, bound)
    assert truncate(f, xy.monomial(x=2, y=2)).terms == {
        xy.unit: 1, x: 1, xy.monomial(x=1, y=1): 2, xy.monomial(x=2): 1,
        xy.monomial(x=2, y=1): 4, xy.monomial(x=2, y=2): 4}
    grid = invert_unit(sp.series({xy.unit: 1, x: -1, y: -1}))
    assert grid.certificate.format() == "grid(1; x, y)"
    for bound in bounds:
        with pytest.raises(HahnError, match=re.escape(
                "certificate grid(1; x, y) cannot be enumerated up to %s" % xy.format(bound))):
            truncate(grid, bound)


def test_invert_skips_certificate_points_below_the_leading_term():
    """A lazy unit whose certificate starts below its leading term: f is zero
    at x^-1 and x^(-1/2) and 1 + 2e at x^e for e >= 0.  A pair through a
    point below x^0 would ask for a coefficient of the inverse above the one
    being filled, so the fill must skip it, or it walks upward forever."""
    half = m(Fraction(1, 2))
    f = SP.lazy(lambda g: max(0, 1 + 2 * X.vectorize(g)[0]), DescribedSet.grid(X, m(-1), [half]))
    eps = SP.lazy(lambda g: -f.coeff(g), DescribedSet.grid(X, half, [half]))
    with time_limit(10):
        h = invert_unit(f)
        want = neumann_inverse(f, eps)
        assert [h.coeff(p) for p in PROBES] == [want.coeff(p) for p in PROBES]
        assert cauchy_product(f, h).eq_window(ONE, 24)


def test_an_inverse_on_a_finer_frame_than_its_grid():
    """f is 1 - x on grid(1; x) and zero at x^(-1/5), a point of its
    certificate below its leading term: its inverse's frame holds fifths and
    its grid only integers.  Random access moves frame coordinates onto
    the grid atom's own frame, where the atom tests them (`contains_at`),
    and a sweep has the atom list its points there (`frame_points_upto`),
    scaled onto the inverse's frame."""
    f = SP.lazy(lambda g: {m(0): 1, m(1): -1}.get(g, 0),
                DescribedSet(X, [FiniteAtom(X, [m(Fraction(-1, 5))]), GridAtom(X, m(0), [m(1)])]))
    h = invert_unit(f)
    assert h.frame.scale == 5 and h.certificate.format() == "grid(1; x)"
    assert [h.coeff(m(Fraction(k, 5))) for k in range(-5, 16)] == [
        int(k >= 0 and k % 5 == 0) for k in range(-5, 16)]
    assert truncate(invert_unit(f), m(Fraction(16, 5))).terms == {m(k): 1 for k in range(4)}
    # x times 1/(1 - x^3) is a quotient on grid(x; x^3), whose origin and
    # step are read on its own frame of integers, not on the fifths
    g = SP.lazy(lambda e: {m(0): 1, m(3): -1}.get(e, 0),
                DescribedSet(X, [FiniteAtom(X, [m(Fraction(-1, 5))]), GridAtom(X, m(0), [m(3)])]))
    q = cauchy_product(SP.series({m(1): 1}), invert_unit(g))
    assert q.frame.scale == 5 and q.certificate.format() == "grid(x; x^3)"
    assert [q.coeff(m(Fraction(k, 5))) for k in range(-5, 41)] == [
        int(k % 5 == 0 and k // 5 % 3 == 1) for k in range(-5, 41)]


QUOTIENT_BOUND = Fraction(3)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, GF(7), GF(65521)]),
       st.sampled_from(["zero", "monomial", "puiseux", "unit"]),
       st.sampled_from(["finite", "lazy", "inverse"]), st.integers(0, 4), unit_polys,
       st.sampled_from([1, 2, 3]),
       st.dictionaries(st.integers(-2, 6), st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1,
                       max_size=3),
       st.integers(-2, 2))
def test_a_quotient_is_the_fixed_point_of_its_unit_times_it(field, num_kind, unit_kind, shape,
                                                             spec, q, terms, k):
    """g * d^-1 for a finite g is the quotient h with d * h = g: d times h
    truncated at x^3 is g up to x^3, by dictionary convolution.  g is zero,
    a monomial, a few Puiseux terms or the finite unit itself; d is that
    unit, the same unit as a frameless `Space.lazy` series, or its inverse
    (a framed unit on a grid).  The shapes are g * d^-1, d^-1 * g,
    g2 * (g * d^-1), a shift of d^-1 and g / d through the evaluator, under
    QQ, GF(7) and GF(65521).  Each keeps the product's certificate, and
    `coeff` on a copy built anew agrees with the filled one.  A frameless
    copy of g times d^-1 stays a product and agrees with the quotient, and
    with a `space` given, g times d^-1 is the quotient all the same."""
    sp = Space(field, X, well_ordered(X))
    c0, q0, rest = spec
    unit = sp.series({m(0): c0, **{m(Fraction(e, q0)): c for e, c in rest.items()}})
    b = QUOTIENT_BOUND
    d_dict = exponents(unit)
    if unit_kind == "inverse":
        # h reaches down to x^-2, so d is read up to x^(b + 2)
        d_dict = dict_inverse(field, d_dict, b + 2)
    g = {"zero": sp.zero(), "monomial": sp.delta(m(Fraction(k, q)), 2), "unit": unit,
         "puiseux": sp.series({m(Fraction(e, q)): c for e, c in terms.items()})}[num_kind]
    g2 = sp.series({m(0): 2, m(Fraction(1, 2)): -1})
    s = m(Fraction(k, 2))
    env = Env(field)

    def build():
        d = {"finite": unit, "lazy": lazy(unit), "inverse": invert_unit(unit)}[unit_kind]
        inv = invert_unit(d)
        env.names.update(g=g, d=d)
        return [
            (cauchy_product(g, inv), g, g.certificate.minkowski(inv.certificate)),
            (cauchy_product(inv, g), g, inv.certificate.minkowski(g.certificate)),
            (cauchy_product(g2, q1 := cauchy_product(g, inv)), cauchy_product(g2, g),
             g2.certificate.minkowski(q1.certificate)),
            (monomial_shift(inv, s), sp.delta(s),
             sp.delta(s).certificate.minkowski(inv.certificate)),
            (Evaluator(env).eval(parse("g / d")), g, g.certificate.minkowski(inv.certificate)),
        ][shape], inv

    (h, target, cert), inv = build()
    assert h.certificate.to_record() == cert.to_record()
    if not isinstance(inv, FiniteSeries):  # d is no monomial
        assert isinstance(h, hahn._Quotient)
        product = cauchy_product(*((lazy(g), inv) if shape != 1 else (inv, lazy(g))))
        spaced = cauchy_product(*((g, inv) if shape != 1 else (inv, g)), space=sp)
        assert not isinstance(product, hahn._Quotient) and isinstance(spaced, hahn._Quotient)
        want = [product.coeff(p) for p in PROBES]
        assert [spaced.coeff(p) for p in PROBES] == want
        if shape < 2:
            assert [h.coeff(p) for p in PROBES] == want
    got = exponents(truncate(h, m(b)))
    want = {e: c for e, c in exponents(target).items() if e <= b}
    assert {e: c for e, c in dict_mul(field, d_dict, got, b).items() if c} == want
    if num_kind == "unit" and unit_kind != "inverse" and shape in (0, 1, 4):
        assert got == {0: 1}
    (fresh, _, _), _ = build()
    assert [fresh.coeff(p) for p in PROBES] == [h.coeff(p) for p in PROBES]


def test_a_quotient_fills_one_memo_in_one_sweep(monkeypatch):
    """truncate(Q * P^-1, x^8) builds one candidate reader (`_pairs`), the
    quotient's own, in its one sweep; the inverse builds none until it is
    read itself."""
    built = []
    pairs = hahn._pairs
    monkeypatch.setattr(hahn, "_pairs", lambda *a, **kw: built.append(a[1]) or pairs(*a, **kw))
    unit, num = SP.series({m(0): 1, m(2): -1, m(3): -1}), SP.series({m(0): 2, m(1): 1})
    inv = invert_unit(unit)
    h = cauchy_product(num, inv)
    assert built == []
    a = [1, 0, 1]  # 1/(1 - x^2 - x^3): a(n) = a(n - 2) + a(n - 3)
    while len(a) <= 8:
        a.append(a[-2] + a[-3])
    assert truncate(h, m(8)).terms == {m(n): 2 * a[n] + (a[n - 1] if n else 0) for n in range(9)}
    assert built == [unit]
    assert inv.coeff(m(8)) == a[8] and built == [unit, unit]


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_a_module_action_on_an_inverse_is_a_quotient_on_the_carrier(field):
    """Q acting on P^-1 in a translation module is the quotient Q/P, kept
    on the carrier: P times its truncation at x^12 is Q up to x^12, by
    dictionary convolution, and its coefficients are those of a frameless
    copy of Q acting on P^-1, which takes the product path."""
    carrier = Space(field, X, well_ordered(X))
    act = module_action(Space(field, X, all_subsets(X)), carrier)
    unit = carrier.series({m(0): 1, m(2): -1, m(3): -1})
    num = act.space.series({m(0): 2, m(1): 1})
    inv = invert_unit(unit)
    h, product = act.act(num, inv), act.act(lazy(num), inv)
    assert isinstance(h, hahn._Quotient) and not isinstance(product, hahn._Quotient)
    assert h.space == carrier
    got = exponents(truncate(h, m(12)))
    assert {e: c for e, c in dict_mul(field, exponents(unit), got, 12).items() if c} == \
        exponents(num)
    points = PROBES + [m(k) for k in range(4, 13)]
    assert [h.coeff(p) for p in points] == [product.coeff(p) for p in points]


# Exponents for the integer-frame oracle: generators and bases with
# denominators 1, 2, 3, 5 (dependent pairs such as 1/2 and 1 included, bases
# off the generators' lattice such as 1/2 under the generator 1), and
# targets in sevenths too, which leave every frame.
FRAME_GENS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2),
              Fraction(2, 5)]
FRAME_BASES = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1)]
FRAME_BOUND = Fraction(3)


def brute_points(base, gens, bound=FRAME_BOUND):
    """Independent oracle: the exponents base + sum ki*gi <= bound, by
    enumerating every ki up to (bound - base) / gi over Fractions."""
    ranges = [range(int((bound - base) / g) + 1) for g in gens]
    out = set()
    for ks in itertools.product(*ranges):
        e = base + sum(k * g for k, g in zip(ks, gens))
        if e <= bound:
            out.add(e)
    return out


frame_atoms = st.one_of(
    st.tuples(st.just("grid"), st.sampled_from(FRAME_BASES),
              st.lists(st.sampled_from(FRAME_GENS), min_size=1, max_size=2, unique=True)),
    st.tuples(st.just("finite"),
              st.lists(st.sampled_from(FRAME_BASES + FRAME_GENS), min_size=1, max_size=3,
                       unique=True)),
)
frame_targets = st.one_of(
    st.integers(0, 90).map(lambda n: Fraction(n, 30)),
    st.integers(0, 21).map(lambda n: Fraction(n, 7)),
)


def frame_atom(spec):
    """(atom, its exponents up to FRAME_BOUND) for a drawn atom spec."""
    if spec[0] == "grid":
        _, base, gens = spec
        return GridAtom(X, m(base), [m(g) for g in gens]), brute_points(base, gens)
    return FiniteAtom(X, [m(e) for e in spec[1]]), set(spec[1])


@settings(max_examples=150, deadline=None)
@given(frame_atoms, frame_atoms, frame_targets)
# grid(x^(1/2); x) times grid(1; x^(1/2), x), at x^(1/3) off the frame and
# at x^2, which has several representations in the grid x grid pair
@example(("grid", Fraction(1, 2), [Fraction(1)]),
         ("grid", Fraction(0), [Fraction(1, 2), Fraction(1)]), Fraction(1, 3))
@example(("grid", Fraction(1, 2), [Fraction(1)]),
         ("grid", Fraction(0), [Fraction(1, 2), Fraction(1)]), Fraction(2))
def test_integer_frame_matches_fraction_enumeration(spec_f, spec_g, gamma):
    """Grid membership, enumeration up to a bound and the pairs of a
    product's coefficient (`_pairs`), all run in integer frame coordinates,
    against enumeration over Fraction exponents.  f reads 1 on its side and
    `other` gives the key beta on g's side, so the pairs at gamma are the
    decompositions alpha + beta, each exactly once.  The sides are one atom
    each, then both atoms each, so a fixed alpha can also be a listed
    element's difference."""
    atom_f, pts_f = frame_atom(spec_f)
    atom_g, pts_g = frame_atom(spec_g)
    for atom, pts in ((atom_f, pts_f), (atom_g, pts_g)):
        assert atom.contains(m(gamma)) == (gamma in pts)
        assert atom.elements_upto(m(FRAME_BOUND)) == [m(e) for e in sorted(pts)]
    frame = _Frame(X, [atom_f, atom_g])
    t = frame.encode(m(gamma))
    both = pts_f | pts_g
    for f_side, g_side, on_f, on_g in (([atom_f], [atom_g], pts_f, pts_g),
                                       ([atom_f, atom_g], [atom_g, atom_f], both, both)):
        want = {(m(a), m(gamma - a)) for a in on_f if gamma - a in on_g}
        if t is None:
            assert want == set()
            continue
        f = SP.lazy(lambda g: 1, DescribedSet(X, f_side))
        g_set = DescribedSet(X, g_side)
        pairs = _pairs(frame, f, f_side, g_side)
        got = [(c, frame.decode(tuple(x - y for x, y in zip(t, b))), frame.decode(b))
               for c, b in pairs(t, lambda b: b if g_set.contains(frame.decode(b)) else None)]
        assert all(c == 1 for c, _, _ in got)
        assert sorted(p[1:] for p in got) == sorted(want)


@pytest.mark.parametrize("unit", ["finite", "product"])
def test_a_puiseux_inverse_and_its_truncation_build_no_atom_record(monkeypatch, unit):
    # an atom's record formats every element; the product sets of the
    # certificates drop repeated atoms by their structure instead
    records = []
    for cls in (FiniteAtom, ProgressionAtom, GridAtom):
        def spy(self, _orig=cls.to_record):
            records.append(self)
            return _orig(self)

        monkeypatch.setattr(cls, "to_record", spy)
    f = SP.series({m(0): 2, m(Fraction(1, 2)): 1, m(Fraction(2, 3)): -3})
    if unit == "product":
        f = cauchy_product(SP.series({m(0): 1, m(Fraction(1, 3)): 1}),
                           invert_unit(SP.series({m(0): 1, m(Fraction(1, 2)): -1})))
    records.clear()
    h = truncate(invert_unit(f), m(2))
    assert records == []
    assert truncate(cauchy_product(f, h), m(2)).terms == {X.unit: 1}


def test_deep_inverse_coefficient_needs_no_deep_recursion():
    # x^2000 of 1/(1 - x - x^2) is F(2001), asked cold at the default
    # recursion limit; the values below it are filled without recursion
    a, b = 1, 1
    for _ in range(2000):
        a, b = b, a + b
    inv = invert_unit(SP.series({m(0): 1, m(1): -1, m(2): -1}))
    assert inv.coeff(m(2000)) == a


def test_product_of_two_grid_series_matches_convolution_oracle():
    # both factors are lazy, so every coefficient takes the grid x grid path
    f = invert_unit(SP.series({m(0): 1, m(Fraction(1, 2)): -1}))
    g = invert_unit(SP.series({m(0): 2, m(Fraction(1, 3)): 1, m(Fraction(2, 3)): -3}))
    exps = [Fraction(k, 6) for k in range(19)]
    want = conv_oracle({q: f.coeff(m(q)) for q in exps}, {q: g.coeff(m(q)) for q in exps})
    prod = cauchy_product(f, g)
    assert [prod.coeff(m(q)) for q in exps] == [want.get(q, 0) for q in exps]


def test_fibonacci_coefficients():
    # 1/(1-x-x^2) = sum F_{n+1} x^n with F = 1,1,2,3,5,8,... [PAPER]
    f = SP.series({m(0): 1, m(1): -1, m(2): -1})
    inv = invert_unit(f)
    assert [inv.coeff(m(n)) for n in range(6)] == [1, 1, 2, 3, 5, 8]


def test_invert_puiseux_leading_term():
    # (2 x (1 + x^(1/2)))^-1 starts at x^-1 with coefficient 1/2
    f = SP.series({m(1): 2, m(Fraction(3, 2)): 2})
    inv = invert_unit(f)
    assert inv.coeff(m(-1)) == Fraction(1, 2)
    assert inv.coeff(m(Fraction(-1, 2))) == Fraction(-1, 2)
    assert cauchy_product(f, inv).eq_window(ONE, 24)


def test_invert_rejects_zero():
    with pytest.raises(HahnError):
        invert_unit(SP.zero())


def test_neumann_sum_is_geometric_series():
    eps = SP.series({m(1): 1})
    s = neumann_sum(eps)
    # oracle: sum x^n has all coefficients 1 [DERIVED]
    assert [s.coeff(m(n)) for n in range(6)] == [1] * 6
    assert cauchy_product(sub(ONE, eps), s).eq_window(ONE, 24)


def test_neumann_weights_are_read_only_on_the_certificate():
    """x^(23/3) lies on the frame of the grid on x^(5/3), x^(7/3) but not in
    it (23 is the Frobenius number of 5 and 7): its coefficient is zero, and
    no weight is asked for there.  x^8 = (x^(5/3))^2 (x^(7/3))^2 asks for
    the weights of n <= 8 / (5/3)."""
    asked = []
    s = neumann_sum(SP.series({m(Fraction(5, 3)): 1, m(Fraction(7, 3)): 1}),
                    lambda n: asked.append(n) or 1)
    assert s.coeff(m(Fraction(23, 3))) == 0 and asked == []
    assert s.coeff(m(8)) == 6 and asked == [0, 1, 2, 3, 4]


def test_a_neumann_grid_builds_one_lattice(monkeypatch):
    # the Neumann sum reads its grid's own `Lattice`, which its truncation
    # lists, so one lattice and one Apery table serve both
    built, tables = [], []
    fix, apery = gridsolve.Lattice._fix, gridsolve.apery_set
    monkeypatch.setattr(gridsolve.Lattice, "_fix",
                        lambda self, *a: built.append(self) or fix(self, *a))
    monkeypatch.setattr(gridsolve, "apery_set", lambda *a: tables.append(a) or apery(*a))
    s = truncate(neumann_sum(SP.series({m(Fraction(1, 2)): 1, m(Fraction(2, 3)): 1})), m(3))
    assert (len(built), len(tables)) == (1, 1)
    assert s.coeff(m(Fraction(7, 6))) == 2  # x^(1/2) x^(2/3), either way round


def test_neumann_sum_requires_positive_support():
    eps = SP.series({m(0): 1})  # support not strictly above the unit
    with pytest.raises(HahnError):
        neumann_sum(eps)


def test_progression_certificates_are_read_as_they_are():
    """A counted progression is read by its elements and a rising one by its
    origin and step, without a copy into another atom kind: products,
    Neumann sums and inverses over them agree with the same sets written as
    finite sets and grids."""
    counted = DescribedSet.progression(X, m(1), m(1), 2)  # x, x^2
    rising = DescribedSet.progression(X, m(Fraction(1, 2)), m(Fraction(1, 2)))
    assert _grid_atoms(counted) is counted.atoms

    def ones(cert):
        return SP.lazy(lambda g: 1 if cert.contains(g) else 0, cert)

    eps, half = ones(counted), ones(rising)
    eps_finite = SP.series({m(1): 1, m(2): 1})
    half_grid = ones(DescribedSet.grid(X, m(Fraction(1, 2)), [m(Fraction(1, 2))]))
    for got, want in [(cauchy_product(eps, half), cauchy_product(eps_finite, half_grid)),
                      (neumann_sum(eps), neumann_sum(eps_finite)),
                      (invert_unit(sub(ONE, half)), invert_unit(sub(ONE, half_grid)))]:
        assert [got.coeff(p) for p in PROBES] == [want.coeff(p) for p in PROBES]
    # a falling progression and an interval are no grid certificates
    for atom, text in [(ProgressionAtom(X, m(1), m(-1)), "decreasing support prog(x; x^-1)"),
                       (IntervalAtom(X, lo=m(1)), "certificate atom [x, +inf)")]:
        with pytest.raises(HahnError, match=re.escape(text + " is not grid-certified")):
            _grid_atoms(DescribedSet(X, [atom]))


def test_truncate():
    f = invert_unit(SP.series({m(0): 1, m(1): -1}))
    t = truncate(f, m(3))
    assert t.terms == {m(k): Fraction(1) for k in range(4)}


def test_factored_series_sum():
    # sum over n of n! (x + x^2)^n has coefficients 1, 1, 3, 10 at x^0..x^3
    # oracle: expand by hand: n=0 ->1; n=1 -> x+x^2; n=2 -> 2(x^2+2x^3+x^4);
    # n=3 -> 6(x^3+...), so 1, 1, 1+2=3, 4+6=10 [DERIVED]
    base = SP.series({m(1): 1, m(2): 1})
    total = SP.zero()
    power = ONE
    fact = 1
    for n in range(5):
        if n:
            fact *= n
            power = cauchy_product(power, base)
        total = add(total, SP.series(
            {g: fact * power.coeff(g) for g in power.support_window(32)}
        ))
    assert [total.coeff(m(k)) for k in range(4)] == [1, 1, 3, 10]
