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
from sigmavect.bornology import well_ordered
from sigmavect.hahn import (
    HahnError,
    _decompositions,
    _Frame,
    _grid_atoms,
    cauchy_product,
    invert_unit,
    leading_term,
    monomial_shift,
    neumann_sum,
    product_many,
    truncate,
)
from sigmavect.scalars import GF, QQ
from sigmavect.series import Space, add, sub
from sigmavect.sets import DescribedSet, FiniteAtom, GridAtom, IntervalAtom, ProgressionAtom
from sigmavect.universe import MonomialUniverse

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


def test_product_many():
    f = SP.series({m(0): 1, m(1): 1})
    p3 = product_many([f, f, f])
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


def dict_mul(field, d1, d2):
    """Dictionary convolution, cut at NEST_BOUND, of exponent -> coefficient
    dicts whose exponents are >= 0."""
    out = {}
    for a, ca in d1.items():
        for b, cb in d2.items():
            if a + b <= NEST_BOUND:
                out[a + b] = out.get(a + b, field.zero) + ca * cb
    return out


def dict_inverse(field, d):
    """The inverse of c0 (1 - eps), d's constant term c0 != 0, as
    c0^-1 * sum eps^n cut at NEST_BOUND, by dictionary convolution."""
    c0inv = field.one / d[Fraction(0)]
    eps = {e: -c * c0inv for e, c in d.items() if e != 0}
    total, power = {Fraction(0): c0inv}, {Fraction(0): c0inv}
    while power:
        power = {e: c for e, c in dict_mul(field, power, eps).items()}
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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(0, 3), laurent_polys, unit_polys,
       unit_polys, st.integers(-3, 3))
def test_stencils_match_the_generic_path(field, shape, spec, u1, u2, shift):
    """A finite factor is read as a stencil; the same factor wrapped as a
    frameless `Space.lazy` series takes the decompositions.  Products either
    way round, shifts and inverses must agree on a box, for Laurent and
    Puiseux factors over QQ and GF(7), against framed factors that are an
    inverse, a product of inverses, a stencil product and a shift."""
    sp, p, f2, framed = stencil_factors(field, shape, spec, u1, u2)
    p_lazy = lazy(p)
    s = m(Fraction(shift, spec[0]))
    pairs = [
        (cauchy_product(p, framed), cauchy_product(p_lazy, framed)),
        (cauchy_product(framed, p), cauchy_product(framed, p_lazy)),
        (monomial_shift(framed, s, 2), cauchy_product(lazy(sp.delta(s, 2)), framed)),
        (invert_unit(p), invert_unit(p_lazy)),
        # nested: a stencil over a stencil product, and over the stencil inverse
        (cauchy_product(p, cauchy_product(p, framed)),
         cauchy_product(p_lazy, cauchy_product(p_lazy, framed))),
        (cauchy_product(f2, invert_unit(p)), cauchy_product(lazy(f2), invert_unit(p_lazy))),
    ]
    for got, want in pairs:
        assert [got.coeff(g) for g in STENCIL_PROBES] == [want.coeff(g) for g in STENCIL_PROBES]


def monomial_truncation(f, bound):
    """The terms of f up to bound, listed through the certificate's
    monomials (`elements_upto`) and read by `coeff`, zeros dropped."""
    terms = [(g, f.coeff(g)) for g in f.certificate.elements_upto(bound)]
    return [(g, c) for g, c in terms if not f.field.is_zero(c)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(0, 3), laurent_polys, unit_polys,
       unit_polys, st.integers(-3, 3), st.integers(-24, 36), st.integers(0, 6))
def test_framed_truncation_matches_the_monomial_path(field, shape, spec, u1, u2, shift, k, i):
    """`truncate` walks a framed series on its frame's ints; it must keep
    the terms, in order, that the certificate's monomials give, for
    products either way round, inverses, stencil products and shifts, at
    bounds x^(k/6) (on the frame or off it), below the support and at a
    certificate point."""
    sp, p, f2, framed = stencil_factors(field, shape, spec, u1, u2)
    s = m(Fraction(shift, spec[0]))
    # frameless factors on a finite atom and on a counted progression give
    # framed products whose certificates hold finite atoms and counted
    # progressions
    counted = sp.lazy(lambda g: field.one, DescribedSet(X, [ProgressionAtom(X, s, m(Fraction(1, 3)), 7)]))
    for f in [framed, cauchy_product(p, framed), cauchy_product(framed, p),
              monomial_shift(framed, s, 2), invert_unit(p),
              cauchy_product(p, cauchy_product(p, framed)), cauchy_product(f2, invert_unit(p)),
              cauchy_product(lazy(p), f2), cauchy_product(counted, f2),
              cauchy_product(counted, framed)]:
        points = f.certificate.first_n(i + 1)
        below = X.op(points[0], m(-1))
        for bound in (m(Fraction(k, 6)), points[-1], below):
            assert list(truncate(f, bound).terms.items()) == monomial_truncation(f, bound)
        assert not truncate(f, below).terms


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
    """Grid membership, enumeration up to a bound and the decompositions of
    a product, all run in integer frame coordinates, against enumeration
    over Fraction exponents."""
    atom_f, pts_f = frame_atom(spec_f)
    atom_g, pts_g = frame_atom(spec_g)
    for atom, pts in ((atom_f, pts_f), (atom_g, pts_g)):
        assert atom.contains(m(gamma)) == (gamma in pts)
        assert atom.elements_upto(m(FRAME_BOUND)) == [m(e) for e in sorted(pts)]
    frame = _Frame(X, [atom_f, atom_g])
    t = frame.encode(m(gamma))
    got = set()
    if t is not None:
        got = {(frame.decode(a), frame.decode(b))
               for a, b in _decompositions(frame, atom_f, atom_g)(t)}
    want = {(m(a), m(gamma - a)) for a in pts_f if gamma - a in pts_g}
    assert got == want


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
