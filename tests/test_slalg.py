"""Strong algebras, derivations, module actions.

Oracle notes: the Euler operator multiplies the coefficient of x^q by q,
so expected images are computed directly from that rule in the test
[DERIVED]; Leibniz instances are cross-checked with the independent
convolution oracle from the ring tests [DERIVED].
"""

import random
from fractions import Fraction

import pytest

from sigmavect.bornology import Verdict, all_subsets, finite_subsets, generate, well_ordered
from sigmavect.hahn import cauchy_product, invert_unit
from sigmavect.scalars import QQ
from sigmavect.series import SeriesError, Space, add, family_sum, finite_family, scale
from sigmavect.sets import DescribedSet
from sigmavect.slalg import (
    AlgebraError,
    BornologicalMonoid,
    ModuleAction,
    euler_derivation,
    extend_derivation,
    module_action,
    monoid_algebra,
)
from sigmavect.universe import Integers, MonomialUniverse, Naturals, PairUniverse

X = MonomialUniverse(["x"])
MONO = BornologicalMonoid(X, well_ordered(X))
SP = monoid_algebra(MONO, QQ)


def m(q):
    return X.monomial(x=Fraction(q))


def test_monoid_requires_ordered_monoid():
    P = PairUniverse(Naturals(), Naturals())
    BornologicalMonoid(P, all_subsets(P))  # fine: ordered monoid
    from sigmavect.universe import FiniteUniverse

    with pytest.raises(AlgebraError):
        BornologicalMonoid(FiniteUniverse(["a"]), all_subsets(FiniteUniverse(["a"])))


def test_product_closed_battery():
    battery = [
        DescribedSet.grid(X, X.unit, [m(1)]),
        DescribedSet.finite(X, [m(2)]),
    ]
    report = MONO.check_product_closed(battery)
    assert report["verdict"] == "accepted"
    # an interval has no grid product: the check abstains, which does not
    # refuse the algebra
    mono = BornologicalMonoid(X, all_subsets(X))
    interval = DescribedSet.interval(X, m(0), m(1))
    assert mono.check_product_closed(battery + [interval])["verdict"] == "undecided"
    assert monoid_algebra(mono, QQ, [interval]) == Space(QQ, X, all_subsets(X))


def test_monoid_algebra_is_its_space():
    assert SP == Space(QQ, X, well_ordered(X))


def test_monoid_bornology_on_another_universe_is_refused_once():
    # the monoid takes the pair as given; the space checks the universes
    mono = BornologicalMonoid(X, well_ordered(Integers()))
    with pytest.raises(SeriesError, match="bornology universe mismatch"):
        monoid_algebra(mono, QQ)


def test_algebra_unit_product_invert():
    one = SP.delta(X.unit)
    f = SP.series({m(0): 1, m(1): -1})
    assert cauchy_product(one, f).eq_window(f)
    inv = invert_unit(f)
    assert cauchy_product(f, inv).eq_window(one, 24)


def test_euler_on_monomials():
    D = euler_derivation(SP)
    f = SP.series({m(2): 3, m(Fraction(1, 2)): 4})
    img = D.apply(f)
    # oracle: coefficient at x^q is multiplied by q [DERIVED]
    assert img.coeff(m(2)) == 6
    assert img.coeff(m(Fraction(1, 2))) == 2
    assert img.coeff(m(0)) == 0


def test_euler_leibniz():
    rng = random.Random(13)
    D = euler_derivation(SP)
    for _ in range(20):
        f = SP.series({m(rng.randint(0, 5)): rng.randint(-4, 4) for _ in range(3)})
        g = SP.series({m(rng.randint(0, 5)): rng.randint(-4, 4) for _ in range(3)})
        lhs = D.apply(cauchy_product(f, g))
        rhs = add(cauchy_product(f, D.apply(g)), cauchy_product(g, D.apply(f)))
        assert lhs.eq_window(rhs)


def test_euler_strong_linearity_on_families():
    D = euler_derivation(SP)
    fam = finite_family([SP.series({m(i): 1, m(i + 1): 1}) for i in range(4)])
    w = [Fraction(k - 2) for k in range(4)]
    lhs = D.apply(family_sum(fam, lambda i: w[i], precheck=False))
    rhs = SP.zero()
    for i in fam.index:
        rhs = add(rhs, scale(w[i], D.apply(fam.member(i))))
    assert lhs.eq_window(rhs)


def test_euler_refuses_a_series_of_another_bornology():
    # prog(1; x^-1) is unbounded in the algebra's well-ordered bornology, so
    # its image would carry a certificate the algebra does not bound
    down = DescribedSet.progression(X, X.unit, m(-1))
    f = Space(QQ, X, all_subsets(X)).lazy(lambda g: 1, down)
    with pytest.raises(AlgebraError, match="outside the algebra"):
        euler_derivation(SP).apply(f)


def test_euler_requires_one_generator():
    XY = MonomialUniverse(["x", "y"])
    alg2 = monoid_algebra(BornologicalMonoid(XY, well_ordered(XY)), QQ)
    with pytest.raises(AlgebraError):
        euler_derivation(alg2)


def test_extend_derivation_verifies_battery():
    def action(gamma):
        q = X.vectorize(gamma)[0]
        return SP.series({gamma: q})

    battery = [DescribedSet.finite(X, [m(0), m(1), m(2)])]
    d = extend_derivation(SP, action, lambda delta: [delta], lambda s: s,
                          battery=battery)
    assert d.apply(SP.series({m(2): 1})).coeff(m(2)) == 2


def test_extend_derivation_rejects_lying_schema():
    def action(gamma):
        return SP.series({X.op(gamma, m(1)): 1})  # supported at gamma + 1

    # the claimed transform says supports stay put, which is false
    battery = [DescribedSet.finite(X, [m(0)])]
    with pytest.raises(AlgebraError):
        extend_derivation(SP, action, lambda delta: [delta], lambda s: s,
                          battery=battery)


def test_module_action_is_convolution_with_carrier_bornology():
    carrier = Space(QQ, X, well_ordered(X))
    act = module_action(SP, carrier)
    r = SP.series({m(1): 2})
    v = carrier.series({m(0): 1, m(3): 1})
    out = act.act(r, v)
    assert out.coeff(m(1)) == 2 and out.coeff(m(4)) == 2
    assert out.bornology == carrier.bornology


def test_module_action_field_mismatch():
    from sigmavect.scalars import GF

    carrier = Space(GF(5), X, well_ordered(X))
    with pytest.raises(AlgebraError):
        module_action(SP, carrier)


def _grid(base, *generators):
    return DescribedSet.grid(X, m(base), [m(g) for g in generators])


def test_compatibility_abstains_when_the_carrier_abstains():
    # grid(1; x^(1/3), x) is not known to be bounded in the carrier, so the
    # check must not accept
    act = module_action(monoid_algebra(BornologicalMonoid(X, all_subsets(X)), QQ),
                        Space(QQ, X, generate(X, [_grid(0, 1)])))
    report = act.check_compatible([_grid(0, Fraction(1, 3))], [_grid(0, 1)])
    assert report["verdict"] == "undecided"
    assert report["witnesses"] == [("grid(1; x^(1/3))", "grid(1; x)", "grid(1; x^(1/3), x)")]


def test_compatibility_abstains_on_a_set_with_no_grid_product():
    act = module_action(monoid_algebra(BornologicalMonoid(X, all_subsets(X)), QQ),
                        Space(QQ, X, well_ordered(X)))
    interval = DescribedSet.interval(X, m(0), m(1))
    report = act.check_compatible([interval], [_grid(0, 1)])
    assert report["verdict"] == "undecided"
    assert "not grid-certified" in report["witnesses"][0][2]


def test_compatibility_rejection_is_not_downgraded_by_a_later_abstention():
    # every grid times {1} is infinite, so unbounded in a finite-sets carrier
    alg = monoid_algebra(BornologicalMonoid(X, all_subsets(X)), QQ)
    carrier = Space(QQ, X, finite_subsets(X))
    scalars = [_grid(0, 1), DescribedSet.interval(X, m(0), m(1))]
    units = [DescribedSet.finite(X, [m(0)])]
    report = ModuleAction(alg, carrier).check_compatible(scalars, units)
    assert report["verdict"] == "rejected"
    assert len(report["witnesses"]) == 2
    with pytest.raises(AlgebraError, match="incompatible action"):
        module_action(alg, carrier, scalars, units)


def test_product_closure_rejects_a_grid_product_off_its_generator():
    # grid(x^(1/2); x) squared is grid(x; x), which meets the one generator
    # grid(x^(1/2); x) nowhere, so it is unbounded in the bornology it generates
    half = _grid(Fraction(1, 2), 1)
    mono = BornologicalMonoid(X, generate(X, [half]))
    report = mono.check_product_closed([half])
    assert report["verdict"] == "rejected"
    assert report["witnesses"] == [("grid(x^(1/2); x)", "grid(x^(1/2); x)", "grid(x; x)")]
    with pytest.raises(AlgebraError, match="not product-closed"):
        monoid_algebra(mono, QQ, [half])
