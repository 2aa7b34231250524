"""Sum-preserving linear maps, duals, functionals, tensors.

Oracle notes: map application and composition are checked against dense
matrix arithmetic done independently in the test (plain nested loops over
Fractions) [DERIVED]; tensors against the Kronecker product [DERIVED].
"""

import random
from fractions import Fraction

import pytest

from sigmavect.bornology import all_subsets, finite_subsets
from sigmavect.scalars import QQ
from sigmavect.series import FiniteSeries, Space, family_sum, finite_family, pairing
from sigmavect.sets import DescribedSet, ProductAtom
from sigmavect.strmap import (
    MapError,
    check_sigma_preserving,
    compose,
    extend_biperp,
    functional_to_series,
    identity_map,
    map_family,
    matrix_map,
    pure_tensor,
    series_to_functional,
    tensor_map,
)
from sigmavect.universe import Naturals, PairUniverse

N = Naturals()
SEQ = Space(QQ, N, finite_subsets(N))
DUAL = Space(QQ, N, all_subsets(N))
SIZE = 8


def dense(entries, size=SIZE):
    return [[Fraction(entries.get(d, {}).get(g, 0)) for g in range(size)]
            for d in range(size)]


def matvec(mat, vec):
    return [sum(row[j] * vec[j] for j in range(len(vec))) for row in mat]


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def make_map(entries, space=DUAL):
    return matrix_map(
        space,
        lambda d: entries.get(d, {}),
        lambda g: [d for d, row in entries.items() if row.get(g)],
    )


def rand_entries(rng, size=SIZE, band=2):
    return {
        d: {g: rng.randint(-3, 3) for g in range(max(0, d - band), min(size, d + band))}
        for d in range(size)
    }


def test_identity_map():
    m = identity_map(SEQ)
    f = SEQ.series({0: 1, 5: -2})
    assert m.apply(f).eq_window(f)


def test_apply_matches_dense_matvec():
    rng = random.Random(3)
    for _ in range(10):
        entries = rand_entries(rng)
        m = make_map(entries)
        vec = [Fraction(rng.randint(-4, 4)) for _ in range(SIZE)]
        f = DUAL.series({i: c for i, c in enumerate(vec)})
        got = m.apply(f)
        want = matvec(dense(entries), vec)
        assert [got.coeff(i) for i in range(SIZE)] == want


def test_adjunction_matches_transpose():
    rng = random.Random(4)
    for _ in range(10):
        entries = rand_entries(rng)
        m = make_map(entries)
        f = DUAL.series({i: rng.randint(-3, 3) for i in range(SIZE)})
        g = SEQ.series({i: rng.randint(-3, 3) for i in range(SIZE)})
        lhs = pairing(m.apply(f), g, declared_dual=True)
        rhs = pairing(f, m.dual().apply(g), declared_dual=True)
        assert lhs == rhs
        # independent check against the dense transpose [DERIVED]
        mat = dense(entries)
        fv = [f.coeff(i) for i in range(SIZE)]
        gv = [g.coeff(i) for i in range(SIZE)]
        want = sum(x * y for x, y in zip(matvec(mat, fv), gv))
        assert lhs == want


def test_dual_dual_is_original():
    rng = random.Random(5)
    entries = rand_entries(rng)
    m = make_map(entries)
    f = DUAL.series({i: rng.randint(-3, 3) for i in range(SIZE)})
    assert m.dual().dual().apply(f).eq_window(m.apply(f))


def test_compose_matches_matrix_product():
    rng = random.Random(6)
    e1, e2 = rand_entries(rng), rand_entries(rng)
    m1, m2 = make_map(e1), make_map(e2)
    c = compose(m2, m1)
    vec = [Fraction(rng.randint(-3, 3)) for _ in range(SIZE)]
    f = DUAL.series({i: v for i, v in enumerate(vec)})
    got = c.apply(f)
    want = matvec(matmul(dense(e2), dense(e1)), vec)
    assert [got.coeff(i) for i in range(SIZE)] == want


def test_functional_roundtrip():
    g = SEQ.series({0: 1, 4: Fraction(-2, 3)})
    xi = series_to_functional(g)
    f = DUAL.series({0: 5, 4: 3, 9: 100})
    # oracle: 5*1 + 3*(-2/3) = 3 [DERIVED]
    assert xi.apply(f).coeff("*") == 3
    back = functional_to_series(xi)
    assert back.eq_window(g)


def test_compose_columns_match_matrix_product():
    # a column of m2 after m1 is the image of a basis delta: the column of
    # the matrix product
    rng = random.Random(6)
    e1, e2 = rand_entries(rng), rand_entries(rng)
    c = compose(make_map(e2), make_map(e1))
    want = matmul(dense(e2), dense(e1))
    for g in range(SIZE):
        col = c.col(g)
        assert [col.coeff(d) for d in range(SIZE)] == [want[d][g] for d in range(SIZE)]


def test_a_functional_transposes_to_scaling_its_series():
    # the transpose of f -> <f, g> sends c at the point to c * g: its columns
    # are g's coefficients, and its schema gives g's certificate, or the
    # empty set for a zero argument
    g = SEQ.series({0: 1, 4: Fraction(-2, 3)})
    xi = series_to_functional(g)
    assert [xi.col(n).coeff("*") for n in range(6)] == [1, 0, 0, 0, Fraction(-2, 3), 0]
    back = xi.dual()
    image = back.apply(back.source.series({"*": 3}))
    # oracle: 3 * {0: 1, 4: -2/3} [DERIVED]
    assert [image.coeff(n) for n in range(6)] == [3, 0, 0, 0, -2, 0]
    assert back.apply(back.source.zero()).is_zero()


def test_functional_to_series_rejects_non_functionals():
    with pytest.raises(MapError):
        functional_to_series(identity_map(SEQ))


def test_extend_biperp_retags_spaces():
    from sigmavect.bornology import order_type_omega, perp
    from sigmavect.universe import Integers

    Z = Integers()
    sp = Space(QQ, Z, order_type_omega(Z))
    ext = extend_biperp(identity_map(sp))
    # the double dual of "order type omega" is the well-ordered bornology
    want = perp(perp(sp.bornology))
    assert ext.source.bornology.to_record() == want.to_record()
    assert ext.source.bornology.kind == "wo"
    f = sp.series({2: 1})
    assert ext.apply(f).coeff(2) == 1


def test_tensor_map_matches_kronecker():
    rng = random.Random(8)
    size = 3
    e1 = {d: {g: rng.randint(-2, 2) for g in range(size)} for d in range(size)}
    e2 = {d: {g: rng.randint(-2, 2) for g in range(size)} for d in range(size)}
    m1, m2 = make_map(e1), make_map(e2)
    t = tensor_map(m1, m2)
    u = PairUniverse(N, N)
    f1 = DUAL.series({i: rng.randint(-2, 2) for i in range(size)})
    f2 = DUAL.series({i: rng.randint(-2, 2) for i in range(size)})
    f = pure_tensor(t.source, f1, f2)
    got = t.apply(f)
    # oracle: Kronecker product acting on the flattened vector [DERIVED]
    a, b = dense(e1, size), dense(e2, size)
    v1 = [f1.coeff(i) for i in range(size)]
    v2 = [f2.coeff(i) for i in range(size)]
    w1, w2 = matvec(a, v1), matvec(b, v2)
    for i in range(size):
        for j in range(size):
            assert got.coeff((i, j)) == w1[i] * w2[j]


def test_tensor_map_lifts_a_product_certificate_and_reads_columns():
    # a lazy pure tensor is certified by one product atom, which the schema
    # lifts side by side; a column of the tensor map is the pure tensor of
    # its factors' columns
    rng = random.Random(10)
    size = 3
    e1 = {d: {g: rng.randint(-2, 2) for g in range(size)} for d in range(size)}
    e2 = {d: {g: rng.randint(-2, 2) for g in range(size)} for d in range(size)}
    t = tensor_map(make_map(e1), make_map(e2))
    v1 = [rng.randint(-2, 2) for _ in range(size)]
    v2 = [rng.randint(-2, 2) for _ in range(size)]
    f1 = DUAL.lazy(lambda n: v1[n] if n < size else 0, DescribedSet.finite(N, range(size)))
    f = pure_tensor(t.source, f1, DUAL.series(dict(enumerate(v2))))
    assert [type(a) for a in f.certificate.atoms] == [ProductAtom]
    got = t.apply(f)
    # oracle: Kronecker product acting on the flattened vector [DERIVED]
    a, b = dense(e1, size), dense(e2, size)
    w1, w2 = matvec(a, v1), matvec(b, v2)
    pts = [(i, j) for i in range(size) for j in range(size)]
    assert [got.coeff(p) for p in pts] == [w1[i] * w2[j] for i, j in pts]
    for g1, g2 in pts:
        col = t.col((g1, g2))
        assert [col.coeff(p) for p in pts] == [a[i][g1] * b[j][g2] for i, j in pts]


def test_pure_tensor_coefficients():
    u = PairUniverse(N, N)
    from sigmavect.bornology import product_bornology

    space = Space(QQ, u, product_bornology(DUAL.bornology, DUAL.bornology, u))
    f = pure_tensor(space, DUAL.series({0: 2, 1: 3}), DUAL.series({0: 5}))
    assert f.coeff((0, 0)) == 10 and f.coeff((1, 0)) == 15 and f.coeff((0, 1)) == 0


def test_pure_tensor_of_a_lazy_factor_is_lazy_on_the_product_certificate():
    from sigmavect.bornology import product_bornology

    u = PairUniverse(N, N)
    space = Space(QQ, u, product_bornology(DUAL.bornology, DUAL.bornology, u))
    f1 = DUAL.lazy(lambda n: n + 1, DescribedSet.progression(N, 0, 1))
    f2 = DUAL.series({0: 2, 3: -1})
    f = pure_tensor(space, f1, f2)
    assert not isinstance(f, FiniteSeries)
    assert f.certificate.atoms == (ProductAtom(u, f1.certificate, f2.certificate),)
    # oracle: the coefficient at (i, j) is f1(i) * f2(j) [DERIVED]
    for i in range(6):
        for j in range(5):
            assert f.coeff((i, j)) == (i + 1) * {0: 2, 3: -1}.get(j, 0)


def test_map_family_and_sigma_preservation():
    rng = random.Random(9)
    entries = rand_entries(rng)
    m = make_map(entries)
    fam = finite_family([DUAL.series({i: 1, i + 1: 1}) for i in range(4)])
    assert check_sigma_preserving(m, fam, lambda i: Fraction(i - 1))
    img = map_family(m, fam)
    # each mapped member agrees with applying the map directly
    for i in fam.index:
        assert img.member(i).eq_window(m.apply(fam.member(i)))


def test_default_schemas_refuse_a_support_not_known_finite():
    # f = 1 on 5, 6, ...; the image at 4 is f(4) + f(5) = 1, and a default
    # schema that passed the support through unchanged missed 4
    entries = lambda d: {d: 1, d + 1: 1}
    touching = lambda g: [d for d in (g - 1, g) if d >= 0]
    f = DUAL.lazy(lambda n: 1, DescribedSet.progression(N, 5, 1))
    with pytest.raises(MapError, match="prog"):
        matrix_map(DUAL, entries, touching).apply(f)
    row = SEQ.dual().lazy(lambda n: 1, DescribedSet.progression(N, 5, 1))
    with pytest.raises(MapError, match="prog"):
        matrix_map(SEQ, entries, touching).dual().apply(row)
    # finite supports keep the default schemas
    g = DUAL.series({5: 1})
    image = matrix_map(DUAL, entries, touching).apply(g)
    assert [image.coeff(d) for d in range(7)] == [0, 0, 0, 0, 1, 1, 0]
    # a caller's schema covers the infinite support and gives the true value
    cover = lambda s: DescribedSet.interval(N, lo=4)
    assert matrix_map(DUAL, entries, touching, cover, cover).apply(f).coeff(4) == 1
