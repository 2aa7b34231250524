"""Exact linear algebra, dual bases, and one-step span closure.

Oracle notes: rref/kernel/solve results are verified against independent
dense checks written in the test (multiplying back, substituting solutions)
[DERIVED]; span membership against a second, independently coded Gaussian
elimination [DERIVED].
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmavect.closure import (
    ClosureError,
    FunctionalFamily,
    IdempotenceFailure,
    PatternGenerator,
    SigmaSpanOracle,
    VectorGenerator,
    dense_sigma_closed_example,
    dual_basis_construction,
    idempotence_check,
    kernel_basis,
    rank,
    rref,
    solve_combination,
)
from sigmavect.scalars import GF, QQ, FpElement


def independent_solve(columns, target):
    """Second opinion: Gaussian elimination coded from scratch."""
    if not columns:
        return [] if all(c == 0 for c in target) else None
    rows = len(target)
    cols = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(cols)] + [Fraction(target[i])]
           for i in range(rows)]
    r = 0
    where = [-1] * cols
    for c in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        where[c] = r
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c] / aug[r][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    sol = [Fraction(0)] * cols
    for c in range(cols):
        if where[c] != -1:
            sol[c] = aug[where[c]][cols] / aug[where[c]][c]
    for i in range(rows):
        if sum(sol[j] * Fraction(columns[j][i]) for j in range(cols)) != target[i]:
            return None
    return sol


def test_rref_properties():
    rows = [[1, 2, 3], [2, 4, 7], [0, 0, 1]]
    red, pivots = rref(rows)
    assert pivots == [0, 2]
    # pivot columns are standard unit vectors [DERIVED]
    for r, p in zip(red, pivots):
        assert r[p] == 1
        for other, q in zip(red, pivots):
            if q != p:
                assert other[p] == 0


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([]) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=1, max_size=4),
       st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_solve_combination_matches_independent_solver(cols, target):
    target = [Fraction(t) for t in target]
    got = solve_combination(cols, target)
    want = independent_solve(cols, target)
    if got is None:
        assert want is None
    else:
        # both must reproduce the target exactly
        for i in range(4):
            assert sum(got[j] * Fraction(cols[j][i]) for j in range(len(cols))) == target[i]
        assert want is not None
        assert got == want  # the free columns get zero


def gauss_jordan(rows):
    """Second opinion on `rref`: Gauss-Jordan on field elements, coded from
    scratch, over GF(p) when an entry is an FpElement and over QQ otherwise."""
    p = next((x.p for r in rows for x in r if isinstance(x, FpElement)), None)
    field = QQ if p is None else GF(p)
    mat = [[field.of(x) for x in r] for r in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat[:len(pivots)], pivots


@st.composite
def _matrices(draw):
    """Up to 7 x 8 rows over QQ (ints and Fractions) or over GF(p), where
    FpElements mix with ints and Fractions, with a zero row or a repeated row
    drawn in."""
    p = draw(st.sampled_from([None, 2, 5, 7, 101]))
    ints = st.integers(-30, 30)
    entries = st.one_of(ints, st.fractions(-30, 30, max_denominator=12))
    if p is not None:
        entries = st.one_of(entries, ints.map(lambda v: FpElement(v, p)))
    m = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=1, max_size=5))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * m)
    if draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if p is not None:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, m - 1))
        rows[i][j] = FpElement(draw(ints), p)
    return rows


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_rref_matches_gauss_jordan_on_field_elements(rows):
    try:
        want = gauss_jordan(rows)
    except ZeroDivisionError as exc:
        # a denominator that vanishes mod p
        with pytest.raises(ZeroDivisionError) as got:
            rref(rows)
        assert str(got.value) == str(exc)
        return
    red, pivots = rref(rows)
    assert pivots == want[1]
    assert red == want[0]
    assert [[type(x) for x in r] for r in red] == [[type(x) for x in r] for r in want[0]]


def _gf5_vectors(length):
    return st.lists(st.integers(0, 4).map(lambda v: FpElement(v, 5)),
                    min_size=length, max_size=length)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.lists(_gf5_vectors(n), max_size=3), _gf5_vectors(n))))
def test_solve_combination_and_rank_over_gf5_match_enumeration(case):
    cols, target = case
    n, m = len(target), len(cols)

    def combine(x):
        return tuple(sum(x[j] * cols[j][i].value for j in range(m)) % 5 for i in range(n))

    def combinations(k):  # of the first k columns
        return itertools.product(range(5), repeat=k)

    span = {}
    for x in combinations(m):
        span.setdefault(combine(x), []).append(x)
    # |span| = 5^rank [DERIVED]
    assert 5 ** rank(cols) == len(span)
    # a column in the span of the earlier ones is free: it gets zero
    free = [j for j in range(m)
            if combine([int(i == j) for i in range(m)])
            in {combine(x + (0,) * (m - j)) for x in combinations(j)}]
    got = solve_combination(cols, target)
    key = tuple(t.value for t in target)
    if key not in span:
        assert got is None
        return
    want = [x for x in span[key] if all(x[j] == 0 for j in free)]
    assert len(want) == 1
    assert all(isinstance(c, FpElement) and c.p == 5 for c in got)
    assert [c.value for c in got] == list(want[0])


def test_kernel_basis_annihilates():
    rows = [[1, 1, 0, 0], [0, 0, 1, -1]]
    kb = kernel_basis(rows, 4)
    assert len(kb) == 2
    for v in kb:
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, v)) == 0
        lead = next(i for i, c in enumerate(v) if c != 0)
        assert v[lead] == 1


def test_functional_family_validation():
    with pytest.raises(ClosureError):
        FunctionalFamily([{-1: 1}])
    fam = FunctionalFamily([{0: 1, 3: 2}])
    assert fam.width == 4
    assert fam.as_lists() == [[1, 0, 0, 2]]


def test_dual_basis_construction_properties():
    rng = random.Random(11)
    for trial, field in enumerate([QQ, GF(7)] * 20):
        rows = [
            {rng.randint(0, 6): field.of(rng.randint(-3, 3)) for _ in range(3)}
            for _ in range(rng.randint(1, 4))
        ]
        fam = FunctionalFamily(rows)
        lists = fam.as_lists()
        # every other pair of trials cuts the basis below the rank of the rows
        depth = 10 if trial % 4 < 2 else max(rank(lists) - 1, 0)
        cb = dual_basis_construction(fam, depth)
        assert len(cb.vectors) == depth
        width = max((len(v) for v in cb.vectors), default=0)
        padded = [list(v) + [field.zero] * (width - len(v)) for v in cb.vectors]
        # independence via the independent rank oracle
        assert rank(padded) == depth
        for mrow, row in enumerate(lists):
            # annihilation beyond the bound
            for n in range(cb.bounds[mrow], depth):
                v = cb.vectors[n]
                assert sum(row[i] * v[i] for i in range(min(len(row), len(v)))) == field.zero
            # recovery: the row equals its stated combination of coordinate
            # functionals relative to the constructed basis
            cmap = dict(cb.recovery[mrow])
            assert all(j < depth and type(c) is type(field.zero) and c != field.zero for j, c in cmap.items())
            for j, v in enumerate(cb.vectors):
                val = sum(row[i] * v[i] for i in range(min(len(row), len(v))))
                assert val == cmap.get(j, field.zero)


def test_pattern_generator():
    g = PatternGenerator({0: 1, 1: -1}, 1)
    assert g.member(3) == {3: Fraction(1), 4: Fraction(-1)}
    assert g.members_touching(4) == [0, 1, 2, 3]
    with pytest.raises(ClosureError):
        PatternGenerator({0: 1}, 0)


def test_sigma_span_accepts_with_certificate():
    oracle = SigmaSpanOracle([PatternGenerator({0: 1, 1: -1}, 1)], 8)
    verdict, cert = oracle.decide({0: 1})
    assert verdict == "accepted"
    assert cert  # a nonempty explicit combination
    # replay the certificate independently
    cols = dict(oracle.columns)
    total = [Fraction(0)] * 8
    for desc, c in cert:
        vec = cols[desc]
        total = [t + c * v for t, v in zip(total, vec)]
    assert total == [Fraction(1)] + [Fraction(0)] * 7


def test_generator_coordinates_must_be_naturals():
    # a negative coordinate once wrapped to the end of the window (or was
    # dropped), so e3 was accepted as the "member" delta_-1
    with pytest.raises(ClosureError):
        SigmaSpanOracle([PatternGenerator({-1: 1}, 3)], 4).decide([0, 0, 0, 1])
    with pytest.raises(ClosureError):
        VectorGenerator({-1: 1})
    with pytest.raises(ClosureError):
        FunctionalFamily([{-2: 1}])


def test_sigma_span_rejects_outside():
    oracle = SigmaSpanOracle([VectorGenerator({0: 1})], 4)
    assert oracle.decide({1: 1}) == ("rejected", None)


def test_idempotence_pass():
    report = idempotence_check([PatternGenerator({0: 1, 2: 1}, 2)], 12)
    assert report["verdict"] == "PASS"
    assert report["accepted_round1"] > 0


def test_idempotence_fail_aborts_with_witness():
    gens = [PatternGenerator({0: 1, 1: -1}, 1)]
    with pytest.raises(IdempotenceFailure) as exc:
        idempotence_check(gens, 12, weaken_first=2)
    w = exc.value.witness
    assert w["window"] == 12
    assert w["new_vectors"]


def test_dense_example_solves_density_targets():
    report = dense_sigma_closed_example(
        2, 6,
        targets=[{0: Fraction(3), 1: Fraction(5)}],
        families=[[(Fraction(1), [1, 0]), (Fraction(2), [0, 1])]],
    )
    assert report["density"][0]["solved"] is True
    assert all(report["sigma_closed_spot_checks"])
    assert "shadow" in report["label"]


def test_dense_example_rejects_overdetermined_target():
    # three constraints on a 2-dimensional prefix are generically unsolvable
    report = dense_sigma_closed_example(
        2, 6,
        targets=[{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}],
    )
    assert report["density"][0]["solved"] is False
