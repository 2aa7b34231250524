"""Bornologies: ideal axioms, duals, products, hom spaces.

Oracle notes: verdicts are compared against ground truth known at
construction time (a progression built with a positive step IS unbounded
above, etc.) [DERIVED].  The safety property throughout: a three-valued
verdict may abstain but must never be definitely wrong.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmavect.bornology import (
    Verdict,
    all_subsets,
    finite_subsets,
    generate,
    hom_bornology,
    order_type_omega,
    perp,
    product_bornology,
    reverse_well_ordered,
    well_ordered,
)
from sigmavect.sets import (
    ComplementAtom,
    DescribedSet,
    FiniteAtom,
    GridAtom,
    IntervalAtom,
    ProductAtom,
    ProgressionAtom,
)
from sigmavect.universe import (
    FiniteUniverse,
    Integers,
    MonomialUniverse,
    Naturals,
    PairUniverse,
    Rationals,
    TupleUniverse,
)

Z = Integers()
N = Naturals()

NATS = DescribedSet.progression(Z, 0, 1)
NEG_NATS = DescribedSet.progression(Z, 0, -1)
EVENS = DescribedSet.progression(Z, 0, 2)
SMALL = DescribedSet.finite(Z, [-3, 0, 7])


def battery():
    return [
        SMALL,
        DescribedSet.finite(Z, []),
        NATS,
        NEG_NATS,
        EVENS,
        DescribedSet.grid(Z, 1, [3]),
        NATS.union(SMALL),
        NEG_NATS.union(EVENS),
    ]


def test_verdict_is_not_a_bool():
    with pytest.raises(TypeError):
        bool(Verdict.BOUNDED)


def test_basic_bornologies_on_ground_truth():
    assert finite_subsets(Z).is_bounded(SMALL) is Verdict.BOUNDED
    assert finite_subsets(Z).is_bounded(NATS) is Verdict.UNBOUNDED
    assert all_subsets(Z).is_bounded(NATS) is Verdict.BOUNDED
    assert well_ordered(Z).is_bounded(NATS) is Verdict.BOUNDED
    assert well_ordered(Z).is_bounded(NEG_NATS) is Verdict.UNBOUNDED
    assert reverse_well_ordered(Z).is_bounded(NEG_NATS) is Verdict.BOUNDED
    assert reverse_well_ordered(Z).is_bounded(NATS) is Verdict.UNBOUNDED
    assert order_type_omega(Z).is_bounded(EVENS) is Verdict.BOUNDED


def test_singletons_always_bounded():
    for b in (finite_subsets(Z), well_ordered(Z), order_type_omega(Z)):
        assert b.is_bounded(DescribedSet.finite(Z, [42])) is Verdict.BOUNDED


def test_ideal_downward_closure_on_battery():
    # every finite subset of a bounded battery set is bounded
    b = order_type_omega(Z)
    for s in battery():
        if b.is_bounded(s) is Verdict.BOUNDED:
            sub = DescribedSet.finite(Z, list(s.first_n(3)))
            assert b.is_bounded(sub) is Verdict.BOUNDED


def test_perp_decides_directions():
    # the dual of "order type omega" consists of the reverse-well-ordered sets
    d = perp(order_type_omega(Z))
    assert d.is_bounded(NEG_NATS) is Verdict.BOUNDED
    assert d.is_bounded(NATS) is Verdict.UNBOUNDED


def test_biperp_collapses_to_well_ordered():
    dd, wo = perp(perp(order_type_omega(Z))), well_ordered(Z)
    assert [s for s in battery() if dd.is_bounded(s) is not wo.is_bounded(s)] == []


def test_perp_rewrite_table():
    assert perp(finite_subsets(Z)).kind == "all"
    assert perp(all_subsets(Z)).kind == "finite"
    assert perp(well_ordered(Z)).kind == "rwo"
    assert perp(reverse_well_ordered(Z)).kind == "wo"
    assert perp(order_type_omega(Z)).kind == "rwo"


def test_triple_perp_collapse():
    b = generate(Z, [EVENS])
    assert perp(perp(perp(b))).to_record() == perp(b).to_record()


def test_generated_bornology_exact_verdicts():
    b = generate(Z, [EVENS, SMALL])
    assert b.is_bounded(EVENS) is Verdict.BOUNDED
    assert b.is_bounded(DescribedSet.finite(Z, [0, 2, 4])) is Verdict.BOUNDED
    # odds meet the generators finitely, hence definitely unbounded in b
    odds = DescribedSet.progression(Z, 1, 2)
    assert b.is_bounded(odds) is Verdict.UNBOUNDED


def test_perp_of_generated_is_exact():
    b = generate(Z, [EVENS])
    d = perp(b)
    odds = DescribedSet.progression(Z, 1, 2)
    assert d.is_bounded(odds) is Verdict.BOUNDED       # meets evens nowhere
    assert d.is_bounded(SMALL) is Verdict.BOUNDED      # finite
    assert d.is_bounded(EVENS) is Verdict.UNBOUNDED    # meets itself infinitely


# -- products and homs ----------------------------------------------------

NN = PairUniverse(N, N)


def _pair_cases():
    """(set, left projection finite?, right projection finite?) triples."""
    fin_pts = DescribedSet.finite(NN, [(0, 0), (2, 5)])
    col = DescribedSet.product(
        NN, DescribedSet.finite(N, [1]), DescribedSet.progression(N, 0, 1)
    )
    row = DescribedSet.product(
        NN, DescribedSet.progression(N, 0, 1), DescribedSet.finite(N, [2])
    )
    diag = DescribedSet.progression(NN, (0, 0), (1, 1))
    horiz = DescribedSet.progression(NN, (0, 3), (1, 0))
    return [
        (fin_pts, True, True),
        (col, True, False),
        (row, False, True),
        (diag, False, False),
        (horiz, False, True),
    ] + [(GRIDS[name], lf, rf) for name, (lf, rf, _, _) in GRID_FACTS.items()]


GRIDS = {
    "column": DescribedSet.grid(NN, (0, 0), [(0, 1)]),
    "row": DescribedSet.grid(NN, (0, 0), [(1, 0)]),
    "diagonal": DescribedSet.grid(NN, (0, 0), [(1, 1)]),
    "quadrant": DescribedSet.grid(NN, (0, 0), [(0, 1), (1, 0)]),
}
# name -> (left projection finite, right projection finite,
#          every {gamma : (gamma, delta) in S} finite,
#          every {delta : (gamma, delta) in S} finite)
GRID_FACTS = {
    "column": (True, False, True, False),
    "row": (False, True, False, True),
    "diagonal": (False, False, True, True),
    "quadrant": (False, False, False, False),
}


@pytest.mark.parametrize("fk,gk", [("finite", "finite"), ("finite", "all"),
                                   ("all", "finite"), ("all", "all")])
def test_product_bornology_never_wrong(fk, gk):
    kinds = {"finite": finite_subsets(N), "all": all_subsets(N)}
    pb = product_bornology(kinds[fk], kinds[gk], NN)
    for s, lf, rf in _pair_cases():
        truth = (lf or fk == "all") and (rf or gk == "all")
        v = pb.is_bounded(s)
        assert not (v is Verdict.BOUNDED and not truth), s.format()
        assert not (v is Verdict.UNBOUNDED and truth), s.format()


def test_product_bornology_decides_the_diagonal():
    # the diagonal is unbounded when either factor only bounds finite sets
    pb = product_bornology(finite_subsets(N), all_subsets(N), NN)
    diag = DescribedSet.progression(NN, (0, 0), (1, 1))
    assert pb.is_bounded(diag) is Verdict.UNBOUNDED


def test_the_double_dual_of_a_product_bornology_bounds_what_it_bounds():
    # a bornology embeds into its double dual, so perp(perp(b)) bounds what
    # b bounds and abstains on the rest.  Oracle: finite x all bounds
    # exactly the sets with finitely many first coordinates, read off a box
    # (every set here has at most two, or at least 30 below 30)
    pb = product_bornology(finite_subsets(N), all_subsets(N), NN)
    bb = perp(perp(pb))
    assert bb.kind == "perp" and bb.inner.kind == "perp"
    verdicts = []
    for s, _, _ in _pair_cases():
        firsts = {a for a in range(30) for b in range(30) if s.contains((a, b))}
        v = bb.is_bounded(s)
        assert v is not Verdict.UNBOUNDED, s.format()
        assert (v is Verdict.BOUNDED) is (pb.is_bounded(s) is Verdict.BOUNDED), s.format()
        assert v is not Verdict.BOUNDED or len(firsts) <= 2, s.format()
        verdicts.append(v)
    # an infinite column is bounded through the product bornology
    assert Verdict.BOUNDED in verdicts[1:] and Verdict.UNDECIDED in verdicts


def test_a_pair_bornology_records_its_factors():
    f, g = finite_subsets(N), all_subsets(N)
    for make, kind in ((product_bornology, "product"), (hom_bornology, "hom")):
        want = {"kind": kind, "universe": NN.to_record(), "left": f.to_record(), "right": g.to_record()}
        assert make(f, g, NN).to_record() == want
        assert make(g, f, NN) != make(f, g, NN)


def test_hom_bornology_rectangles():
    # rectangle A x B is hom-bounded iff A is perp(f)-bounded and B is g-bounded
    f, g = all_subsets(N), finite_subsets(N)
    hb = hom_bornology(f, g, NN)
    fin_rect = DescribedSet.product(
        NN, DescribedSet.finite(N, [0, 1]), DescribedSet.finite(N, [5])
    )
    assert hb.is_bounded(fin_rect) is Verdict.BOUNDED
    wide = DescribedSet.product(
        NN, DescribedSet.progression(N, 0, 1), DescribedSet.finite(N, [5])
    )
    # perp(all) = finite, so an infinite left factor is definitely unbounded
    assert hb.is_bounded(wide) is Verdict.UNBOUNDED


def test_hom_bornology_graph_of_identity():
    # with f = finite and g = finite, the diagonal (graph of the identity)
    # is hom-bounded: every f-bounded set has finite image
    hb = hom_bornology(finite_subsets(N), finite_subsets(N), NN)
    diag = DescribedSet.progression(NN, (0, 0), (1, 1))
    assert hb.is_bounded(diag) is Verdict.BOUNDED


def _hom_truth(name, fk, gk):
    """S is hom(f, g)-bounded iff for every f-bounded F the fibers
    {gamma in F : (gamma, delta) in S} are finite and the image of
    S cap (F x N) is g-bounded; F ranges over finite sets (f = finite) or
    is all of N (f = all)."""
    _, rf, fibers, verticals = GRID_FACTS[name]
    if fk == "finite":
        return gk == "all" or verticals
    return fibers and (gk == "all" or rf)


# (f, g) -> verdicts on column, row, diagonal, quadrant
HOM_GRID_VERDICTS = {
    ("finite", "finite"): "UBBD",
    ("finite", "all"): "BBBD",
    ("all", "finite"): "UUUD",
    ("all", "all"): "BUBD",
}


@pytest.mark.parametrize("fk,gk", sorted(HOM_GRID_VERDICTS))
def test_hom_bornology_grid_verdicts(fk, gk):
    kinds = {"finite": finite_subsets(N), "all": all_subsets(N)}
    hb = hom_bornology(kinds[fk], kinds[gk], NN)
    letters = {"B": Verdict.BOUNDED, "U": Verdict.UNBOUNDED, "D": Verdict.UNDECIDED}
    for name, want in zip(GRIDS, HOM_GRID_VERDICTS[fk, gk]):
        v = hb.is_bounded(GRIDS[name])
        assert v is letters[want], name
        truth = _hom_truth(name, fk, gk)
        assert v is (Verdict.BOUNDED if truth else Verdict.UNBOUNDED) or v is Verdict.UNDECIDED


def _valued_objects():
    """Freshly built universes, sets and bornologies, one of each shape."""
    Zf, X = Integers(), MonomialUniverse(["x"])
    return [
        Naturals(), Zf, Rationals(), TupleUniverse(3),
        MonomialUniverse(["x", "y"], "integer"), PairUniverse(Naturals(), Zf),
        FiniteUniverse(["a", "b"]),
        DescribedSet.finite(Zf, [1, 2]), DescribedSet.progression(Zf, 0, -3),
        DescribedSet.grid(X, X.unit, [X.monomial(x=1)]), DescribedSet.interval(Zf, lo=0, hi=9),
        finite_subsets(Zf), all_subsets(Zf), well_ordered(Zf), reverse_well_ordered(Zf),
        order_type_omega(Zf), generate(Zf, [DescribedSet.progression(Zf, 0, 2)]),
    ]


def test_records_identify_values():
    # a record is a value's identity (`Value`): a fresh copy has the same
    # record and is equal, and distinct objects have distinct records
    first, again = _valued_objects(), _valued_objects()
    records = [v.to_record() for v in first]
    assert [v.to_record() for v in again] == records
    assert all(a == b and hash(a) == hash(b) for a, b in zip(first, again))
    for i, rec in enumerate(records):
        assert rec not in records[i + 1:], first[i]
        assert first[i] not in first[i + 1:]


@settings(max_examples=40, deadline=None)
@given(st.integers(-4, 4), st.integers(1, 4), st.integers(0, 1))
def test_random_progressions_never_misjudged(start, step, up):
    s = DescribedSet.progression(Z, start, step if up else -step)
    truth_wo = bool(up)  # increasing progressions are well ordered
    v = well_ordered(Z).is_bounded(s)
    assert not (v is Verdict.BOUNDED and not truth_wo)
    assert not (v is Verdict.UNBOUNDED and truth_wo)


# -- containment in one generator ---------------------------------------------

T2 = TupleUniverse(2)
XY = MonomialUniverse(["x", "y"])


def _xy(a, b):
    return XY.monomial(x=a, y=b)


# (universe, generator, set, verdict of generate(u, [generator])); every
# definite verdict is the truth.  UNDECIDED is a sound abstention: grid(1; 2)
# and the sets beside a strict half-line are bounded (the generator plus one
# point), the other three are unbounded (infinitely many points outside)
CONTAINMENTS = [
    # progression in grid
    (Z, DescribedSet.grid(Z, 1, [3]), DescribedSet.progression(Z, 4, 6), Verdict.BOUNDED),
    (Z, DescribedSet.grid(Z, 1, [3]), DescribedSet.progression(Z, 4, 2), Verdict.UNDECIDED),
    (T2, DescribedSet.grid(T2, (0, 0), [(0, 1), (1, 0)]),
     DescribedSet.progression(T2, (1, 2), (1, 1)), Verdict.BOUNDED),
    (T2, DescribedSet.grid(T2, (0, 0), [(0, 1), (1, 0)]),
     DescribedSet.progression(T2, (0, 0), (1, -1)), Verdict.UNDECIDED),
    # grid in progression: the grid's steps in the progression's monoid,
    # read on its frame (negated when it falls)
    (Z, DescribedSet.progression(Z, 4, 1), DescribedSet.grid(Z, 5, [2, 3]), Verdict.BOUNDED),
    (Z, DescribedSet.progression(Z, 4, 2), DescribedSet.grid(Z, 5, [2, 3]), Verdict.UNDECIDED),
    # progression in progression, both falling
    (Z, DescribedSet.progression(Z, 2, -1), DescribedSet.progression(Z, 0, -2), Verdict.BOUNDED),
    # grid in grid
    (Z, DescribedSet.grid(Z, 0, [2, 3]), DescribedSet.grid(Z, 3, [4, 6]), Verdict.BOUNDED),
    (Z, DescribedSet.grid(Z, 0, [2, 3]), DescribedSet.grid(Z, 1, [2]), Verdict.UNDECIDED),
    (XY, DescribedSet.grid(XY, XY.unit, [_xy(1, 0), _xy(0, 1)]),
     DescribedSet.grid(XY, _xy(1, 1), [_xy(2, 0), _xy(1, 1)]), Verdict.BOUNDED),
    (XY, DescribedSet.grid(XY, XY.unit, [_xy(1, 0), _xy(0, 1)]),
     DescribedSet.grid(XY, XY.unit, [_xy(1, -1)]), Verdict.UNDECIDED),
    # progression in a half-line
    (Z, DescribedSet.interval(Z, lo=0), DescribedSet.progression(Z, 0, 1), Verdict.BOUNDED),
    (Z, DescribedSet.interval(Z, lo=0, lo_strict=True),
     DescribedSet.progression(Z, 0, 1), Verdict.UNDECIDED),
    (Z, DescribedSet.interval(Z, lo=0, lo_strict=True),
     DescribedSet.progression(Z, 1, 2), Verdict.BOUNDED),
    (Z, DescribedSet.interval(Z, hi=5), DescribedSet.progression(Z, 5, -1), Verdict.BOUNDED),
    (Z, DescribedSet.interval(Z, hi=5, hi_strict=True),
     DescribedSet.progression(Z, 5, -1), Verdict.UNDECIDED),
    (Z, DescribedSet.interval(Z, hi=5, hi_strict=True),
     DescribedSet.progression(Z, 4, -2), Verdict.BOUNDED),
    (Z, DescribedSet.interval(Z, hi=5), DescribedSet.progression(Z, 0, 1), Verdict.UNBOUNDED),
    (Z, DescribedSet.interval(Z, lo=0), DescribedSet.progression(Z, 9, -1), Verdict.UNBOUNDED),
    # grid in a half-line
    (Z, DescribedSet.interval(Z, lo=2), DescribedSet.grid(Z, 2, [3]), Verdict.BOUNDED),
    (Z, DescribedSet.interval(Z, lo=2, lo_strict=True),
     DescribedSet.grid(Z, 2, [3]), Verdict.UNDECIDED),
    (Z, DescribedSet.interval(Z, lo=2, lo_strict=True),
     DescribedSet.grid(Z, 3, [3]), Verdict.BOUNDED),
    (Z, DescribedSet.interval(Z, hi=5), DescribedSet.grid(Z, 0, [1]), Verdict.UNBOUNDED),
    (Z, DescribedSet.interval(Z, hi=5, hi_strict=True),
     DescribedSet.grid(Z, 0, [1]), Verdict.UNBOUNDED),
    # interval in a half-line
    (Z, DescribedSet.interval(Z, lo=0), DescribedSet.interval(Z, lo=1), Verdict.BOUNDED),
    (Z, DescribedSet.interval(Z, lo=0, lo_strict=True),
     DescribedSet.interval(Z, lo=0, lo_strict=True), Verdict.BOUNDED),
]


@pytest.mark.parametrize("u,gen,s,want", CONTAINMENTS,
                         ids=["%s in %s" % (c[2].format(), c[1].format()) for c in CONTAINMENTS])
def test_generated_containment_verdicts(u, gen, s, want):
    assert generate(u, [gen]).is_bounded(s) is want


# -- every bornology bounds finite sets; the order kinds' table ----------------

ZZ = PairUniverse(Z, Z)


def _finite_atoms(u):
    """A finite atom of each shape on u, which is Z or Z x Z."""
    a, b = (3, 5) if u is Z else ((1, 2), (0, -1))
    atoms = [
        FiniteAtom(u, [a, b]),
        ProgressionAtom(u, a, b, count=4),
        GridAtom(u, a, []),
        ComplementAtom(DescribedSet.finite(u, [a]), FiniteAtom(u, [a, b])),
    ]
    if u is Z:
        return atoms + [IntervalAtom(Z, lo=-2, hi=9)]
    return atoms + [ProductAtom(ZZ, DescribedSet.finite(Z, [0, 1]), DescribedSet.progression(Z, 0, 1, 3))]


def _generated(u):
    return generate(u, [DescribedSet.progression(u, 0 if u is Z else (0, 0), 2 if u is Z else (1, 1))])


# name -> (bornology on a universe, the universes it is built on)
BORNOLOGY_KINDS = {
    "finite": (finite_subsets, (Z, ZZ)),
    "all": (all_subsets, (Z, ZZ)),
    "wo": (well_ordered, (Z, ZZ)),
    "rwo": (reverse_well_ordered, (Z, ZZ)),
    "wo_omega": (order_type_omega, (Z, ZZ)),
    "generated": (_generated, (Z, ZZ)),
    "perp": (lambda u: perp(_generated(u)), (Z, ZZ)),
    "biperp": (lambda u: perp(perp(_generated(u))), (Z, ZZ)),
    "product": (lambda u: product_bornology(well_ordered(Z), finite_subsets(Z), u), (ZZ,)),
    "hom": (lambda u: hom_bornology(all_subsets(Z), reverse_well_ordered(Z), u), (ZZ,)),
}


@pytest.mark.parametrize("name", sorted(BORNOLOGY_KINDS))
def test_every_bornology_bounds_every_finite_atom(name):
    make, universes = BORNOLOGY_KINDS[name]
    for u in universes:
        b = make(u)
        for atom in _finite_atoms(u):
            assert atom.is_finite() is True, atom
            assert b.is_bounded(DescribedSet(u, [atom])) is Verdict.BOUNDED, (b, atom)


Q = Rationals()
# an atom exactly of each class: UP, DOWN, WO (generators with distinct
# leading coordinates) and DENSE
ORDER_ATOMS = [
    ProgressionAtom(Z, 0, 1),
    ProgressionAtom(Z, 0, -1),
    GridAtom(T2, (0, 0), [(0, 1), (1, 0)]),
    IntervalAtom(Q, lo=0, hi=1),
]
# order kind -> its verdicts on ORDER_ATOMS
ORDER_VERDICTS = {
    "wo": "BUBU",
    "rwo": "UBUU",
    "wo_omega": "BUUU",
}
# order kind -> hom(all, kind) verdicts on the lines (n, -n) and (n, n): each
# fiber is one point and the image is infinite, so the image's class decides
HOM_LINE_VERDICTS = {
    "wo": "UB",
    "rwo": "BU",
    "wo_omega": "UB",
}
LETTERS = {"B": Verdict.BOUNDED, "U": Verdict.UNBOUNDED, "D": Verdict.UNDECIDED}


@pytest.mark.parametrize("kind", sorted(ORDER_VERDICTS))
def test_order_kinds_on_exact_atoms_and_their_complements(kind):
    make = BORNOLOGY_KINDS[kind][0]
    assert [a.classify() for a in ORDER_ATOMS] == ["up", "down", "wo", "dense"]
    for atom, letter in zip(ORDER_ATOMS, ORDER_VERDICTS[kind]):
        u = atom.universe
        b = make(u)
        assert b.kind == kind
        assert b.is_bounded(DescribedSet(u, [atom])) is LETTERS[letter], atom
        # a complement has its within's class but may be smaller, so an
        # unbounded class only abstains there
        point = atom.lo if isinstance(atom, IntervalAtom) else atom.universe.unit
        rest = ComplementAtom(DescribedSet.finite(u, [point]), atom)
        want = Verdict.UNDECIDED if letter == "U" else LETTERS[letter]
        assert b.is_bounded(DescribedSet(u, [rest])) is want, rest
    hb = hom_bornology(all_subsets(Z), make(Z), ZZ)
    for step, letter in zip([(1, -1), (1, 1)], HOM_LINE_VERDICTS[kind]):
        assert hb.is_bounded(DescribedSet.progression(ZZ, (0, 0), step)) is LETTERS[letter], step
        # the same line as a one-generator grid projects to the same factors
        assert hb.is_bounded(DescribedSet.grid(ZZ, (0, 0), [step])) is LETTERS[letter], step
