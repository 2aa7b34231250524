"""Described sets: membership, enumeration, classification, intersections.

Oracle notes: membership and intersections are checked against exhaustive
enumeration over finite boxes [DERIVED]; classifications against the
construction (a progression with positive step is increasing, etc.).
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import outcome, time_limit
from sigmavect.bornology import (
    Verdict,
    all_subsets,
    finite_subsets,
    generate,
    order_type_omega,
    perp,
    reverse_well_ordered,
    well_ordered,
)
from sigmavect.sets import (
    DOWN,
    FINITE,
    UP,
    ComplementAtom,
    DescribedSet,
    FiniteAtom,
    GridAtom,
    IntervalAtom,
    ProductAtom,
    ProgressionAtom,
    SetError,
    _atom_product,
    _atom_subset_of,
    _bound,
    atom_intersection,
    described_intersection,
)
from sigmavect.universe import (
    Integers,
    MonomialUniverse,
    Naturals,
    PairUniverse,
    Rationals,
    TupleUniverse,
)

Z = Integers()
N = Naturals()
Q = Rationals()


def members_in_box(s, lo=-40, hi=40):
    """Independent membership oracle restricted to a box."""
    return {n for n in range(lo, hi + 1) if s.contains(n)}


def test_finite_set_basics():
    s = DescribedSet.finite(Z, [3, -1, 3])
    assert s.contains(3) and s.contains(-1) and not s.contains(0)
    assert s.is_finite() is True
    assert s.elements() == {3, -1}
    assert s.first_n(5) == [-1, 3]


def test_progression_membership_matches_enumeration():
    s = DescribedSet.progression(Z, 1, 3)  # 1, 4, 7, ...
    assert members_in_box(s, 0, 20) == {1, 4, 7, 10, 13, 16, 19}
    assert s.is_finite() is False
    assert s.first_n(4) == [1, 4, 7, 10]


def test_decreasing_progression():
    s = DescribedSet.progression(Z, 5, -2)  # 5, 3, 1, -1, ...
    assert members_in_box(s, -5, 6) == {5, 3, 1, -1, -3, -5}
    assert s.atoms[0].classify() == DOWN
    with pytest.raises(SetError):
        s.first_n(3)  # no increasing enumeration of a decreasing set


def test_complement_walk_stops_inside_an_unbounded_inner_interval():
    # 3, 6, 9, ... minus [6, +inf) is {3}: once the walk reaches 6, every
    # later term lies in the interval, so first_n returns instead of
    # filtering the rest of the progression forever
    s = DescribedSet(N, [ComplementAtom(DescribedSet.interval(N, lo=6), ProgressionAtom(N, 3, 3))])
    with time_limit(5):
        assert s.first_n(8) == [3]
        # an open lower end keeps its endpoint out of the interval
        open_tail = DescribedSet.interval(N, lo=6, lo_strict=True)
        assert DescribedSet(N, [ComplementAtom(open_tail, ProgressionAtom(N, 3, 3))]).first_n(8) == [3, 6]
        # only the interval ends the walk: 6 is removed, 9 is not
        inner = DescribedSet(N, [FiniteAtom(N, [6]), IntervalAtom(N, lo=12)])
        assert DescribedSet(N, [ComplementAtom(inner, ProgressionAtom(N, 3, 3))]).first_n(8) == [3, 9]


def test_complement_walk_stops_inside_one_inner_atom():
    # 3, 6, 9, ... minus 6, 9, ... is {3}: from 6 on, the rest of the walk,
    # prog(6; 3), lies inside the inner progression
    s = DescribedSet(N, [ComplementAtom(DescribedSet.progression(N, 6, 3), ProgressionAtom(N, 3, 3))])
    with time_limit(5):
        assert s.first_n(8) == [3]
        # a grid inner atom ends the walk the same way
        inner = DescribedSet.grid(N, 6, [3])
        assert DescribedSet(N, [ComplementAtom(inner, ProgressionAtom(N, 3, 3))]).first_n(8) == [3]
        # no single inner atom holds a tail of N minus the evens: it goes on
        odds = DescribedSet.progression(N, 0, 2).complement_within(DescribedSet.interval(N, lo=0))
        assert odds.first_n(8) == [1, 3, 5, 7, 9, 11, 13, 15]


def test_complement_walk_stops_when_residue_classes_cover_the_tail():
    # no single inner atom holds a tail here, but each residue class of the
    # rest of `within` lies inside one of them
    evens_and_odds = DescribedSet(N, [ProgressionAtom(N, 0, 2), ProgressionAtom(N, 1, 2)])
    with time_limit(5):
        assert evens_and_odds.complement_within(DescribedSet.interval(N, lo=0)).first_n(1) == []
        # a one-generator grid `within` is read as its progression
        evens = DescribedSet.progression(Z, 0, 2)
        assert evens.complement_within(DescribedSet.grid(Z, 0, [2])).first_n(1) == []
        # steps 3 and 2 along a line of step 1 give six classes
        inner = DescribedSet(Z, [ProgressionAtom(Z, 0, 3), ProgressionAtom(Z, 1, 3), GridAtom(Z, 5, [3])])
        assert inner.complement_within(DescribedSet.progression(Z, -4, 1)).first_n(8) == [-4, -3, -2, -1, 2]
        # a grid of several generators counts its steps in K: from 2 on,
        # each class modulo 6 lies in grid(0; 2, 3), whose monoid holds 6
        grid = DescribedSet.grid(N, 0, [2, 3])
        assert grid.complement_within(DescribedSet.interval(N, lo=0)).first_n(2) == [1]
        # a grid `within` in dimension 1 walks on the line of its steps' gcd
        ray = DescribedSet.progression(N, 0, 1)
        assert ray.complement_within(grid).first_n(2) == []
        # N minus <5, 7> lists the 12 gaps of that numerical semigroup
        gaps = DescribedSet.grid(N, 0, [5, 7]).complement_within(DescribedSet.interval(N, lo=0))
        assert gaps.first_n(20) == [1, 2, 3, 4, 6, 8, 9, 11, 13, 16, 18, 23]


def _line_atom(u, shape, start, step, gen):
    if shape == "ray":
        return IntervalAtom(u, lo=start, lo_strict=step > 3)
    if shape == "grid":
        return GridAtom(u, start, [step])
    if shape == "grid2":
        return GridAtom(u, start, [step, gen])
    return ProgressionAtom(u, start, step)


def _inner_atom(u, shape, start, step, count, gen):
    if u is N:
        start, step = abs(start), abs(step)
    if shape == "finite":
        return FiniteAtom(u, [start, start + abs(step)])
    if shape == "interval":
        return IntervalAtom(u, lo=start, hi=start + abs(step))
    if shape == "up ray":
        return IntervalAtom(u, lo=start)
    if shape == "down ray" and u is Z:
        return IntervalAtom(Z, hi=start)
    if shape == "grid":
        return GridAtom(u, start, [abs(step)])
    if shape == "grid2":
        return GridAtom(u, start, [abs(step), gen])
    return ProgressionAtom(u, start, step, count)


inner_atoms = st.tuples(
    st.sampled_from(["finite", "interval", "up ray", "down ray", "grid", "grid2", "progression",
                     "progression"]),
    st.integers(-12, 12),
    st.integers(-6, 6).filter(bool),
    st.sampled_from([None, None, 3]),
    st.integers(1, 6),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([N, Z]),
    st.sampled_from(["ray", "progression", "grid", "grid2"]),
    st.integers(-12, 12),
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(inner_atoms, min_size=1, max_size=3),
    st.sampled_from([1, 4, 8]),
)
@example(N, "ray", 0, 1, 1, [("progression", 0, 2, None, 1), ("progression", 1, 2, None, 1)], 1)
@example(Z, "grid", 0, 2, 1, [("progression", 0, 2, None, 1)], 1)
@example(N, "ray", 0, 1, 1, [("grid2", 0, 2, None, 3)], 2)
@example(N, "grid2", 0, 2, 3, [("progression", 0, 1, None, 1)], 2)
def test_complement_walk_matches_box_enumeration(u, shape, start, step, gen, inner, n):
    # on N and Z, with inner progressions, grids of one and two generators,
    # intervals and finite sets, the walk ends whenever fewer than n
    # elements remain.  Oracle: `within` lies on the line of step d (1 for
    # a ray, the gcd of the steps for a grid), along which membership is
    # periodic past every inner parameter (|.| <= 18) and the conductor of
    # every two-generator grid (at most 20 for generators up to 6), with a
    # period dividing lcm(1..6) = 60, so n + 1 periods past 38 hold n
    # elements unless the complement is finite
    if u is N:
        start = abs(start)
    within = _line_atom(u, shape, start, step, gen)
    inner_set = DescribedSet(u, [_inner_atom(u, *a) for a in inner])
    first = start + 1 if shape == "ray" and within.lo_strict else start
    d = {"ray": 1, "grid2": math.gcd(step, gen)}.get(shape, step)
    line = (first + k * d for k in range(38 + 60 * (n + 1)))
    want = [e for e in line if within.contains(e) and not inner_set.contains(e)][:n]
    with time_limit(2):
        got = DescribedSet(u, [ComplementAtom(inner_set, within)]).first_n(n)
    assert got == want


def test_bounded_progression_is_finite():
    s = DescribedSet.progression(Z, 0, 4, count=3)
    assert s.elements() == {0, 4, 8}
    assert s.atoms[0].classify() == FINITE


def test_interval_enumeration():
    s = DescribedSet.interval(Z, lo=-2, hi=2)
    assert s.elements_upto(10) == [-2, -1, 0, 1, 2]
    assert s.contains(-2) and not s.contains(3)


def test_union_and_iter_increasing_dedupes():
    a = DescribedSet.progression(Z, 0, 2)
    b = DescribedSet.progression(Z, 0, 3)
    u = a.union(b)
    got = u.first_n(8)
    # oracle: sorted union of the two progressions [DERIVED]
    want = sorted({0, 2, 4, 6, 8, 10, 12, 3, 9, 15} )
    assert got == want[:8]
    assert got == sorted(set(got))


def test_grid_membership_matches_lattice_oracle():
    X = MonomialUniverse(["x"])
    g = DescribedSet.grid(X, X.unit, [X.monomial(x=2), X.monomial(x=3)])
    # oracle: numerical semigroup <2,3> = {0,2,3,4,...} [DERIVED]
    for k in range(9):
        el = X.monomial(x=k)
        assert g.contains(el) == (k in {0, 2, 3, 4, 5, 6, 7, 8})
    assert not g.contains(X.monomial(x=Fraction(1, 2)))


def test_grid_iter_increasing():
    X = MonomialUniverse(["x"])
    g = DescribedSet.grid(X, X.monomial(x=1), [X.monomial(x=2)])
    assert g.first_n(4) == [X.monomial(x=k) for k in (1, 3, 5, 7)]
    assert g.atoms[0].classify() == UP


def test_elements_upto_honest_none():
    XY = MonomialUniverse(["x", "y"])
    g = DescribedSet.grid(XY, XY.unit, [XY.monomial(x=1), XY.monomial(y=1)])
    # infinitely many y-powers sit below x
    assert g.elements_upto(XY.monomial(x=1)) is None


def test_complement_classification_is_inexact():
    base = DescribedSet.progression(Z, 0, 1)
    s = DescribedSet.finite(Z, [2]).complement_within(base)
    assert s.contains(0) and not s.contains(2) and s.contains(3)
    assert s.atoms[0].exact_class() is False


def test_product_membership():
    P = PairUniverse(N, N)
    s = DescribedSet.product(
        P, DescribedSet.finite(N, [1, 2]), DescribedSet.progression(N, 0, 2)
    )
    assert s.contains((1, 4)) and s.contains((2, 0))
    assert not s.contains((3, 0)) and not s.contains((1, 3))


def test_translate():
    """A translate is the product set with one point: each atom moves there,
    of its kind and count."""
    point = DescribedSet.finite(Z, [5])
    s = DescribedSet.progression(Z, 0, 2)
    t = s.minkowski(point)
    assert members_in_box(t, 0, 12) == {5, 7, 9, 11}
    assert t == point.minkowski(s) == DescribedSet.progression(Z, 5, 2)
    counted = DescribedSet.progression(Z, 0, -3, 4).union(DescribedSet.grid(Z, 1, [2, 3]))
    assert counted.minkowski(point).format() == "prog(5; -3; count=4) | grid(6; 2, 3)"


# -- product sets --------------------------------------------------------

X1 = MonomialUniverse(["x"])
# a universe, its element of exponent q, and the denominators of exponents
PRODUCT_UNIVERSES = [(N, int, [1]), (Z, int, [1]), (Q, lambda q: q, [1, 2, 3]),
                     (X1, lambda q: X1.monomial(x=q), [1, 2, 3])]


@st.composite
def _product_factor(draw, universe):
    """A set of one or two atoms: finite, counted or uncounted progressions
    (falling ones too, off N) and grids of one or two generators, with
    origins and points in [-4, 4] and steps of size at most 3."""
    u, el, dens = universe
    lo = 0 if u is N else -4

    def point():
        d = draw(st.sampled_from(dens))
        return el(Fraction(draw(st.integers(lo * d, 4 * d)), d))

    def size():
        return el(Fraction(draw(st.integers(1, 3)), draw(st.sampled_from(dens))))

    def step():
        up = u is N or draw(st.booleans())
        return size() if up else u.inv(size())

    atoms = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["finite", "counted", "line", "grid"]))
        if kind == "finite":
            atoms.append(FiniteAtom(u, [point() for _ in range(draw(st.integers(0, 3)))]))
        elif kind == "grid":
            atoms.append(GridAtom(u, point(), [size() for _ in range(draw(st.integers(1, 2)))]))
        else:
            count = draw(st.integers(0, 4)) if kind == "counted" else None
            atoms.append(ProgressionAtom(u, point(), step(), count))
    return DescribedSet(u, atoms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minkowski_matches_box_enumeration(data):
    """minkowski is {a * b} exactly: on a box of exponents it holds the sums
    of the factors' points found on a wider box (wide enough: a factor that
    is not finite rises from an origin at least -4, or meets a finite one).
    Two uncounted arithmetic atoms with a falling step have no rule."""
    universe = data.draw(st.sampled_from(PRODUCT_UNIVERSES))
    u, el, dens = universe
    s, t = data.draw(_product_factor(universe)), data.draw(_product_factor(universe))
    uncounted = lambda a: not isinstance(a, FiniteAtom) and a.count is None
    if any(uncounted(a) and uncounted(b) and not (a.up and b.up)
           for a in s.atoms for b in t.atoms):
        with pytest.raises(SetError):
            s.minkowski(t)
        return
    prod = s.minkowski(t)
    scale = math.lcm(*dens)

    def box(r):
        return [Fraction(k, scale) for k in range(-r * scale, r * scale + 1)]

    s_points = [q for q in box(40) if s.contains(el(q))]
    t_points = {q for q in box(40) if t.contains(el(q))}
    for p in box(12):
        assert prod.contains(el(p)) == any(p - a in t_points for a in s_points), p


def _twin(u, atom):
    """The atom built again from coordinates of the other type: an integral
    exponent given as an int is given as Fraction(n), and the other way
    round.  The naturals and the integers take ints alone."""
    def flip(c):
        return Fraction(c) if type(c) is int else int(c) if c.denominator == 1 else c

    def el(e):
        if u is N or u is Z:
            return e
        return tuple(map(flip, e)) if isinstance(e, tuple) else flip(e)

    if isinstance(atom, FiniteAtom):
        return FiniteAtom(u, [el(e) for e in atom.els])
    if isinstance(atom, GridAtom):
        return GridAtom(u, el(atom.origin), [el(g) for g in atom.steps])
    return ProgressionAtom(u, el(atom.origin), el(atom.steps[0]), atom.count)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minkowski_dedupes_its_atoms_as_their_records_do(data):
    """minkowski drops a repeated product atom by its structure (a finite
    atom's element set; an arithmetic atom's type, origin, steps and count),
    not by its record, and keeps the same atoms, in the same order, as a
    dedupe by record.  Each factor atom also comes twice, once built from
    the other coordinate type, so the products repeat."""
    universe = data.draw(st.sampled_from(PRODUCT_UNIVERSES))
    u = universe[0]
    s, t = data.draw(_product_factor(universe)), data.draw(_product_factor(universe))
    s = DescribedSet(u, s.atoms + tuple(_twin(u, a) for a in s.atoms))
    got = outcome(lambda: s.minkowski(t), SetError)
    want = outcome(lambda: DescribedSet(u, list(dict.fromkeys(
        p for a in s.atoms for b in t.atoms for p in _atom_product(a, b)))), SetError)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got[1].to_record() == want[1].to_record()


def test_minkowski_keeps_atoms_that_differ_in_kind_or_count_only():
    s = DescribedSet(X1, [ProgressionAtom(X1, (0,), (1,), 2), ProgressionAtom(X1, (0,), (1,)),
                          GridAtom(X1, (0,), [(1,)]), ProgressionAtom(X1, (0,), (1,), 3),
                          GridAtom(X1, (Fraction(0),), [(Fraction(1),)])])
    prod = s.minkowski(DescribedSet.finite(X1, [(0,), (Fraction(0),)]))
    assert prod.format() == "prog(1; x; count=2) | prog(1; x) | grid(1; x) | prog(1; x; count=3)"


def test_minkowski_refuses_other_atoms():
    line = DescribedSet.grid(Z, 0, [2])
    for other in [DescribedSet.interval(Z, lo=0),
                  DescribedSet.finite(Z, [1]).complement_within(line),
                  DescribedSet.progression(Z, 0, -1)]:
        with pytest.raises(SetError):
            line.minkowski(other)
    with pytest.raises(SetError, match="no Minkowski product for atom"):
        DescribedSet.finite(Z, [1]).minkowski(DescribedSet.interval(Z, lo=0))


# -- intersections -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-5, 5), st.integers(1, 6),
    st.integers(-5, 5), st.integers(1, 6),
)
def test_progression_intersection_matches_oracle(a1, d1, a2, d2):
    s1 = DescribedSet.progression(Z, a1, d1)
    s2 = DescribedSet.progression(Z, a2, d2)
    fin, els = described_intersection(s1, s2)
    # two increasing progressions intersect in a (possibly empty) progression;
    # the library reports finite only when it is truly finite
    oracle = members_in_box(s1, -5, 200) & members_in_box(s2, -5, 200)
    if fin is True:
        assert set(els) == oracle or (set(els) == oracle == set())
    else:
        # infinite: the oracle box must already contain many points
        assert fin is False and len(oracle) > 5


def test_opposite_progressions_intersect_finitely():
    s1 = DescribedSet.progression(Z, 0, 2)     # evens up
    s2 = DescribedSet.progression(Z, 9, -3)    # 9, 6, 3, 0, -3, ...
    fin, els = described_intersection(s1, s2)
    assert fin is True
    assert set(els) == {0, 6}  # evens meeting {...,-3,0,3,6,9} above 0 [DERIVED]
    # the points come in increasing order, whichever line comes first
    rising, falling = ProgressionAtom(Z, 0, 3), ProgressionAtom(Z, 20, -2)
    assert atom_intersection(rising, falling) == (True, [0, 6, 12, 18])
    assert atom_intersection(falling, rising) == (True, [0, 6, 12, 18])


def test_parallel_meet_beyond_old_scan_is_infinite():
    # 100003*k = l has a solution for every k: the meet is prog(0; 100003)
    p1 = ProgressionAtom(Z, 0, 100003)
    p2 = ProgressionAtom(Z, 0, 1)
    assert atom_intersection(p1, p2) == (False, None)


def test_opposite_meet_with_a_far_start_is_enumerated():
    p1 = ProgressionAtom(Z, 0, 10 ** 6)
    p2 = ProgressionAtom(Z, 10 ** 7, -1)
    fin, els = atom_intersection(p1, p2)
    assert fin is True
    assert sorted(els) == [k * 10 ** 6 for k in range(11)]


def test_empty_parallel_meet_is_immediate():
    # gcd(4, 6) = 2 does not divide 1 - 0
    t0 = time.perf_counter()
    got = atom_intersection(ProgressionAtom(Z, 0, 4), ProgressionAtom(Z, 1, 6))
    assert got == (True, [])
    assert time.perf_counter() - t0 < 0.1


def _oracle_meet(s1, d1, s2, d2):
    """Arithmetic oracle for prog(s1; d1) meet prog(s2; d2) on Z, |d1| large.
    Same direction: infinite iff gcd(d1, d2) divides s2 - s1.  Opposite
    directions: walk p1 across the finite stretch between the two starts."""
    if (d1 > 0) == (d2 > 0):
        return "infinite" if (s2 - s1) % math.gcd(d1, d2) == 0 else set()
    out = set()
    x = s1
    while (x <= s2) if d1 > 0 else (x >= s2):
        if (x - s2) % abs(d2) == 0:
            out.add(x)
        x += d1
    return out


signs = st.sampled_from([1, -1])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-2 * 10 ** 6, 2 * 10 ** 6), st.integers(10 ** 5 + 1, 10 ** 6), signs,
    st.integers(-2 * 10 ** 6, 2 * 10 ** 6), st.integers(1, 10 ** 6), signs,
)
def test_progression_meet_with_large_steps_matches_arithmetic(s1, d1, e1, s2, d2, e2):
    d1, d2 = e1 * d1, e2 * d2
    want = _oracle_meet(s1, d1, s2, d2)
    for a, b in (
        (ProgressionAtom(Z, s1, d1), ProgressionAtom(Z, s2, d2)),
        (ProgressionAtom(Z, s2, d2), ProgressionAtom(Z, s1, d1)),
    ):
        fin, els = atom_intersection(a, b)
        if want == "infinite":
            assert (fin, els) == (False, None)
        else:
            assert fin is True and set(els) == want and len(els) == len(want)


def test_finite_intersection():
    s1 = DescribedSet.finite(Z, [1, 2, 3])
    s2 = DescribedSet.progression(Z, 0, 2)
    fin, els = described_intersection(s1, s2)
    assert fin is True and set(els) == {2}


def test_atom_intersection_undecided_is_none():
    # two complements: nothing exact is known, the answer must be honest
    base = DescribedSet.progression(Z, 0, 1)
    c1 = DescribedSet.finite(Z, [1]).complement_within(base)
    c2 = DescribedSet.finite(Z, [2]).complement_within(base)
    fin, els = atom_intersection(c1.atoms[0], c2.atoms[0])
    assert fin is None and els is None


def test_a_complement_met_with_itself_is_not_taken_as_infinite():
    # diff(prog(0; 1); [3, +inf)) is {0, 1, 2} and diff(prog(0; 1); prog(0; 1))
    # is empty: two equal atoms meet infinitely only when they are infinite,
    # and a complement's finiteness is not known here
    line = DescribedSet.progression(N, 0, 1)
    for s, want in ((DescribedSet.interval(N, lo=3).complement_within(line), [0, 1, 2]),
                    (line.complement_within(line), [])):
        fin, els = described_intersection(s, s)
        assert fin is None or (fin is True and els == want)
        assert perp(generate(N, [s])).is_bounded(s) is not Verdict.UNBOUNDED


@st.composite
def _complements(draw, u):
    """A complement of depth 1 or 2 on u: a ray, line or grid of one or two
    generators, a counted progression or, on Z, a falling ray or line, from
    which one or two layers of inner atoms are taken."""
    falling = ["down ray", "falling"] if u is Z else []
    shape = draw(st.sampled_from(["ray", "progression", "grid", "grid2", "counted"] + falling))
    start, step = draw(st.integers(0 if u is N else -12, 12)), draw(st.integers(1, 6))
    if shape == "counted":
        atom = ProgressionAtom(u, start, step, 5)
    elif shape == "down ray":
        atom = IntervalAtom(u, hi=start)
    elif shape == "falling":
        atom = ProgressionAtom(u, start, -step)
    else:
        atom = _line_atom(u, shape, start, step, draw(st.integers(1, 6)))
    for _ in range(draw(st.integers(1, 2))):
        inner = draw(st.lists(inner_atoms, min_size=1, max_size=2))
        atom = ComplementAtom(DescribedSet(u, [_inner_atom(u, *a) for a in inner]), atom)
    return atom


@st.composite
def _complement_meets(draw):
    u = draw(st.sampled_from([N, Z]))
    a = draw(_complements(u))
    return u, a, draw(st.one_of(st.just(a), _complements(u)))


def _far_meet(points):
    """True when a point lies at |n| > 100.  Every finite set drawn here lies
    in [-36, 36] and every atom is periodic past |n| = 36 (the conductor of
    a two-generator grid of steps up to 6 is at most 20), with a period
    dividing 60, so a meet is infinite iff it has a point in the box
    100 < |n| <= 160, and a finite one lies in [-36, 36]."""
    return any(abs(p) > 100 for p in points)


@settings(max_examples=200, deadline=None)
@given(_complement_meets())
@example((N, ComplementAtom(DescribedSet.interval(N, lo=3), ProgressionAtom(N, 0, 1)), None))
@example((N, ComplementAtom(DescribedSet.progression(N, 0, 1), ProgressionAtom(N, 0, 1)), None))
def test_complement_meets_match_box_enumeration(case):
    """Complements of depth 1 and 2 on N and Z, met with themselves and with
    each other: every definite meet, and every definite verdict of the dual
    of the bornology one generates on the other, agrees with a box."""
    u, a, b = case
    b = a if b is None else b
    box = [n for n in range(-160, 161) if u.contains(n)]
    meet = [n for n in box if a.contains(n) and b.contains(n)]
    sa, sb = DescribedSet(u, [a]), DescribedSet(u, [b])
    with time_limit(5):
        meets = [atom_intersection(a, b), atom_intersection(b, a), described_intersection(sa, sb)]
        verdict = perp(generate(u, [sa])).is_bounded(sb)
    for fin, els in meets:
        if fin is True:
            assert sorted(els) == meet, (a, b)
        elif fin is False:
            assert _far_meet(meet), (a, b)
    if verdict is not Verdict.UNDECIDED:
        assert (verdict is Verdict.BOUNDED) is not _far_meet(meet), (a, b)


# -- two-dimensional progressions ---------------------------------------------

T2 = TupleUniverse(2)
ZZ = PairUniverse(Z, Z)
PLANES = [(T2, lambda v: tuple(Fraction(c) for c in v)), (ZZ, tuple)]
coord = st.integers(-6, 6)
vec2 = st.tuples(coord, coord)


def _nonzero(v):
    return v != (0, 0)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PLANES), vec2, vec2.filter(_nonzero), vec2, vec2.filter(_nonzero))
def test_non_parallel_plane_meet_matches_cramer(plane, s1, d1, s2, d2):
    u, el = plane
    det = d1[0] * -d2[1] + d2[0] * d1[1]
    if det == 0:
        return
    # k*d1 - l*d2 = s2 - s1 by Cramer's rule
    b = (s2[0] - s1[0], s2[1] - s1[1])
    k = Fraction(b[0] * -d2[1] + d2[0] * b[1], det)
    l = Fraction(d1[0] * b[1] - d1[1] * b[0], det)
    want = []
    if k.denominator == 1 and l.denominator == 1 and k >= 0 and l >= 0:
        want = [el((s1[0] + k * d1[0], s1[1] + k * d1[1]))]
    p1 = ProgressionAtom(u, el(s1), el(d1))
    p2 = ProgressionAtom(u, el(s2), el(d2))
    assert atom_intersection(p1, p2) == (True, want)
    assert atom_intersection(p2, p1) == (True, want)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PLANES), vec2, vec2.filter(lambda v: _nonzero(v) and math.gcd(*v) == 1),
       st.integers(-4, 4).filter(bool), st.integers(-4, 4).filter(bool),
       st.integers(-8, 8), st.integers(0, 1))
def test_parallel_plane_meet_matches_enumeration(plane, s1, v, a, b, t, off):
    # prog(s1; a*v) meets prog(s2; b*v), s2 = s1 + t*v, moved off the line
    # by one unit across v when off = 1
    u, el = plane
    w = (-v[1], v[0])
    s2 = (s1[0] + t * v[0] + off * w[0], s1[1] + t * v[1] + off * w[1])
    p1 = ProgressionAtom(u, el(s1), el((a * v[0], a * v[1])))
    p2 = ProgressionAtom(u, el(s2), el((b * v[0], b * v[1])))
    # positions along v: s1 + (a*k)*v and s1 + (t + b*l)*v; a common
    # position recurs with period lcm(a, b) <= 12, so 60 terms show it
    common = {a * k for k in range(60)} & {t + b * l for l in range(60)}
    for x, y in ((p1, p2), (p2, p1)):
        fin, els = atom_intersection(x, y)
        if off or not common:
            assert (fin, els) == (True, [])
        elif (a > 0) == (b > 0):
            assert (fin, els) == (False, None)
        else:
            want = {el((s1[0] + c * v[0], s1[1] + c * v[1])) for c in common}
            assert fin is True and set(els) == want and len(els) == len(want)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PLANES), vec2, st.sampled_from([(0, 1), (0, -2), (3, 0), (-1, 0), (2, -3)]),
       st.sampled_from([None, 0, 1, 4]))
def test_progression_contains_with_zero_step_coordinates(plane, start, step, count):
    u, el = plane
    p = ProgressionAtom(u, el(start), el(step), count)
    # every point of the box [-12, 12]^2 on the progression is one of its
    # first 30 terms, since each step moves some coordinate by at least 1
    terms = count if count is not None else 30
    listed = {el((start[0] + k * step[0], start[1] + k * step[1])) for k in range(terms)}
    for x in range(-12, 13):
        for y in range(-12, 13):
            assert p.contains(el((x, y))) == (el((x, y)) in listed), (x, y)


# -- the ordered walk and the intersection rule ------------------------------


def test_lex_bound_in_another_block_abstains_at_once():
    # the step moves only the second coordinate, so every term lies in the
    # start's first-coordinate block and none passes a bound outside it
    with time_limit(1):
        up = atom_intersection(ProgressionAtom(ZZ, (0, 0), (0, 1)), IntervalAtom(ZZ, hi=(1, 0)))
        down = atom_intersection(ProgressionAtom(ZZ, (1, 3), (0, -3)), IntervalAtom(ZZ, lo=(0, 0)))
    assert up[0] is not True and down[0] is not True


def test_a_progression_walks_before_a_long_interval():
    # the meet is 1 001 terms, and the interval walked first would list 10^9
    want = [k * 10**6 for k in range(1001)]
    with time_limit(1):
        up = atom_intersection(IntervalAtom(Z, hi=10**9), ProgressionAtom(Z, 0, 10**6))
        down = atom_intersection(IntervalAtom(Z, lo=0), ProgressionAtom(Z, 10**9, -(10**6)))
        within = DescribedSet.finite(Z, [5]).complement_within(DescribedSet.interval(Z, hi=10**9))
        clipped = atom_intersection(within.atoms[0], ProgressionAtom(Z, 0, 10**6))
    assert up == down == clipped == (True, want)


def test_strict_flag_on_a_missing_endpoint_excludes_nothing():
    strict = IntervalAtom(N, hi=0, lo_strict=True)
    assert strict.lo_strict is False and strict.elements() == [0]
    assert atom_intersection(IntervalAtom(N), strict) == (True, [0])
    assert strict == IntervalAtom(N, hi=0) and strict.to_record()["lo_strict"] is False


def test_natural_interval_without_a_lower_end_starts_at_zero():
    iv = DescribedSet.interval(N)
    assert iv.first_n(3) == [0, 1, 2]
    assert iv.atoms[0].classify() == UP and iv.elements_upto(3) == [0, 1, 2, 3]
    assert well_ordered(N).is_bounded(iv) is Verdict.BOUNDED
    assert order_type_omega(N).is_bounded(iv) is Verdict.BOUNDED
    assert reverse_well_ordered(N).is_bounded(iv) is Verdict.UNBOUNDED
    # the record and the text keep the missing end
    assert iv.format() == "(-inf, +inf)" and iv.to_record()["atoms"][0]["lo"] is None


def test_natural_interval_without_a_lower_end_is_the_ray_from_zero():
    # [0, +inf) and (-inf, +inf) are one set on N, in either direction
    ray, whole = DescribedSet.interval(N, lo=0), DescribedSet.interval(N)
    assert _atom_subset_of(whole.atoms[0], ray.atoms[0])
    assert _atom_subset_of(ray.atoms[0], whole.atoms[0])
    assert not _atom_subset_of(whole.atoms[0], IntervalAtom(N, lo=1))
    assert generate(N, [ray]).is_bounded(whole) is Verdict.BOUNDED
    assert generate(N, [whole]).is_bounded(ray) is Verdict.BOUNDED
    # a walk down to such an interval stops at 0; on Z there is no end
    assert _bound(whole.atoms[0], False) == 0
    assert _bound(IntervalAtom(Z), False) is None


def test_complement_walk_stops_inside_an_inner_complement():
    # A = N minus nothing; A minus A is empty, as the rest of A from any
    # element lies in A's within and meets A's empty inner set (and A
    # itself is an inner atom)
    a = DescribedSet.finite(N, []).complement_within(DescribedSet.interval(N, lo=0))
    with time_limit(2):
        assert a.complement_within(a).first_n(1) == []
    b = DescribedSet.grid(N, 0, [2, 3]).complement_within(DescribedSet.interval(N, lo=0))
    # a set minus itself is empty at once, also where no ray of the rest
    # can be placed in a grid or a Z interval cannot be walked upward
    d = DescribedSet.finite(N, [1, 7]).complement_within(DescribedSet.grid(N, 3, [4, 2, 1]))
    whole_z = DescribedSet.interval(Z)
    with time_limit(2):
        assert b.complement_within(b).first_n(3) == []
        assert d.complement_within(d).first_n(3) == []
        assert whole_z.complement_within(whole_z).first_n(1) == []
        # N minus (N minus evens) lists the evens, without stopping early
        evens = DescribedSet.progression(N, 0, 2).complement_within(DescribedSet.interval(N))
        assert evens.complement_within(DescribedSet.interval(N)).first_n(4) == [0, 2, 4, 6]
    # K counts the steps of an inner complement's `within`, and d comes
    # from a `within` that is itself a complement
    c34 = DescribedSet.finite(N, []).complement_within(DescribedSet.grid(N, 3, [4, 3]))
    i76 = DescribedSet.finite(N, [5]).complement_within(DescribedSet.grid(N, 1, [7, 6]))
    w3 = DescribedSet.finite(N, [1, 10]).complement_within(DescribedSet.grid(N, 8, [3]))
    with time_limit(2):
        assert c34.complement_within(DescribedSet.grid(N, 6, [6, 4, 1])).first_n(2) == [8]
        assert i76.complement_within(DescribedSet.grid(N, 7, [5])).first_n(4) == [12, 17]
        assert DescribedSet.grid(N, 9, [1, 5]).complement_within(w3).first_n(2) == [8]
        # no ray of the rest lies in prog(11; 3), but the line of step 3 does
        w8 = DescribedSet.finite(N, [1]).complement_within(DescribedSet.grid(N, 8, [3]))
        assert DescribedSet.progression(N, 11, 3).complement_within(w8).first_n(2) == [8]
    # a residue class in an inner atom of a `within` that is a complement
    # misses `within`, so it counts as covered, and K counts that atom's
    # steps: the evens from 8 minus the evens from 4, and N minus the
    # multiples of 3 and the point 5, minus N minus the multiples of 3 (K = 3 comes
    # from the inner set of `within` alone)
    evens8 = DescribedSet.progression(N, 5, 2).complement_within(DescribedSet.progression(N, 7, 1))
    inner = DescribedSet(N, [GridAtom(N, 4, [2]), FiniteAtom(N, [0, 1, 3])])
    not3 = DescribedSet.progression(N, 0, 3).union(DescribedSet.finite(N, [5]))
    not3 = not3.complement_within(DescribedSet.interval(N))
    no3 = DescribedSet.progression(N, 0, 3).complement_within(DescribedSet.interval(N))
    with time_limit(2):
        assert inner.complement_within(evens8).first_n(1) == []
        assert no3.complement_within(not3).first_n(1) == []
    c = a.atoms[0]
    assert _atom_subset_of(ProgressionAtom(N, 3, 2), c)
    odd = DescribedSet.progression(N, 1, 2).complement_within(DescribedSet.interval(N)).atoms[0]
    assert _atom_subset_of(ProgressionAtom(N, 4, 2), odd)
    assert not _atom_subset_of(ProgressionAtom(N, 4, 1), odd)


ends = st.one_of(st.none(), st.integers(0, 8))


@settings(max_examples=100, deadline=None)
@given(ends, st.integers(0, 8), st.booleans(), st.booleans())
def test_finite_natural_interval_lists_its_members(lo, hi, lo_strict, hi_strict):
    iv = IntervalAtom(N, lo, hi, lo_strict, hi_strict)
    assert iv.elements() == [n for n in range(20) if iv.contains(n)]


def test_intervals_of_z_decide_as_lines():
    ray, up = DescribedSet.interval(Z, lo=3), DescribedSet.progression(Z, 0, 1)
    assert generate(Z, [up]).is_bounded(ray) is Verdict.BOUNDED
    assert perp(generate(Z, [up])).is_bounded(ray) is Verdict.UNBOUNDED
    assert atom_intersection(IntervalAtom(Z, hi=4), ProgressionAtom(Z, 5, -3)) == (False, None)
    from_zero = generate(Z, [DescribedSet.interval(Z, lo=0)])
    assert perp(from_zero).is_bounded(DescribedSet.progression(Z, 3, 2)) is Verdict.UNBOUNDED
    # a down-ray keeps the interval's own error text
    with pytest.raises(SetError, match=r"^cannot enumerate interval in increasing order$"):
        DescribedSet.interval(Z, hi=3).first_n(1)


def _interval_line(u, lo, hi, lo_strict, hi_strict):
    """The progression an interval of N or Z is, built from its ends: a
    strict end moves one step in, and N starts at 0; None for all of Z."""
    a = (0 if u == N else None) if lo is None else lo + (1 if lo_strict else 0)
    b = None if hi is None else hi - (1 if hi_strict else 0)
    if a is None:
        return None if b is None else ProgressionAtom(u, b, -1)
    return ProgressionAtom(u, a, 1, None if b is None else max(0, b - a + 1))


@st.composite
def _intervals_with_partners(draw):
    """An interval of N or Z with ends in [-8, 8] or missing, a line, grid
    or finite atom to set it against, and a bound."""
    u = draw(st.sampled_from([N, Z]))
    el = st.integers(0 if u == N else -8, 8)
    end = st.one_of(st.none(), el)
    ends = (draw(end), draw(end), draw(st.booleans()), draw(st.booleans()))
    step = st.integers(1, 3) if u == N else st.integers(-3, 3).filter(bool)
    partner = draw(st.one_of(
        st.builds(lambda s, d, c: ProgressionAtom(u, s, d, c), el, step, st.sampled_from([None, None, 3])),
        st.builds(lambda b, gs: GridAtom(u, b, gs), el, st.lists(st.integers(1, 3), min_size=1, max_size=2)),
        st.lists(el, max_size=4).map(lambda es: FiniteAtom(u, es)),
    ))
    return u, ends, partner, draw(el)


def _far(points):
    """True when a point lies beyond 20: every finite set drawn here lies
    in [-8, 14], and every infinite one repeats with a period of at most 6."""
    return any(abs(p) > 20 for p in points)


def _interval_answers(u, a, partner, bound):
    s, p = DescribedSet(u, [a]), DescribedSet(u, [partner])
    try:
        first = s.first_n(4)
    except SetError as exc:
        first = str(exc)
    bornologies = [well_ordered(u), reverse_well_ordered(u), order_type_omega(u), finite_subsets(u),
                   all_subsets(u), generate(u, [p]), perp(generate(u, [p]))]
    return {
        "finite": a.is_finite(), "class": a.classify(),
        "upto": a.elements_upto(bound), "downto": a.elements_downto(bound), "first": first,
        "meets": (atom_intersection(a, partner), atom_intersection(partner, a)),
        "subsets": (_atom_subset_of(a, partner), _atom_subset_of(partner, a)),
        "bounded": [b.is_bounded(s) for b in bornologies],
        "bounds": [generate(u, [s]).is_bounded(p), perp(generate(u, [s])).is_bounded(p)],
    }


@settings(max_examples=300, deadline=None)
@given(_intervals_with_partners())
@example((Z, (3, None, False, False), ProgressionAtom(Z, 0, 1), 0))
@example((Z, (None, 4, False, False), ProgressionAtom(Z, 5, -3), 0))
@example((Z, (0, None, False, False), ProgressionAtom(Z, 3, 2), 0))
@example((Z, (None, 3, False, False), GridAtom(Z, 0, [2]), 0))
def test_an_interval_decides_as_its_line(case):
    """An interval of N or Z answers every query as the progression built
    from its ends, and each definite answer agrees with a box."""
    u, ends, partner, bound = case
    iv = IntervalAtom(u, *ends)
    line = _interval_line(u, *ends)
    box = [n for n in range(-40, 41) if u.contains(n)]
    members = [n for n in box if iv.contains(n)]
    with time_limit(2):
        got = _interval_answers(u, iv, partner, bound)
        if line is not None:
            assert members == [n for n in box if line.contains(n)]
            want = _interval_answers(u, line, partner, bound)
            if got["class"] == DOWN:
                # the interval keeps its own error text
                assert got["first"] == "cannot enumerate interval in increasing order"
                got["first"] = want["first"]
            assert got == want
    assert got["finite"] is (not _far(members))
    if isinstance(got["first"], list):
        assert got["first"] == members[:4]
    other = [n for n in box if partner.contains(n)]
    meet = [n for n in members if n in other]
    for fin, els in got["meets"]:
        if fin is not None:
            assert fin is not _far(meet) and (not fin or sorted(els) == meet)
    for sub, (x, y) in zip(got["subsets"], [(members, other), (other, members)]):
        assert not sub or set(x) <= set(y)
    rests = [[n for n in members if n not in other], meet, [n for n in other if n not in members], meet]
    for v, rest in zip(got["bounded"][-2:] + got["bounds"], rests):
        if v is not Verdict.UNDECIDED:
            assert (v is Verdict.BOUNDED) is not _far(rest)


def test_complement_meets_interval_by_the_walk():
    c = DescribedSet.finite(Q, [2]).complement_within(DescribedSet.progression(Q, 0, 1)).atoms[0]
    want = [Fraction(n) for n in (0, 1, 3, 4, 5)]
    assert atom_intersection(c, IntervalAtom(Q, hi=5)) == (True, want)
    assert atom_intersection(IntervalAtom(Q, hi=5), c) == (True, want)


NN = PairUniverse(N, N)
XYZ = MonomialUniverse(["x", "y"], "integer")
LEX_PLANES = PLANES + [(XYZ, lambda v: tuple(Fraction(c) for c in v))]
step2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(_nonzero)
bound2 = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LEX_PLANES), vec2, step2, st.sampled_from([None, 0, 1, 5]), bound2)
def test_progression_sides_match_its_first_terms(plane, start, step, count, bound):
    u, el = plane
    p = ProgressionAtom(u, el(start), el(step), count)
    n = 200 if count is None else count
    terms = [(start[0] + k * step[0], start[1] + k * step[1]) for k in range(n)]
    rising = step > (0, 0)
    for up in (True, False):
        with time_limit(2):
            got = p.elements_upto(el(bound)) if up else p.elements_downto(el(bound))
        listed = sorted(t for t in terms if (t <= bound if up else t >= bound))
        if got is not None:
            assert got == [el(t) for t in listed]
            assert count is not None or len(listed) < n
        else:
            # a finite progression always answers; on the side the walk heads
            # to, None means that no term passes the bound
            assert count is None
            if up == rising:
                assert len(listed) == n


def _box(u):
    """The points of a box around the drawn elements."""
    if u.dim == 1:
        if u == Q:
            return [Fraction(n, 2) for n in range(-40, 41)]
        return [n for n in range(-20, 21) if u.contains(n)]
    pts = [(a, b) for a in range(-9, 10) for b in range(-9, 10)]
    if isinstance(u, PairUniverse):
        return [p for p in pts if u.contains(p)]
    return [u.check(p) for p in pts]


def _elements(u, span=8):
    """A strategy for elements of u with coordinates in [-span, span]."""
    c = st.integers(0 if u in (N, NN) else -span, span)
    if u.dim == 1:
        return c.map(Fraction) if u == Q else c
    # a zero first coordinate keeps a step inside one lex block
    pair = st.tuples(st.one_of(st.just(0), c), c)
    return pair if isinstance(u, PairUniverse) else pair.map(u.check)


def _above_unit(u):
    return _elements(u, 3).filter(lambda e: u.key(e) > u.key(u.unit))


def _non_unit(u):
    return _elements(u, 3).filter(lambda e: u.key(e) != u.key(u.unit))


def _one_generator_grids(u):
    """Grids that meet as the progressions they are."""
    return st.builds(lambda b, g: GridAtom(u, b, [g]), _elements(u), _above_unit(u))


def _plain_atoms(u):
    els = _elements(u)
    return st.one_of(
        st.lists(els, max_size=4).map(lambda es: FiniteAtom(u, es)),
        st.builds(lambda s, d, c: ProgressionAtom(u, s, d, c),
                  els, _non_unit(u), st.sampled_from([None, None, 0, 3])),
        st.builds(lambda b, gs: GridAtom(u, b, gs), els, st.lists(_above_unit(u), min_size=1, max_size=2)),
        _one_generator_grids(u),
        st.builds(lambda lo, hi, ls, hs: IntervalAtom(u, lo, hi, ls, hs),
                  st.one_of(st.none(), els), st.one_of(st.none(), els), st.booleans(), st.booleans()),
    )


@st.composite
def _atom_pairs(draw):
    u = draw(st.sampled_from([Z, N, Q, T2, ZZ, NN, XYZ]))

    def atom():
        a = draw(_plain_atoms(u))
        if draw(st.integers(0, 3)) == 0:
            a = ComplementAtom(DescribedSet(u, [draw(_plain_atoms(u))]), a)
        return a

    return u, atom(), atom()


@settings(max_examples=300, deadline=None)
@given(_atom_pairs())
@example((ZZ, ProgressionAtom(ZZ, (0, 0), (0, 1)), IntervalAtom(ZZ, hi=(1, 0))))
@example((N, IntervalAtom(N), IntervalAtom(N, hi=0, lo_strict=True)))
@example((T2, ProgressionAtom(T2, (0, 5), (0, -1)), GridAtom(T2, (0, 0), [(1, 0), (0, 2)])))
@example((N, GridAtom(N, 2, [2]), GridAtom(N, 1, [2])))
@example((Z, GridAtom(Z, -3, [3]), ProgressionAtom(Z, 7, -2)))
def test_definite_finite_meets_match_box_enumeration(case):
    u, a1, a2 = case
    with time_limit(2):
        fin, els = atom_intersection(a1, a2)
    if fin is not True:
        return
    assert all(a1.contains(e) and a2.contains(e) for e in els)
    assert len(set(els)) == len(els)
    listed = set(els)
    for e in _box(u):
        if a1.contains(e) and a2.contains(e):
            assert e in listed, (e, a1, a2)


def _line_factors():
    """Sets on N of one or two atoms: finite sets, counted or uncounted
    progressions, grids of one or two generators and intervals, with points
    in [0, 12] and steps in [1, 3]."""
    pt, size = st.integers(0, 12), st.integers(1, 3)
    atom = st.one_of(
        st.lists(pt, max_size=3).map(lambda es: FiniteAtom(N, es)),
        st.builds(lambda s, d, c: ProgressionAtom(N, s, d, c),
                  pt, size, st.sampled_from([None, None, 0, 4])),
        st.builds(lambda b, gs: GridAtom(N, b, gs), pt, st.lists(size, min_size=1, max_size=2)),
        st.builds(lambda lo, hi: IntervalAtom(N, lo, hi),
                  st.one_of(st.none(), pt), st.one_of(st.none(), pt)),
    )
    return st.lists(atom, min_size=1, max_size=2).map(lambda atoms: DescribedSet(N, atoms))


def _nat(*atoms):
    return DescribedSet(N, atoms)


NATS_UP, EVENS_UP, ODDS_UP = (_nat(ProgressionAtom(N, s, d)) for s, d in [(0, 1), (0, 2), (1, 2)])
ONE_TWO = _nat(FiniteAtom(N, [1, 2]))


@settings(max_examples=200, deadline=None)
@given(_line_factors(), _line_factors(), _line_factors(), _line_factors())
@example(NATS_UP, ONE_TWO, _nat(FiniteAtom(N, [0, 1])), NATS_UP)  # finite x finite
@example(EVENS_UP, NATS_UP, ODDS_UP, NATS_UP)  # an empty side
@example(NATS_UP, NATS_UP, NATS_UP, NATS_UP)  # infinite x infinite
@example(NATS_UP, ONE_TWO, NATS_UP, NATS_UP)  # infinite x finite
@example(ONE_TWO, NATS_UP, NATS_UP, NATS_UP)  # finite x infinite
@example(_nat(IntervalAtom(N)), NATS_UP, _nat(GridAtom(N, 7, [2, 3])), NATS_UP)  # undecided today
def test_product_meets_match_box_enumeration(l1, r1, l2, r2):
    """A meet of two product atoms on N x N agrees with enumeration of its
    sides' meets over [0, 60): a finite side meet lies below 22 (the end of
    a counted progression), and an infinite one repeats with a period of at
    most 6 after 14, so it has points in [30, 60)."""
    with time_limit(2):
        fin, els = atom_intersection(ProductAtom(NN, l1, r1), ProductAtom(NN, l2, r2))
    left = {x for x in range(60) if l1.contains(x) and l2.contains(x)}
    right = {y for y in range(60) if r1.contains(y) and r2.contains(y)}
    infinite = (max(left, default=0) >= 30 and right) or (max(right, default=0) >= 30 and left)
    if fin is True:
        assert not infinite
        assert len(set(els)) == len(els) and set(els) == {(x, y) for x in left for y in right}
    elif fin is False:
        assert infinite


@settings(max_examples=200, deadline=None)
@given(_line_factors(), _line_factors(), _line_factors(), _line_factors())
@example(EVENS_UP, ONE_TWO, NATS_UP, _nat(FiniteAtom(N, [0, 1, 2])))  # inside
def test_a_product_inside_a_product_holds_on_a_box(l1, r1, l2, r2):
    """A product atom lies in another when each side's atoms lie in the
    other's; a True answer holds at every point of [0, 30)^2."""
    p1, p2 = ProductAtom(NN, l1, r1), ProductAtom(NN, l2, r2)
    with time_limit(2):
        inside = _atom_subset_of(p1, p2)
    if inside:
        box = [(x, y) for x in range(30) for y in range(30)]
        assert all(p2.contains(p) for p in box if p1.contains(p))


def test_a_product_lists_rows_of_a_finite_right_side_in_order():
    p = DescribedSet(NN, [ProductAtom(NN, EVENS_UP, ONE_TWO)])
    box = sorted((x, y) for x in range(30) for y in range(30) if p.contains((x, y)))
    assert p.first_n(7) == box[:7]


halves = st.integers(-8, 8).map(lambda n: Fraction(n, 2))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.none(), halves), st.one_of(st.none(), halves), st.booleans(), st.booleans(),
       st.one_of(st.none(), halves), st.one_of(st.none(), halves), st.booleans(), st.booleans())
def test_interval_inside_interval_matches_a_box(lo1, hi1, ls1, hs1, lo2, hi2, ls2, hs2):
    """On Q, where an interval is no line, one interval lies in another iff
    every point of a box of quarters does: the ends are halves in [-4, 4],
    so two infinite intervals that differ do so at a quarter in [-6, 6]."""
    a, b = IntervalAtom(Q, lo1, hi1, ls1, hs1), IntervalAtom(Q, lo2, hi2, ls2, hs2)
    box = [Fraction(n, 4) for n in range(-24, 25)]
    assert _atom_subset_of(a, b) is all(b.contains(p) for p in box if a.contains(p))


def test_falling_progression_walks_down_to_a_grid_base():
    # every grid generator lies above the unit, so the base bounds the grid below
    fin, els = atom_intersection(ProgressionAtom(T2, (0, 5), (0, -1)),
                                 GridAtom(T2, (0, 0), [(1, 0), (0, 2)]))
    assert fin is True and els == [T2.check(p) for p in [(0, 0), (0, 2), (0, 4)]]


@st.composite
def _line_grid_meets(draw):
    """A one-generator grid and a one-generator grid or an infinite
    progression, on a line."""
    u = draw(st.sampled_from([Z, N, Q]))
    grid = _one_generator_grids(u)
    prog = st.builds(lambda s, d: ProgressionAtom(u, s, d), _elements(u), _non_unit(u))
    return u, draw(grid), draw(st.one_of(grid, prog))


@settings(max_examples=200, deadline=None)
@given(_line_grid_meets())
@example((N, GridAtom(N, 2, [2]), GridAtom(N, 1, [2])))
def test_one_generator_grid_meets_are_decided(case):
    """Such a meet is always decided, and agrees with enumeration over a
    box: every point of a finite meet lies within [-8, 8] (a grid's base
    bounds it below, a falling progression's start above), and an infinite
    one repeats with a period of at most 6 there."""
    u, a1, a2 = case
    with time_limit(2):
        fin, els = atom_intersection(a1, a2)
    box = [e for e in map(Fraction if u == Q else int, range(-40, 121)) if u.contains(e)]
    meet = {e for e in box if a1.contains(e) and a2.contains(e)}
    assert fin is not None
    if fin:
        assert len(els) == len(meet) and set(els) == meet
    else:
        assert len(meet) >= 10
    assert described_intersection(DescribedSet(u, [a1]), DescribedSet(u, [a2]))[0] is fin


def _arith_elements(u, span=8):
    if u is X1:
        return st.integers(-span, span).map(lambda n: X1.monomial(x=Fraction(n, 2)))
    return _elements(u, span)


def _arith_atoms(u):
    """Progressions (rising, falling, counted) and grids of up to three
    generators on u."""
    els, small = _arith_elements(u), _arith_elements(u, 3)
    unit = u.key(u.unit)
    return st.one_of(
        st.builds(lambda s, d, c: ProgressionAtom(u, s, d, c),
                  els, small.filter(lambda e: u.key(e) != unit), st.sampled_from([None, None, 4])),
        st.builds(lambda b, gs: GridAtom(u, b, gs),
                  els, st.lists(small.filter(lambda e: u.key(e) > unit), min_size=1, max_size=3)),
    )


@st.composite
def _arith_pairs(draw):
    u = draw(st.sampled_from([Z, T2, X1]))
    return u, draw(_arith_atoms(u)), draw(_arith_atoms(u))


@settings(max_examples=300, deadline=None)
@given(_arith_pairs())
@example((Z, GridAtom(Z, 5, [2, 3]), ProgressionAtom(Z, 4, 1)))
@example((Z, ProgressionAtom(Z, 0, -2), ProgressionAtom(Z, 2, -1)))
@example((T2, ProgressionAtom(T2, (1, 2), (1, 1)), GridAtom(T2, (0, 0), [(0, 1), (1, 0)])))
@example((X1, GridAtom(X1, X1.monomial(x=1), [X1.monomial(x=1), X1.monomial(x=Fraction(3, 2))]),
          ProgressionAtom(X1, X1.unit, X1.monomial(x=Fraction(1, 2)))))
def test_subset_rule_holds_on_listed_elements(case):
    # whenever the rule places a inside b, every element a lists up to a
    # far bound (down to it when a falls) lies in b
    u, a, b = case
    if not _atom_subset_of(a, b):
        return
    far = {Z: 40, T2: (9, 9), X1: X1.monomial(x=20)}[u]
    with time_limit(2):
        if a.is_finite():
            listed = a.elements()
        elif a.classify() == DOWN:
            listed = a.elements_downto(u.inv(far))
        else:
            listed = a.elements_upto(far)
    for e in listed or []:
        assert b.contains(e), (e, a, b)
