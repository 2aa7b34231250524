"""Lattice bookkeeping for grid sets.

Oracle notes: nonneg_solutions, Lattice.contains and GridAtom.contains are
checked against an independent bounded brute-force search over exponent
boxes [DERIVED], and the 1-D Apery test of Lattice.contains against an
upward enumeration of the monoid past its conductor [DERIVED]; grid enumeration
against a sorted exhaustive generation [DERIVED], and the 1-D walk of
grid_points_upto against the heap walk of grid_points cut at the bound
[DERIVED].
"""

import itertools
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sigmavect.gridsolve import (
    APERY_LIMIT,
    Lattice,
    grid_points,
    grid_points_upto,
    leading_index,
    nonneg_solutions,
    positive_weights,
    shares_leading_index,
    weight,
)
from sigmavect.sets import GridAtom
from sigmavect.universe import MonomialUniverse


def brute_solutions(gens, target, kmax=12):
    """Independent oracle: exhaustive search over the box [0, kmax]^m."""
    out = []
    m = len(gens)
    n = len(target)
    for ks in itertools.product(range(kmax + 1), repeat=m):
        vec = tuple(
            sum(ks[j] * gens[j][i] for j in range(m)) for i in range(n)
        )
        if vec == tuple(target):
            out.append(ks)
    return sorted(out)


def test_leading_index():
    assert leading_index((0, 0, 3)) == 2
    assert leading_index((0, -1, 5)) == 1
    assert leading_index((0, 0)) is None


def test_positive_weights_are_positive_on_inputs():
    gens = [(Fraction(1), Fraction(-7)), (Fraction(0), Fraction(2))]
    wts = positive_weights(gens)
    for g in gens:
        assert weight(wts, g) > 0


def test_nonneg_solutions_simple():
    # k1*1 + k2*2 = 5 has solutions (5,0), (3,1), (1,2) [DERIVED]
    sols = sorted(nonneg_solutions([(Fraction(1),), (Fraction(2),)], (Fraction(5),)))
    assert sols == [(1, 2), (3, 1), (5, 0)]


def test_nonneg_solutions_empty_generators():
    assert nonneg_solutions([], (Fraction(0),)) == [()]
    assert nonneg_solutions([], (Fraction(1),)) == []


frac_small = st.integers(-3, 3).map(Fraction)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3).map(Fraction), frac_small).filter(
            lambda v: any(v) and v[leading_index(v)] > 0
        ),
        min_size=1,
        max_size=3,
    ),
    st.tuples(st.integers(0, 8).map(Fraction), st.integers(-8, 8).map(Fraction)),
)
def test_nonneg_solutions_match_brute_force(gens, target):
    got = sorted(nonneg_solutions(gens, target))
    want = [s for s in brute_solutions(gens, target) if all(k <= 12 for k in s)]
    # the brute-force box may clip solutions with some k > 12; restrict both
    got = [s for s in got if all(k <= 12 for k in s)]
    assert got == want


def test_grid_points_increasing_and_complete():
    gens = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    base = (Fraction(0), Fraction(0))
    pts = list(grid_points(gens, base, count=10))
    assert pts == sorted(pts)
    assert len(set(pts)) == 10
    # oracle: the 10 lex-smallest points of N^2 all have first coordinate 0
    brute = [(Fraction(0), Fraction(b)) for b in range(10)]
    assert pts == brute


def test_grid_points_walk_keeps_no_record_of_past_points():
    # 10^5 steps of one generator hold a single point, far below the megabytes
    # a set of every visited point takes; generators whose sums meet again
    # still list each value once
    walk = grid_points([(1,)], (0,))
    tracemalloc.start()
    try:
        for _ in range(10 ** 5):
            last = next(walk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last == (10 ** 5 - 1,) and peak < 10 ** 5
    assert list(grid_points([(2,), (3,)], (0,), count=8)) == [(k,) for k in (0, 2, 3, 4, 5, 6, 7, 8)]


def test_shares_leading_index():
    assert shares_leading_index([(1, 0), (2, -1)])
    assert not shares_leading_index([(1, 0), (0, 1)])


def test_grid_points_upto_decidable_case():
    # the lattice of step 1/2 scales by 2: its frame ints are halves
    lattice = Lattice([(Fraction(1, 2),)], [(Fraction(0),)])
    got = grid_points_upto(lattice, lattice.scaled((Fraction(0),)), (Fraction(3) * lattice.scale,))
    assert [lattice.unscaled(t) for t in got] == [(Fraction(k, 2),) for k in range(7)]


def test_grid_points_upto_honest_none():
    # generators with distinct leading coordinates: infinitely many points
    # may sit below a bound in a later block, so the answer is None
    lattice = Lattice([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))])
    assert grid_points_upto(lattice, (0, 0), (1, 0)) is None


def test_grid_points_upto_empty_when_base_above():
    lattice = Lattice([(Fraction(1),)], [(Fraction(5),)])
    assert grid_points_upto(lattice, (5,), (3,)) == []
    # in two dimensions the heap walk stops at once: the base lies above the bound
    lattice = Lattice([(1, 2), (1, -1)])
    assert grid_points_upto(lattice, (5, 0), (3, 7)) == []


# Rational coordinates for the lattice kernel.  The ranges keep every
# solution inside the oracle's box [0, 12]^m: in one dimension k <= 4 / (1/3);
# in two, generators with a positive first coordinate (>= 1/3) are used at
# most 3 times, shifting the second coordinate by at most 3/2, so those with
# first coordinate 0 (second >= 1/3) are used at most (1 + 3/2) * 3 times.
POS = [Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
POS_LINE = POS + [Fraction(2, 3), Fraction(3, 4), Fraction(5, 6), Fraction(2)]
NEG = [Fraction(-1, 2), Fraction(-2, 5), Fraction(-1, 3)]


def thirtieths(lo, hi):
    return st.integers(lo, hi).map(lambda n: Fraction(n, 30))


gens_1d = st.lists(st.sampled_from(POS).map(lambda c: (c,)), min_size=1, max_size=3)
gens_2d = st.lists(
    st.tuples(
        st.sampled_from([Fraction(0)] + POS[:4]), st.sampled_from(NEG + [Fraction(0)] + POS[:4])
    ).filter(lambda v: any(v) and v[leading_index(v)] > 0),
    min_size=1,
    max_size=3,
)
cases = st.one_of(
    st.tuples(gens_1d, st.tuples(thirtieths(-30, 120)), st.tuples(thirtieths(0, 30))),
    st.tuples(
        gens_2d,
        st.tuples(thirtieths(-3, 30), thirtieths(-30, 30)),
        st.tuples(thirtieths(0, 30), thirtieths(-30, 30)),
    ),
)


@settings(max_examples=120, deadline=None)
@given(cases)
def test_lattice_and_grid_membership_match_brute_force(case):
    gens, target, base = case
    want = brute_solutions(gens, target)
    assert sorted(nonneg_solutions(gens, target)) == want
    lattice = Lattice(gens)
    assert lattice.contains(lattice.scaled(target)) == bool(want)
    u = MonomialUniverse(["x", "y"][: len(target)])
    atom = GridAtom(u, base, gens)
    el = tuple(b + t for b, t in zip(base, target))
    assert atom.contains(el) == bool(want)


def test_target_off_the_scaled_lattice():
    # grid(1; x^(1/2), x^(1/3)) scales by 6; x^(1/5) scales to 6/5
    gens = [(Fraction(1, 2),), (Fraction(1, 3),)]
    u = MonomialUniverse(["x"])
    atom = GridAtom(u, u.unit, gens)
    assert not atom.contains((Fraction(1, 5),))
    assert atom.contains((Fraction(5, 6),))
    assert not atom.contains((Fraction(1, 6),))
    assert nonneg_solutions(gens, (Fraction(1, 5),)) == []
    assert nonneg_solutions(gens, (Fraction(2),)) == [(0, 6), (2, 3), (4, 0)]


def test_lattice_scales_once_to_integers():
    lat = Lattice([(Fraction(1, 2), Fraction(-2, 5)), (Fraction(0), Fraction(1, 3))])
    assert lat.scale == 30
    assert lat.gens == [(15, -12), (0, 10)]
    assert all(isinstance(c, int) for g in lat.gens for c in g)
    assert all(w > 0 for w in lat.gw)


def monoid_upto(gens, bound):
    """The sums of nonnegative multiples of gens up to bound, enumerated
    upward: t is one when t = 0 or t - g is one for some g in gens."""
    ok = [True] + [False] * bound
    for t in range(1, bound + 1):
        ok[t] = any(t >= g and ok[t - g] for g in gens)
    return {t for t in range(bound + 1) if ok[t]}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(1, 13), min_size=2, max_size=4))
def test_one_dimensional_membership_matches_enumeration(factor, ks):
    # gcd(gens) >= factor, so for factor > 1 whole residue classes are
    # missing; the targets run from below 0 to past the conductor
    gens = [factor * k for k in ks]
    bound = max(gens) ** 2 + max(gens)
    points = monoid_upto(gens, bound)
    lattice = Lattice([(g,) for g in gens])
    assert lattice.apery() is not None
    for t in range(-2 * max(gens), bound + 1):
        assert lattice.contains((t,)) == (t in points), (gens, t)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=2, max_size=4), st.integers(0, 4),
       st.integers(-2, 2))
def test_one_dimensional_membership_above_the_table_bound_searches(offsets, k, shift):
    # the smallest generator lies above APERY_LIMIT: no table, the search
    # answers, on the same points
    gens = [APERY_LIMIT + d for d in offsets]
    lattice = Lattice([(g,) for g in gens])
    assert lattice.apery() is None
    target = k * gens[0] + (k % 2) * gens[-1] + shift
    assert lattice.contains((target,)) == (target in monoid_upto(gens, max(target, 0)))


def test_apery_table_reads_a_scaled_lattice():
    # grid(1; x^(2/3), x^(1/2)) scales by 6 to <4, 3>: the Apery set of 3
    # is 0, 4, 8 and the gaps are 1, 2, 5
    lattice = Lattice([(Fraction(2, 3),), (Fraction(1, 2),)])
    assert lattice.apery() == [0, 4, 8]
    assert [t for t in range(12) if not lattice.contains((t,))] == [1, 2, 5]


def heap_points_upto(gens, base, bound):
    """Oracle: the heap walk of grid_points, cut at the bound."""
    return list(itertools.takewhile(lambda v: v <= bound, grid_points(gens, base)))


line_bounds = st.one_of(st.integers(-40, 150), st.builds(Fraction, st.integers(-400, 1500), st.integers(1, 7)))
line_cases = st.one_of(
    # int generators sharing the factor f, so whole residue classes miss
    st.builds(lambda f, ks, b, hi: ([(f * k,) for k in ks], (b,), (hi,)),
              st.integers(1, 4), st.lists(st.integers(1, 12), min_size=1, max_size=4),
              st.integers(-30, 30), line_bounds),
    # Fraction coordinates, scaled onto the lattice's frame
    st.builds(lambda gens, b, hi: ([(g,) for g in gens], (b,), (hi,)),
              st.lists(st.sampled_from(POS_LINE), min_size=1, max_size=3),
              st.integers(-90, 90).map(lambda n: Fraction(n, 30)),
              st.integers(-60, 240).map(lambda n: Fraction(n, 12))),
    # a smallest generator above APERY_LIMIT: the heap walk answers
    st.builds(lambda ds, b, k: ([(APERY_LIMIT + d,) for d in ds], (b,), (b + k,)),
              st.lists(st.integers(1, 40), min_size=2, max_size=3),
              st.integers(-30, 30), st.integers(-10, 5 * APERY_LIMIT)),
)


@settings(max_examples=300, deadline=None)
@given(line_cases)
def test_line_walk_matches_the_heap_walk(case):
    """A 1-D grid read off the Apery table of the Lattice it is walked on
    (its frame holds the base; the bound is compared exactly, off the
    frame too) is the heap walk cut at the bound."""
    gens, base, bound = case
    lattice = Lattice(gens, [base])
    base = lattice.scaled(base)
    bound = tuple(c * lattice.scale for c in bound)
    want = heap_points_upto(lattice.gens, base, bound)
    assert grid_points_upto(lattice, base, bound) == want
