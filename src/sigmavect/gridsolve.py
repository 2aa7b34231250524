"""Lattice-point bookkeeping for grid sets, in integer coordinates.

A grid is {base + k1*g1 + ... + km*gm : ki in N} written additively in the
exponent embedding Q^n.  All generators are lexicographically positive, so
no nontrivial nonnegative combination vanishes; a positive linear weight
functional therefore exists and bounds every exponent search exactly.

A `Lattice` fixes one integer frame: it scales by the lcm of the coordinate
denominators of its generators and of the points given with them (a grid's
base, a product's finite elements), so every element of the grid has
integer coordinates and the searches run on machine ints (Puiseux exponents
included).  `scaled` moves a vector into the frame, or gives None when the
vector leaves it, which means "not a member": integer combinations of
integer vectors are integer.  Membership takes the closed form for one
generator; a 1-D lattice of several generators reads the Apery set w of its
smallest generator a, t being a point iff t >= w[t mod a] (Ramirez
Alfonsin, The Diophantine Frobenius Problem, 2005), a table built once
when a <= APERY_LIMIT; any other lattice stops its search at the first
representation.  `solutions` lists them all.  The heap walk `grid_points`
works on any coordinates; `grid_points_upto` walks a `Lattice`'s frame ints
and reads a 1-D grid off the same Apery table: its points up to a bound are
the runs base + w[r] + k*a, one per residue r, merged by one sort, in
O(a + points * log a) steps, not O(bound) (one generator is a range);
other grids are walked on a heap.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm

APERY_LIMIT = 4096  # largest smallest generator a 1-D lattice tabulates


def leading_index(vec):
    """Index of the first nonzero coordinate, or None for the zero vector."""
    for i, c in enumerate(vec):
        if c != 0:
            return i
    return None


def positive_weights(vectors):
    """Integer weights (M^(n-1), ..., M, 1) giving every vector in `vectors`
    a strictly positive weight.  All of `vectors` must be lex-positive."""
    vecs = list(vectors)
    if not vecs:
        return (1,)
    n = len(vecs[0])
    maxabs = max(abs(c) for v in vecs for c in v)
    min_lead = None
    for v in vecs:
        i = leading_index(v)
        if i is None or v[i] <= 0:
            raise ValueError("vector %r is not lex-positive" % (v,))
        if min_lead is None or v[i] < min_lead:
            min_lead = v[i]
    m = max(2, -(-(2 * maxabs + min_lead) // min_lead))
    return tuple(m ** (n - 1 - i) for i in range(n))


def weight(wts, vec):
    return sum(w * c for w, c in zip(wts, vec))


def scaled(vec, scale):
    """The exact vector vec (ints and Fractions) times scale, as ints, or
    None when that leaves the ints."""
    out = []
    for c in vec:
        if type(c) is int:
            out.append(c * scale)
            continue
        q, r = divmod(c.numerator * scale, c.denominator)
        if r:
            return None
        out.append(q)
    return tuple(out)


def unscaled(t, scale):
    """The exact vector of ints t over scale, an integral coordinate as an
    int and any other as a Fraction."""
    return tuple(c // scale if c % scale == 0 else Fraction(c, scale) for c in t)


class Lattice:
    """The nonnegative integer combinations of lex-positive generators, on
    the integer frame that also holds `points`."""

    __slots__ = ("gens", "scale", "wts", "gw", "lead", "_apery")

    def __init__(self, generators, points=()):
        gens = [tuple(g) for g in generators]
        scale = 1
        for v in itertools.chain(gens, points):
            for c in v:
                scale = lcm(scale, c.denominator)
        self._fix([tuple([c.numerator * (scale // c.denominator) for c in g]) for g in gens],
                  scale)

    @classmethod
    def on_frame(cls, gens, scale):
        """The lattice of generators given as frame coordinates on `scale`
        (int tuples), with nothing to rescale."""
        lattice = cls.__new__(cls)
        lattice._fix(gens, scale)
        return lattice

    def _fix(self, gens, scale):
        self.scale = scale
        self.gens = gens
        self.wts = positive_weights(gens)
        self.gw = [weight(self.wts, g) for g in gens]
        self.lead = leading_index(gens[-1]) if gens else None
        self._apery = None

    def scaled(self, vec):
        """vec * scale as ints, or None when it leaves the frame (and so is
        no point of the lattice or of a grid on it)."""
        return scaled(vec, self.scale)

    def unscaled(self, t):
        """The exponent vector of frame coordinates t, an integral
        coordinate as an int."""
        return unscaled(t, self.scale)

    def multiple(self, t):
        """The k >= 0 with t == k * (last generator), or None (also for t
        None, off the frame)."""
        if t is None:
            return None
        last = self.gens[-1]
        k, r = divmod(t[self.lead], last[self.lead])
        if r or k < 0 or any(a != k * c for a, c in zip(t, last)):
            return None
        return k

    def solutions(self, t):
        """Yield every (k1, ..., km) in N^m with sum ki*gi == t, for t in
        frame coordinates (None yields nothing), in lex order; the weight
        functional bounds the depth-first search and the last coefficient
        is solved by division."""
        if t is None:
            return
        gens, gw = self.gens, self.gw
        m = len(gens)
        if not m:
            if not any(t):
                yield ()
            return
        ks = [0] * m

        def rec(i, rest, rest_w):
            if i == m - 1:
                k = self.multiple(rest)
                if k is not None:
                    ks[i] = k
                    yield tuple(ks)
                return
            g, w = gens[i], gw[i]
            k = 0
            while rest_w >= 0:
                ks[i] = k
                yield from rec(i + 1, rest, rest_w)
                k += 1
                rest = tuple(a - b for a, b in zip(rest, g))
                rest_w -= w

        yield from rec(0, t, weight(self.wts, t))

    def apery(self):
        """The Apery set of a 1-D lattice of two or more generators whose
        smallest generator is at most APERY_LIMIT (`apery_set`), built on
        first use; None for any other lattice."""
        if self._apery is None:
            self._apery = False
            if len(self.gens) > 1 and len(self.gens[0]) == 1:
                gens = sorted({g for g, in self.gens})
                if gens[0] <= APERY_LIMIT:
                    self._apery = apery_set(gens)
        return self._apery or None

    def contains(self, t):
        """True when t, in frame coordinates, is a nonnegative combination
        of the generators; False for None (off the frame).  One generator
        takes the closed form, a 1-D lattice its Apery set (t is a point
        iff t >= w[t mod a]), any other the search for one solution."""
        if t is None:
            return False
        if len(self.gens) == 1:
            return self.multiple(t) is not None
        w = self.apery()
        if w is not None:
            n = w[t[0] % len(w)]
            return n is not None and t[0] >= n
        return next(self.solutions(t), None) is not None


def apery_set(gens):
    """The Apery set w of the least of the positive ints gens, a, in the
    monoid they generate: w[r] is the least element congruent to r mod a,
    or None when no element is, so t is an element iff t >= w[t mod a].
    Built by the round-robin pass of Bocker and Liptak (Algorithmica 48,
    2007) in O(m*a) steps."""
    a = gens[0]
    w = [None] * a
    w[0] = 0
    for b in gens[1:]:
        d = gcd(a, b)
        for r in range(d):
            # run once around the cycle of r + N*b mod a from its least
            # entry, relaxing each entry by its predecessor plus b
            known = [w[q] for q in range(r, a, d) if w[q] is not None]
            if not known:
                continue
            n = min(known)
            for _ in range(a // d - 1):
                n += b
                q = n % a
                if w[q] is not None and w[q] < n:
                    n = w[q]
                w[q] = n
    return w


def nonneg_solutions(generators, target):
    """All (k1, ..., km) in N^m with sum ki*gi == target.

    Finite because the generators are lex-positive (Neumann's condition).
    """
    lattice = Lattice(generators)
    return list(lattice.solutions(lattice.scaled(target)))


def grid_points(generators, base, count=None):
    """Iterate grid elements base + sum ki*gi in increasing lex order.

    Only valid when lex order on the embedding coincides with the universe
    order (true for all vectorized universes here).  The iteration is a
    heap walk over the exponent lattice, deduplicated by value: every
    predecessor of a point lies below it and pops first, so the copies of
    a point pop one after another and all but the first are skipped.  The
    heap holds at most one copy per generator of a frontier point, so a
    one-generator walk runs in constant memory.
    """
    gens = [tuple(g) for g in generators if any(c != 0 for c in g)]
    heap = [tuple(base)]
    last = None
    emitted = 0
    while heap and (count is None or emitted < count):
        v = heapq.heappop(heap)
        if v == last:
            continue
        yield v
        last = v
        emitted += 1
        for g in gens:
            heapq.heappush(heap, tuple(x + y for x, y in zip(v, g)))


def shares_leading_index(generators):
    """True when all generators have the same leading coordinate, which makes
    the grid have order type omega (finitely many points below any bound in
    the same block)."""
    idx = None
    for g in generators:
        i = leading_index(g)
        if i is None:
            continue
        if idx is None:
            idx = i
        elif idx != i:
            return False
    return True


def grid_points_upto(lattice, base, bound):
    """The points base + t, t in `lattice`, that are lex <= bound, as a
    sorted list of frame coordinates, or None when that set is infinite or
    not decidably finite.  base is a tuple on the lattice's frame and bound
    a tuple compared exactly, on the frame or off it.  A 1-D grid is read in
    closed form off the lattice's cached Apery table (`_line_points_upto`);
    any other grid, and a 1-D one whose smallest generator lies above
    APERY_LIMIT, is walked on the heap (`grid_points`)."""
    gens = lattice.gens
    if not gens:
        return [base] if base <= bound else []
    if len(base) == 1:
        pts = _line_points_upto(lattice, base[0], bound[0])
        if pts is not None:
            return pts
    if not shares_leading_index(gens):
        return None
    lead = lattice.lead
    if base[:lead] < bound[:lead]:
        return None  # the whole grid sits below the bound's block
    if base[:lead] > bound[:lead]:
        return []
    out = []
    for v in grid_points(gens, base):
        if v > bound:
            break
        out.append(v)
    return out


def _line_points_upto(lattice, base, bound):
    """The points base + t <= bound, t in the 1-D `lattice`, as sorted
    1-tuples, or None when its smallest generator a lies above
    APERY_LIMIT.  One generator g gives the range base, base + g, ...;
    several give, from each entry w[r] of the Apery table of a, the run
    base + w[r], base + w[r] + a, ..., merged by one sort of the sorted
    runs: O(a + points * log a) steps."""
    hi = bound // 1  # the floor compares a Fraction bound exactly
    steps = sorted({g for g, in lattice.gens})
    if len(steps) == 1:
        pts = range(base, hi + 1, steps[0])
    else:
        w = lattice.apery()
        if w is None:
            return None
        pts = sorted(itertools.chain.from_iterable(
            range(base + n, hi + 1, steps[0]) for n in w if n is not None))
    return [(t,) for t in pts]
