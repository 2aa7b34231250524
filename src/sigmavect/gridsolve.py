"""Lattice-point bookkeeping for grid sets.

A grid is {base + k1*g1 + ... + km*gm : ki in N} written additively in the
exponent embedding Q^n.  All generators are lexicographically positive, so
no nontrivial nonnegative combination vanishes; a positive linear weight
functional therefore exists and bounds every exponent search exactly.

A `Lattice` scales its generators once by the lcm of their coordinate
denominators, so the search runs on machine ints (Puiseux exponents
included).  A target whose scaled coordinates are not integers has no
representation: integer combinations of integer vectors are integer.
Membership stops at the first representation; `nonneg_solutions` lists
them all.
"""

from __future__ import annotations

from math import lcm


def leading_index(vec):
    """Index of the first nonzero coordinate, or None for the zero vector."""
    for i, c in enumerate(vec):
        if c != 0:
            return i
    return None


def is_lex_positive(vec):
    i = leading_index(vec)
    return i is not None and vec[i] > 0


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


class Lattice:
    """The nonnegative integer combinations of lex-positive generators."""

    __slots__ = ("gens", "scale", "wts", "gw", "lead")

    def __init__(self, generators):
        gens = [tuple(g) for g in generators]
        scale = 1
        for g in gens:
            for c in g:
                scale = lcm(scale, c.denominator)
        self.scale = scale
        self.gens = [tuple(int(c * scale) for c in g) for g in gens]
        self.wts = positive_weights(self.gens)
        self.gw = [weight(self.wts, g) for g in self.gens]
        self.lead = leading_index(self.gens[-1]) if gens else None

    def _scaled(self, target):
        """target * scale as ints, or None when it leaves the integers."""
        out = []
        for c in target:
            q, r = divmod(c.numerator * self.scale, c.denominator)
            if r:
                return None
            out.append(q)
        return tuple(out)

    def solutions(self, target):
        """Yield every (k1, ..., km) in N^m with sum ki*gi == target, in lex
        order; the weight functional bounds the depth-first search and the
        last coefficient is solved by division."""
        t = self._scaled(target)
        if t is None:
            return
        gens, gw = self.gens, self.gw
        m = len(gens)
        if not m:
            if not any(t):
                yield ()
            return
        last = gens[-1]
        lead = self.lead
        lead_c = last[lead]
        ks = [0] * m

        def rec(i, rest, rest_w):
            if i == m - 1:
                k, r = divmod(rest[lead], lead_c)
                if not r and k >= 0 and rest == tuple(k * c for c in last):
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

    def contains(self, target):
        """True when target is a nonnegative combination of the generators."""
        return next(self.solutions(target), None) is not None


def nonneg_solutions(generators, target):
    """All (k1, ..., km) in N^m with sum ki*gi == target.

    Finite because the generators are lex-positive (Neumann's condition).
    """
    return list(Lattice(generators).solutions(target))


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
    import heapq

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


def grid_points_upto(generators, base, bound):
    """Elements of the grid that are lex <= bound, as a sorted list, or None
    when that set is infinite or not decidably finite."""
    gens = [tuple(g) for g in generators if any(c != 0 for c in g)]
    base = tuple(base)
    bound = tuple(bound)
    if not gens:
        return [base] if base <= bound else []
    if not shares_leading_index(gens):
        return None
    lead = leading_index(gens[0])
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
