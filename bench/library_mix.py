"""library-mix: many small seeded library operations.

Every kind of operation runs a fixed number of times per round; the seed
draws its inputs.  Each output is checked against an identity or an oracle
from oracles.py, never against the package's own answer.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import (
    Mod, Rat, dense_geometric, progression_meet, rank_of, series_quotient,
)

PRIMES = (101, 997, 7919)
DENOM = 6                        # Puiseux exponents are multiples of 1/6
BOX, CUTOFF = 40, 15             # box enumeration for bornology ground truth


class Spaces:
    """The package objects every operation shares: spaces and universes."""

    def __init__(self):
        import sigmavect as sv

        self.sv = sv
        self.X = sv.MonomialUniverse(["x"])
        self.N = sv.Naturals()
        self.Z = sv.Integers()
        self.NN = sv.PairUniverse(self.N, self.N)
        self.V = sv.Space(sv.QQ, self.N, sv.all_subsets(self.N))
        self.Vd = sv.Space(sv.QQ, self.N, sv.finite_subsets(self.N))
        self.kinds = {"finite": sv.finite_subsets(self.N), "all": sv.all_subsets(self.N)}
        alg = sv.monoid_algebra(sv.BornologicalMonoid(self.X, sv.well_ordered(self.X)), sv.QQ)
        self.euler = sv.euler_derivation(alg)

    def hahn(self, p):
        sv = self.sv
        return sv.Space(sv.GF(p) if p else sv.QQ, self.X, sv.well_ordered(self.X))

    def series(self, p, terms):
        """A finite Hahn series from {exponent: coefficient}."""
        return self.hahn(p).series({(Fraction(e),): c for e, c in terms.items()})


def _terms(f, p=None):
    """{exponent: coefficient} of a finite series, coefficients as Fraction
    (or as int mod p)."""
    conv = (lambda c: int(str(c))) if p else Fraction
    return {g[0]: conv(c) for g, c in f.terms.items()}


def _convolve(f, g, ring):
    out = {}
    for a, x in f.items():
        for b, y in g.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return _clean(out, ring)


def _clean(d, ring):
    out = {}
    for k, v in d.items():
        v = ring.of(v) if ring.p else v
        if v:
            out[k] = v
    return out


def _random_puiseux(rng, exps, lo=-4, hi=4):
    return {Fraction(e): rng.choice([c for c in range(lo, hi + 1) if c]) for e in exps}


def _to_t(terms, n):
    """Dense coefficient list in t = x^(1/DENOM)."""
    out = [0] * (n + 1)
    for e, c in terms.items():
        m = e * DENOM
        if m.denominator != 1:
            raise ValueError("exponent %s off the 1/%d lattice" % (e, DENOM))
        if m <= n:
            out[int(m)] = c
    return out


def _from_t(coeffs):
    return {Fraction(m, DENOM): c for m, c in enumerate(coeffs) if c}


# -- Hahn arithmetic --------------------------------------------------------


class PuiseuxProduct:
    """f*g and the distributive law f*(g + h) = f*g + f*h on finite series;
    the oracle is dict convolution."""

    kind = "puiseux-product"

    def __init__(self, rng, sp, p):
        self.sp, self.p = sp, p
        exps = lambda: rng.sample([0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), 1,
                                   Fraction(3, 2), Fraction(5, 6), 2], 4)
        self.f, self.g, self.h = (_random_puiseux(rng, exps()) for _ in range(3))

    def run(self):
        sv, sp = self.sp.sv, self.sp
        f, g, h = (sp.series(self.p, t) for t in (self.f, self.g, self.h))
        fg = sv.cauchy_product(f, g)
        return (fg, sv.cauchy_product(f, sv.add(g, h)),
                sv.add(fg, sv.cauchy_product(f, h)))

    def observe(self, raw):
        return tuple(_terms(s, self.p) for s in raw)

    def check(self, data):
        ring = Mod(self.p) if self.p else Rat()
        gh = {k: self.g.get(k, 0) + self.h.get(k, 0) for k in set(self.g) | set(self.h)}
        want = _convolve(self.f, gh, ring)
        return data == (_convolve(self.f, self.g, ring), want, want)


class PuiseuxInverse:
    """f^-1 on a two-generator exponent grid, and f * f^-1 = 1 on the
    window; the oracle is the dense recurrence in t = x^(1/6)."""

    kind = "puiseux-inverse"

    def __init__(self, rng, sp, p):
        self.sp, self.p = sp, p
        self.bound = 1
        c0 = rng.choice([-3, -2, -1, 1, 2, 3])
        self.f = {Fraction(0): c0}
        self.f.update(_random_puiseux(rng, rng.sample(
            [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(5, 6)], 2)))

    def run(self):
        sv = self.sp.sv
        f = self.sp.series(self.p, self.f)
        inv = sv.invert_unit(f)
        bound = (Fraction(self.bound),)
        return (sv.truncate(inv, bound), sv.truncate(sv.cauchy_product(f, inv), bound))

    def observe(self, raw):
        return tuple(_terms(s, self.p) for s in raw)

    def check(self, data):
        ring = Mod(self.p) if self.p else Rat()
        n = self.bound * DENOM
        inv = series_quotient([1], _to_t(self.f, n), n, ring)
        return data == (_from_t(inv), {Fraction(0): 1})


class Neumann:
    """sum_n w(n) eps^n with Supp(eps) > 1 on a two-generator grid; the
    oracle sums dense powers of eps in t = x^(1/6)."""

    kind = "neumann"

    def __init__(self, rng, sp):
        self.sp = sp
        self.bound = 1
        self.eps = _random_puiseux(rng, rng.sample(
            [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), 1], 2), -3, 3)
        self.weights = [rng.randint(-3, 3) for _ in range(3)]

    def run(self):
        sv = self.sp.sv
        w = self.weights
        s = sv.neumann_sum(self.sp.series(None, self.eps), lambda n: w[n % 3])
        return sv.truncate(s, (Fraction(self.bound),))

    def observe(self, raw):
        return _terms(raw)

    def check(self, data):
        n = self.bound * DENOM
        w = self.weights
        return data == _from_t(dense_geometric(_to_t(self.eps, n), lambda k: w[k % 3], n, Rat()))


class FamilySum:
    """A weighted finite family summed through its certificates; the oracle
    is the direct weighted sum."""

    kind = "family-sum"

    def __init__(self, rng, sp):
        self.sp = sp
        exps = [Fraction(k, 2) for k in range(9)]
        self.members = [_random_puiseux(rng, rng.sample(exps, 3), -3, 3) for _ in range(4)]
        self.weights = [rng.randint(-3, 3) for _ in self.members]

    def run(self):
        sv, sp = self.sp.sv, self.sp
        fam = sv.finite_family([sp.series(None, m) for m in self.members])
        s = sv.family_sum(fam, lambda i: self.weights[i])
        return sv.truncate(s, (Fraction(4),))

    def observe(self, raw):
        return _terms(raw)

    def check(self, data):
        want = {}
        for w, m in zip(self.weights, self.members):
            for e, c in m.items():
                want[e] = want.get(e, 0) + w * c
        return data == {e: Fraction(c) for e, c in want.items() if c}


class Euler:
    """D(x^q) = q x^q for the Euler derivation, and the Leibniz rule
    D(fg) = D(f) g + f D(g)."""

    kind = "euler"

    def __init__(self, rng, sp):
        self.sp = sp
        exps = [0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3]
        self.f = _random_puiseux(rng, rng.sample(exps, 4))
        self.g = _random_puiseux(rng, rng.sample(exps, 3))

    def run(self):
        sv, sp = self.sp.sv, self.sp
        D = sp.euler
        f, g = sp.series(None, self.f), sp.series(None, self.g)
        return (D.apply(f), D.apply(sv.cauchy_product(f, g)),
                sv.add(sv.cauchy_product(D.apply(f), g), sv.cauchy_product(f, D.apply(g))))

    def observe(self, raw):
        return tuple(_terms(s) for s in raw)

    def check(self, data):
        fg = _convolve(self.f, self.g, Rat())
        dfg = {e: e * c for e, c in fg.items() if e}
        return data == ({e: e * c for e, c in self.f.items() if e}, dfg, dfg)


# -- duality ------------------------------------------------------------------


class Adjunction:
    """<M f, g> = <f, M^T g> for a banded matrix map; the oracle sums the
    band entries directly."""

    kind = "adjunction"

    def __init__(self, rng, sp, size=10, band=2):
        self.sp = sp
        self.entries = {
            d: {c: rng.randint(-4, 4) for c in range(max(0, d - band), d + band + 1)}
            for d in range(size + band + 1)
        }
        self.f = {i: rng.randint(-5, 5) for i in range(size)}
        self.g = {i: rng.randint(-5, 5) for i in range(size)}

    def run(self):
        sv, sp = self.sp.sv, self.sp
        entries = self.entries
        m = sv.matrix_map(sp.V, lambda d: entries.get(d, {}),
                          lambda c: [d for d, row in entries.items() if row.get(c)])
        f, g = sp.V.series(self.f), sp.Vd.series(self.g)
        return (sv.pairing(m.apply(f), g, declared_dual=True),
                sv.pairing(f, m.dual().apply(g), declared_dual=True))

    def observe(self, raw):
        return tuple(Fraction(x) for x in raw)

    def check(self, data):
        want = sum(self.g.get(d, 0) * c * self.f.get(col, 0)
                   for d, row in self.entries.items() for col, c in row.items())
        return data == (want, want)


# -- sets and bornologies ------------------------------------------------------


def _pair_set(rng):
    """A seeded subset of N x N: (shape, params, is_rectangle)."""
    shape = rng.choice(["points", "fin-x-prog", "diagonal", "row", "prog-x-fin",
                        "prog-x-prog"])
    if shape == "points":
        return shape, [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(4)]
    if shape == "fin-x-prog":
        return shape, (rng.randint(1, 5), rng.randint(0, 3), rng.randint(1, 2))
    if shape == "diagonal":
        return shape, ((rng.randint(0, 3), rng.randint(0, 3)),
                       rng.choice([(1, 1), (1, 2), (2, 1)]))
    if shape == "row":
        return shape, (rng.randint(0, 2), rng.randint(0, 8))
    if shape == "prog-x-fin":
        return shape, (rng.randint(0, 3), rng.randint(1, 2), rng.randint(0, 4))
    return shape, (rng.randint(0, 3), rng.randint(1, 2), rng.randint(0, 3), rng.randint(1, 2))


def _pair_member(shape, prm, a, b):
    """Membership from the shape's own definition, for box enumeration."""
    def on(x, start, step):
        return x >= start and (x - start) % step == 0
    if shape == "points":
        return (a, b) in prm
    if shape == "fin-x-prog":
        n, s, d = prm
        return a < n and on(b, s, d)
    if shape == "diagonal":
        (s0, s1), (d0, d1) = prm
        k = (a - s0) // d0
        return a >= s0 and (a - s0) % d0 == 0 and b == s1 + k * d1
    if shape == "row":
        r, c = prm
        return a >= r and b == c
    if shape == "prog-x-fin":
        s, d, c = prm
        return on(a, s, d) and b == c
    s0, d0, s1, d1 = prm
    return on(a, s0, d0) and on(b, s1, d1)


class BornologyVerdicts:
    """Product and hom bornology verdicts against box enumeration.  An
    UNDECIDED verdict is an abstention; a wrong definite one fails."""

    kind = "bornology"

    def __init__(self, rng, sp):
        self.sp = sp
        self.shape, self.prm = _pair_set(rng)
        self.fk, self.gk = rng.choice(["finite", "all"]), rng.choice(["finite", "all"])

    def described(self):
        sv, sp = self.sp.sv, self.sp
        D, N, NN = sv.DescribedSet, sp.N, sp.NN
        shape, prm = self.shape, self.prm
        if shape == "points":
            return D.finite(NN, prm)
        if shape == "fin-x-prog":
            n, s, d = prm
            return D.product(NN, D.finite(N, list(range(n))), D.progression(N, s, d))
        if shape == "diagonal":
            return D.progression(NN, *prm)
        if shape == "row":
            r, c = prm
            return D.progression(NN, (r, c), (1, 0))
        if shape == "prog-x-fin":
            s, d, c = prm
            return D.product(NN, D.progression(N, s, d), D.finite(N, [c]))
        s0, d0, s1, d1 = prm
        return D.product(NN, D.progression(N, s0, d0), D.progression(N, s1, d1))

    def rectangle(self):
        return self.shape in ("fin-x-prog", "prog-x-fin", "prog-x-prog")

    def run(self):
        sv, sp = self.sp.sv, self.sp
        s = self.described()
        f, g = sp.kinds[self.fk], sp.kinds[self.gk]
        out = [sv.product_bornology(f, g, sp.NN).is_bounded(s)]
        if self.rectangle():
            out.append(sv.hom_bornology(f, g, sp.NN).is_bounded(s))
        return out

    def observe(self, raw):
        return tuple(v.value for v in raw)

    def truth(self):
        left, right = set(), set()
        for a in range(BOX):
            for b in range(BOX):
                if _pair_member(self.shape, self.prm, a, b):
                    left.add(a)
                    right.add(b)
        lf, rf = max(left, default=0) < CUTOFF, max(right, default=0) < CUTOFF
        out = [(lf or self.fk == "all") and (rf or self.gk == "all")]
        if self.rectangle():
            out.append((self.fk == "finite" or lf) and (self.gk == "all" or rf))
        return out

    def check(self, data):
        truth = self.truth()
        if len(data) != len(truth):
            return False
        for verdict, t in zip(data, truth):
            if verdict == "bounded" and not t or verdict == "unbounded" and t:
                return False
            if verdict not in ("bounded", "unbounded", "undecided"):
                return False
        return True


class ProgressionMeet:
    """atom_intersection of two integer progressions at small steps; the
    oracle is the gcd / congruence computation in oracles.progression_meet.

    The seed draws the pair within a fixed class, so that every round holds
    the same number of opposite rays (finite meet), same-direction rays with
    common points (infinite meet) and same-direction rays without (empty
    meet)."""

    kind = "progression-meet"

    def __init__(self, rng, sp, klass):
        self.sp = sp
        steps = [1, 2, 3, 4, 5, 6]
        while True:
            self.a, self.s = rng.randint(-12, 12), rng.choice(steps)
            self.b, self.t = rng.randint(-12, 12), rng.choice(steps)
            if klass == "opposite":
                self.t = -self.t
            if rng.random() < 0.5:
                self.s, self.t = -self.s, -self.t
            fin, els = progression_meet(self.a, self.s, self.b, self.t)
            found = "opposite" if (self.s > 0) != (self.t > 0) else (
                "infinite" if fin is False else "empty")
            if found == klass:
                break

    def run(self):
        sv, Z = self.sp.sv, self.sp.Z
        from sigmavect.sets import ProgressionAtom

        return sv.atom_intersection(ProgressionAtom(Z, self.a, self.s),
                                    ProgressionAtom(Z, self.b, self.t))

    def observe(self, raw):
        fin, els = raw
        return (fin, None if els is None else tuple(sorted(els)))

    def check(self, data):
        fin, els = data
        if fin is None:
            return els is None  # abstention
        want_fin, want = progression_meet(self.a, self.s, self.b, self.t)
        return fin == want_fin and (els is None if want is None else els == tuple(want))


class GridMeet:
    """atom_intersection of a two-generator integer grid with a progression;
    the oracle enumerates the grid below the progression's start, or uses
    the gcd of the steps for an upward progression."""

    kind = "grid-meet"

    def __init__(self, rng, sp):
        self.sp = sp
        self.base = rng.randint(-5, 5)
        self.gens = rng.sample([2, 3, 4, 5], 2)
        self.b = rng.randint(0, 30)
        self.t = rng.choice([-4, -3, -2, -1, 1, 2, 3])

    def run(self):
        sv, Z = self.sp.sv, self.sp.Z
        from sigmavect.sets import GridAtom, ProgressionAtom

        return sv.atom_intersection(GridAtom(Z, self.base, self.gens),
                                    ProgressionAtom(Z, self.b, self.t))

    def observe(self, raw):
        fin, els = raw
        return (fin, None if els is None else tuple(sorted(els)))

    def truth(self):
        from math import gcd

        g1, g2 = self.gens
        if self.t > 0:
            # the grid holds every large enough multiple of gcd(g1, g2) above
            # its base, so the meet is infinite iff the congruences agree
            ok = (self.b - self.base) % gcd(gcd(g1, g2), self.t) == 0
            return (False, None) if ok else (True, ())
        span = self.b - self.base
        reach = {0} if span >= 0 else set()
        for x in range(1, span + 1):
            if x - g1 in reach or x - g2 in reach:
                reach.add(x)
        return (True, tuple(self.base + x for x in sorted(reach) if (span - x) % -self.t == 0))

    def check(self, data):
        fin, els = data
        if fin is None:
            return els is None  # abstention
        return data == self.truth()


# -- closure ----------------------------------------------------------------------


class DualBasis:
    """dual_basis_construction checked by independence, annihilation beyond
    each bound, and recovery of every row from the constructed basis."""

    kind = "dual-basis"

    def __init__(self, rng, sp, depth=12):
        self.sp, self.depth = sp, depth
        self.rows = [{rng.randint(0, 7): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))}
                     for _ in range(rng.randint(1, 6))]

    def run(self):
        sv = self.sp.sv
        return sv.dual_basis_construction(sv.FunctionalFamily(self.rows), self.depth)

    def observe(self, raw):
        return (tuple(tuple(Fraction(x) for x in v) for v in raw.vectors),
                tuple(tuple((j, Fraction(c)) for j, c in rec) for rec in raw.recovery),
                tuple(raw.bounds))

    def check(self, data):
        vectors, recovery, bounds = data
        if len(vectors) != self.depth or len(bounds) != len(self.rows):
            return False
        if rank_of([list(v) for v in vectors]) != self.depth:
            return False
        for row, rec, bound in zip(self.rows, recovery, bounds):
            rec = dict(rec)
            for i, v in enumerate(vectors):
                val = sum(Fraction(c) * v[k] for k, c in row.items() if k < len(v))
                if val != rec.get(i, 0) or (i >= bound and val != 0):
                    return False
        return True


# -- the round ------------------------------------------------------------------

# (kind, count per round); prime-field variants alternate with rational ones
MIX = [
    ("puiseux-product", 32), ("puiseux-inverse", 40), ("neumann", 32),
    ("family-sum", 40), ("euler", 40), ("adjunction", 40), ("bornology", 64),
    ("progression-meet", 64), ("grid-meet", 32), ("dual-basis", 32),
]
# progression classes within a round; an empty same-direction meet is the
# costly one (see CHANGES.md), so a round holds exactly one
PROGRESSION_CLASSES = ["empty"] + ["opposite", "infinite"] * 32


def generate(seed):
    rng = random.Random("library-mix:%d" % seed)
    sp = Spaces()
    ops = []
    for kind, count in MIX:
        for i in range(count):
            if kind == "puiseux-product":
                ops.append(PuiseuxProduct(rng, sp, rng.choice(PRIMES) if i % 2 else None))
            elif kind == "puiseux-inverse":
                ops.append(PuiseuxInverse(rng, sp, rng.choice(PRIMES) if i % 2 else None))
            elif kind == "progression-meet":
                ops.append(ProgressionMeet(rng, sp, PROGRESSION_CLASSES[i]))
            else:
                ops.append(KINDS[kind](rng, sp))
    rng.shuffle(ops)
    return ops


KINDS = {cls.kind: cls for cls in (
    Neumann, FamilySum, Euler, Adjunction, BornologyVerdicts, GridMeet, DualBasis)}
