"""Described subsets of a universe: the effective support language.

A DescribedSet is a finite union of atoms (explicit finite sets, order
intervals, arithmetic progressions, grids, complements-within, products).
Membership is always decidable; finiteness, order-type classification and
pairwise intersection finiteness are decided per atom kind, with an honest
``None`` ("undecided") when no rule applies.

A progression and a grid are one arithmetic atom, origin + N*steps
(`_ArithmeticAtom`; a progression has one step and may be counted), with
one integer `frame`: the `gridsolve.Lattice` of its steps, negated for a
falling progression so that they are lex-positive.  The atom reads that
frame for everyone: membership is one lattice test there (`contains_at`;
k < count by `Lattice.multiple` when counted), `gridsolve.grid_points` lists
it in order, and `frame_points_upto` walks it up to a bound, which gives
``None`` when the bound lies in another lex block of the steps (infinitely
many terms come before it), and an intersection with such a walk abstains.
An atom with one step and no count is a line (`_is_line`); two lines meet
exactly.  One subset rule serves every pair: origin + N*steps lies in an
arithmetic atom with no count that holds the origin and whose frame's
monoid holds every step (negated when that atom falls).  An interval of N
or Z (save all of Z) decides as the line of step 1 or -1 it is (`_arith`);
where a superset serves, a complement is read as its innermost `within`.

The increasing walk of a complement `within \\ inner` ends once the rest of
`within` from its current element e lies inside `inner`.  When the carrier
of `within` is an increasing line of step d or, in dimension 1, a grid (d
the gcd of its steps), that rest lies on the line prog(e; d), which is
covered when each residue class prog(e + c*d; K*d), c < K, lies inside one
covering atom: an inner atom, or an atom of the inner set of a nested
`within` (its points miss `within`).  K is the lcm of the numerators of the
step ratios along d of the steps of the uncounted arithmetic carriers of
the covering atoms.  Otherwise the ray [e, +inf) must lie inside one
covering atom.

The product set of two described sets (`DescribedSet.minkowski`: the
support of a Hahn product fg lies in Supp(f)*Supp(g), and a shift is a
product with a monomial) is taken atom by atom, exactly: two finite atoms
give the finite atom of all their products; a finite atom, or else a
counted progression, and an arithmetic atom give that arithmetic atom moved
to each of its points, of its kind and count, all sharing one `Lattice`
(`_moved`), so one Apery table; two uncounted arithmetic atoms give the
grid on the product of their origins with both step lists (which
`GridAtom` refuses when a step falls).  Any other atom has no rule.  A
product atom is built from checked ones without a second check
(`_derived`).  A product atom that repeats another is dropped by its
structure (its element set, or its kind, origin, steps and count), with no
record built.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm

from .closure import solve_combination
from .gridsolve import (
    Lattice,
    grid_points,
    grid_points_upto,
    shares_leading_index,
)
from .universe import PairUniverse, Value

# direction / order-type classes of an infinite atom
FINITE = "finite"
UP = "up"        # order type omega: increasing, finite initial segments
DOWN = "down"    # reverse of UP
WO = "wo"        # well ordered, possibly of type > omega
DENSE = "dense"  # densely ordered somewhere (neither WO nor reverse-WO)
UNKNOWN = "unknown"


class SetError(ValueError):
    pass


def step_ratio(d, s):
    """The rational r with d = r*s for a nonzero vector s, or None when d is
    not a multiple of s."""
    r = None
    for di, si in zip(d, s):
        if si == 0:
            if di != 0:
                return None
        elif r is None:
            r = Fraction(di, si)
        elif di != r * si:
            return None
    return r


class Atom(Value):
    def __init__(self, universe):
        self.universe = universe

    def contains(self, el):
        raise NotImplementedError

    def is_finite(self):
        """True / False / None (undecided)."""
        raise NotImplementedError

    def classify(self):
        """One of FINITE, UP, DOWN, WO, DENSE, UNKNOWN; an over-approximation
        is never returned for the unbounded side (subset-shaped atoms report
        their superset's class, which is sound for bounded verdicts only —
        callers consult `exact_class`)."""
        raise NotImplementedError

    def exact_class(self):
        return True

    def elements(self):
        """All elements (finite atoms only)."""
        raise SetError("atom is not finite")

    def iter_increasing(self):
        raise SetError("cannot enumerate %r in increasing order" % self)

    def elements_upto(self, bound):
        """Sorted list of elements <= bound, or None when infinite/undecided."""
        return self._side(bound, True)

    def elements_downto(self, bound):
        """Sorted list of elements >= bound, or None when infinite/undecided."""
        return self._side(bound, False)

    def _side(self, bound, up):
        """elements_upto (up) or elements_downto; a finite atom filters its
        elements, an infinite kind overrides the side it can walk."""
        if self.is_finite() is not True:
            return None
        k = self.universe.key
        kb = k(bound)
        return sorted((e for e in self.elements() if (k(e) <= kb if up else k(e) >= kb)), key=k)

    def __repr__(self):
        return self.format()


class FiniteAtom(Atom):
    def __init__(self, universe, elements):
        super().__init__(universe)
        self.els = frozenset(universe.check(e) for e in elements)

    @classmethod
    def _derived(cls, universe, elements):
        """The atom of elements already in the universe's normal form."""
        a = cls.__new__(cls)
        Atom.__init__(a, universe)
        a.els = frozenset(elements)
        return a

    def contains(self, el):
        return el in self.els

    def is_finite(self):
        return True

    def classify(self):
        return FINITE

    def elements(self):
        return list(self.els)

    def iter_increasing(self):
        return iter(sorted(self.els, key=self.universe.key))

    def format(self):
        return "{" + ", ".join(sorted(self.universe.format(e) for e in self.els)) + "}"

    def to_record(self, texts=None):
        """The record; `texts`, when given, maps elements to their text,
        which is used as it is, not formatted again."""
        fmt, texts = self.universe.format, texts or {}
        return {"atom": "finite", "elements": sorted(texts.get(e) or fmt(e) for e in self.els)}


class IntervalAtom(Atom):
    """Order interval with optional endpoints."""

    def __init__(self, universe, lo=None, hi=None, lo_strict=False, hi_strict=False):
        super().__init__(universe)
        self.lo = universe.check(lo) if lo is not None else None
        self.hi = universe.check(hi) if hi is not None else None
        # a missing endpoint excludes nothing, so it has no strict flag
        self.lo_strict = lo_strict and lo is not None
        self.hi_strict = hi_strict and hi is not None

    def contains(self, el):
        k = self.universe.key
        if self.lo is not None:
            if k(el) < k(self.lo) or (self.lo_strict and k(el) == k(self.lo)):
                return False
        if self.hi is not None:
            if k(el) > k(self.hi) or (self.hi_strict and k(el) == k(self.hi)):
                return False
        return self.universe.contains(el)

    @cached_property
    def line(self):
        """On N or Z the progression this interval is: counted with step 1
        between two ends, rising with step 1 from a lower end (0 on N when
        there is none), falling with step -1 from an upper end on Z.  None
        for all of Z and on every other universe."""
        u = self.universe
        if u.kind not in ("naturals", "integers"):
            return None
        # a strict end moves one step in
        hi = None if self.hi is None else self.hi - self.hi_strict
        if self.lo is None and u.kind == "integers":
            return None if hi is None else ProgressionAtom(u, hi, -1)
        lo = 0 if self.lo is None else self.lo + self.lo_strict
        return ProgressionAtom(u, lo, 1, None if hi is None else max(0, hi - lo + 1))

    def is_finite(self):
        if self.line is not None:
            return self.line.is_finite()
        if self.universe.kind == "finite":
            return True
        if self.lo is not None and self.hi is not None:
            # dense: empty or a single point unless lo lies below hi
            return self.universe.key(self.lo) >= self.universe.key(self.hi)
        return False

    def classify(self):
        if self.line is not None:
            return self.line.classify()
        if self.is_finite():
            return FINITE
        return UNKNOWN if self.universe.kind == "integers" else DENSE  # all of Z: neither

    def elements(self):
        if not self.is_finite():
            raise SetError("interval is infinite")
        if self.universe.kind == "finite":
            return [e for e in self.universe.labels if self.contains(e)]
        if self.line is not None:
            return list(range(self.line.origin, self.line.origin + self.line.count))
        # dense universe: empty or a single point
        return [self.lo] if self.lo is not None and self.contains(self.lo) else []

    def iter_increasing(self):
        if self.is_finite():
            return iter(sorted(self.elements(), key=self.universe.key))
        if self.classify() == UP:
            return self.line.iter_increasing()
        raise SetError("cannot enumerate interval in increasing order")

    def _side(self, bound, up):
        if self.classify() != (UP if up else DOWN):
            return super()._side(bound, up)
        return self.line._side(bound, up)

    def format(self):
        lo = self.universe.format(self.lo) if self.lo is not None else "-inf"
        hi = self.universe.format(self.hi) if self.hi is not None else "+inf"
        return "%s%s, %s%s" % ("(" if self.lo_strict or self.lo is None else "[",
                               lo, hi,
                               ")" if self.hi_strict or self.hi is None else "]")

    def to_record(self):
        return {
            "atom": "interval",
            "lo": self.universe.format(self.lo) if self.lo is not None else None,
            "hi": self.universe.format(self.hi) if self.hi is not None else None,
            "lo_strict": self.lo_strict,
            "hi_strict": self.hi_strict,
        }


class _ArithmeticAtom(Atom):
    """origin * s1^k1 * ... * sm^km, ki in N, or with a count (one step)
    its first `count` terms.  Every step lies above the unit (`up`) or, for
    a falling progression, below it."""

    _lattice = None  # a `Lattice` shared with other atoms of the same steps

    def __init__(self, universe, origin, steps, count=None):
        super().__init__(universe)
        self._fix(universe.check(origin), tuple(map(universe.check, steps)), count)

    @classmethod
    def _derived(cls, universe, origin, steps, count=None, lattice=None):
        """The atom of an origin and steps already in the universe's normal
        form, built from checked atoms; nothing is checked again.
        `lattice`, when given, is the `Lattice` of the steps (negated when
        they fall) on a frame that also holds the origin, shared with other
        atoms of the same steps (`_moved`)."""
        a = cls.__new__(cls)
        Atom.__init__(a, universe)
        a._fix(origin, tuple(steps), count)
        if lattice is not None:
            a._lattice = lattice
        return a

    def _fix(self, origin, steps, count):
        u = self.universe
        self.origin, self.steps, self.count = origin, steps, count
        self.up = not steps or min(map(u.key, steps)) > u.key(u.unit)

    @property
    def vectors(self):
        """The step vectors, made at each read (keeping atoms cheap to
        build)."""
        return [self.universe.vectorize(s) for s in self.steps]

    @cached_property
    def frame(self):
        """(lattice, origin): the `Lattice` of the steps on an integer
        frame that holds the origin too, and the origin in it, both negated
        for a falling progression; built on first use, unless the atom
        shares the lattice of other atoms of its steps."""
        origin = self.universe.vectorize(self.origin)
        if not self.up:
            origin = _neg(origin)
        lattice = self._lattice
        if lattice is None:
            steps = self.vectors if self.up else [_neg(v) for v in self.vectors]
            lattice = Lattice(steps, [origin])
        return lattice, lattice.scaled(origin)

    def contains(self, el):
        u = self.universe
        return u.contains(el) and self.contains_at(self.frame[0].scaled(u.vectorize(el)))

    def contains_at(self, t):
        """True when t, coordinates on the atom's `frame` (None: off it), is
        a point: t minus the origin, both negated for a falling atom, lies
        in the lattice, as k times the step with k < count when counted."""
        if t is None:
            return False
        lattice, origin = self.frame
        if self.up:
            rest = tuple([a - b for a, b in zip(t, origin)])
        else:
            rest = tuple([-a - b for a, b in zip(t, origin)])
        if self.count is None:
            return lattice.contains(rest)
        k = lattice.multiple(rest)
        return k is not None and k < self.count

    def frame_points_upto(self, vec):
        """The points of an atom with no count on its walk's side of the
        exponent vector vec (at or below it; at or above for a falling
        atom), as sorted coordinates on its `frame`, or None (see the
        module docstring); vec is compared exactly, off the frame too."""
        lattice, origin = self.frame
        scale = lattice.scale if self.up else -lattice.scale
        return grid_points_upto(lattice, origin, tuple([c * scale for c in vec]))

    def is_finite(self):
        return self.count is not None or not self.steps

    def classify(self):
        if self.is_finite():
            return FINITE
        if not self.up:
            return DOWN
        return UP if shares_leading_index(self.vectors) else WO

    def _points(self, ts):
        """The elements at frame coordinates ts."""
        lattice, dev = self.frame[0], self.universe.devectorize
        return (dev(lattice.unscaled(t if self.up else _neg(t))) for t in ts)

    def elements(self):
        if not self.is_finite():
            raise SetError("%s is infinite" % self.to_record()["atom"])
        lattice, origin = self.frame
        return list(self._points(grid_points(lattice.gens, origin, self.count)))

    def iter_increasing(self):
        if self.count is not None:
            return iter(sorted(self.elements(), key=self.universe.key))
        if not self.up:
            raise SetError("decreasing progression has no increasing enumeration")
        lattice, origin = self.frame
        return self._points(grid_points(lattice.gens, origin))

    def _side(self, bound, up):
        if self.count is not None or self.up != up:
            return super()._side(bound, up)
        pts = self.frame_points_upto(self.universe.vectorize(bound))
        if pts is None:
            return None
        out = list(self._points(pts))
        return out if up else out[::-1]


def _neg(vec):
    return tuple([-c for c in vec])


class ProgressionAtom(_ArithmeticAtom):
    """Arithmetic progression start, start+step, ... (count terms or infinite)."""

    def __init__(self, universe, start, step, count=None):
        if not universe.has_monoid:
            raise SetError("progression atom needs a monoid universe")
        super().__init__(universe, start, [step], count)
        if not self.up and universe.key(self.steps[0]) == universe.key(universe.unit):
            raise SetError("progression step must differ from the unit")

    def format(self):
        u = self.universe
        tail = "" if self.count is None else "; count=%d" % self.count
        return "prog(%s; %s%s)" % (u.format(self.origin), u.format(self.steps[0]), tail)

    def to_record(self):
        u = self.universe
        return {
            "atom": "progression",
            "start": u.format(self.origin),
            "step": u.format(self.steps[0]),
            "count": self.count,
        }


class GridAtom(_ArithmeticAtom):
    """{base * g1^k1 * ... * gm^km : ki in N}; every generator above the unit."""

    def __init__(self, universe, base, generators):
        if not universe.has_monoid:
            raise SetError("grid atom needs a monoid universe")
        super().__init__(universe, base, generators)
        if not self.up:
            unit = universe.key(universe.unit)
            g = next(g for g in self.steps if not universe.key(g) > unit)
            raise SetError("grid generator %s is not above the unit" % universe.format(g))

    def format(self):
        u = self.universe
        return "grid(%s; %s)" % (u.format(self.origin), ", ".join(u.format(g) for g in self.steps))

    def to_record(self):
        u = self.universe
        return {
            "atom": "grid",
            "base": u.format(self.origin),
            "generators": [u.format(g) for g in self.steps],
        }


class ComplementAtom(Atom):
    """within \\ inner, for `inner` a DescribedSet and `within` an atom."""

    def __init__(self, inner, within):
        super().__init__(within.universe)
        if inner.universe != within.universe:
            raise SetError("complement parts live on different universes")
        self.inner = inner
        self.within = within

    def contains(self, el):
        return self.within.contains(el) and not self.inner.contains(el)

    def is_finite(self):
        if self.within.is_finite():
            return True
        return None

    def classify(self):
        # Subset of `within`: its class is an over-approximation, sound only
        # for bounded-side verdicts.
        return self.within.classify()

    def exact_class(self):
        return False

    def elements(self):
        return [e for e in self.within.elements() if not self.inner.contains(e)]

    def iter_increasing(self):
        # the stop rule of the module docstring, asked first of all of
        # `within` (an inner atom may be `within` itself) and then at every
        # element
        w = self.within
        if any(w == a or _atom_subset_of(w, a) for a in self.inner.atoms):
            return
        infinite = w.is_finite() is not True
        line = self._line() if infinite else None
        for e in w.iter_increasing():
            if infinite and self._rest_inside(e, line):
                return
            if not self.inner.contains(e):
                yield e

    @cached_property
    def _covers(self):
        """The atoms that a point of the rest of `within` must lie in to need
        no listing: the inner atoms, and those of the inner set of each
        nested `within` (their points miss `within`)."""
        atoms, w = list(self.inner.atoms), self.within
        while isinstance(w, ComplementAtom):
            atoms.extend(w.inner.atoms)
            w = w.within
        return atoms

    def _line(self):
        """(d, K) of the stop rule when the `_carrier` of `within` is an
        increasing line or a grid in dimension 1, else None.  An atom of
        `_covers` whose carrier is arithmetic holds, far enough out, whole
        residue classes of prog(e; d) modulo the numerator of each step ratio
        along d (any K is sound: `_atom_subset_of` still places each class)."""
        w = _carrier(self.within)
        if _is_line(w) and w.up:
            d = w.vectors[0]
        elif isinstance(w, GridAtom) and self.universe.dim == 1:
            # the grid lies on the line of the gcd of its steps
            lattice = w.frame[0]
            d = (Fraction(gcd(*[g for g, in lattice.gens]), lattice.scale),)
        else:
            return None
        k = 1
        for a in map(_carrier, self._covers):
            if isinstance(a, _ArithmeticAtom) and a.count is None:
                for v in a.vectors:
                    r = step_ratio(v, d)
                    if r is not None:
                        k = lcm(k, abs(r.numerator))
        return d, k

    def _rest_inside(self, e, line):
        """True when the rest of `within` from e lies inside `_covers`, so
        inside `inner`; the residue classes of a line are tried lazily, K
        can be large."""
        u, atoms = self.universe, self._covers
        if line is None:
            rests = [IntervalAtom(u, lo=e)]
        else:
            (d, k), v = line, u.vectorize(e)
            step = u.devectorize(tuple(k * x for x in d))
            rests = (ProgressionAtom(u, u.devectorize(tuple(a + c * x for a, x in zip(v, d))), step)
                     for c in range(k))
        return all(any(_atom_subset_of(r, a) for a in atoms) for r in rests)

    def _side(self, bound, up):
        base = self.within._side(bound, up)
        if base is None:
            return None
        return [e for e in base if not self.inner.contains(e)]

    def format(self):
        return "diff(%s; %s)" % (self.within.format(), self.inner.format())

    def to_record(self):
        return {"atom": "complement", "within": self.within.to_record(), "inner": self.inner.to_record()}


class ProductAtom(Atom):
    """left x right, on a pair universe."""

    def __init__(self, universe, left, right):
        if not isinstance(universe, PairUniverse):
            raise SetError("product atom needs a pair universe")
        super().__init__(universe)
        if left.universe != universe.left or right.universe != universe.right:
            raise SetError("product components live on the wrong universes")
        self.left = left
        self.right = right

    def contains(self, el):
        return (
            self.universe.contains(el)
            and self.left.contains(el[0])
            and self.right.contains(el[1])
        )

    def is_finite(self):
        lf, rf = self.left.is_finite(), self.right.is_finite()
        le, re_ = self.left.is_empty(), self.right.is_empty()
        if le is True or re_ is True:
            return True
        if lf is True and rf is True:
            return True
        if lf is False and re_ is False:
            return False
        if rf is False and le is False:
            return False
        return None

    def classify(self):
        if self.is_finite() is True:
            return FINITE
        return UNKNOWN

    def elements(self):
        if self.is_finite() is not True:
            raise SetError("product atom is not known finite")
        if self.left.is_empty() is True or self.right.is_empty() is True:
            return []
        return [(a, b) for a in self.left.elements() for b in self.right.elements()]

    def iter_increasing(self):
        return ((a, b) for a in self.left.iter_increasing() for b in self.right.iter_increasing())

    def format(self):
        return "product(%s; %s)" % (self.left.format(), self.right.format())

    def to_record(self):
        return {"atom": "product", "left": self.left.to_record(), "right": self.right.to_record()}


class DescribedSet(Value):
    """A finite union of atoms over one universe."""

    def __init__(self, universe, atoms=()):
        self.universe = universe
        self.atoms = tuple(atoms)
        for a in self.atoms:
            if a.universe != universe:
                raise SetError("atom universe mismatch")

    # constructors --------------------------------------------------------
    @classmethod
    def finite(cls, universe, elements):
        return cls(universe, [FiniteAtom(universe, elements)])

    @classmethod
    def empty(cls, universe):
        return cls(universe, [])

    @classmethod
    def progression(cls, universe, start, step, count=None):
        return cls(universe, [ProgressionAtom(universe, start, step, count)])

    @classmethod
    def grid(cls, universe, base, generators):
        return cls(universe, [GridAtom(universe, base, generators)])

    @classmethod
    def interval(cls, universe, lo=None, hi=None, lo_strict=False, hi_strict=False):
        return cls(universe, [IntervalAtom(universe, lo, hi, lo_strict, hi_strict)])

    @classmethod
    def product(cls, universe, left, right):
        return cls(universe, [ProductAtom(universe, left, right)])

    def union(self, other):
        if other.universe != self.universe:
            raise SetError("universe mismatch in union")
        return DescribedSet(self.universe, self.atoms + other.atoms)

    def complement_within(self, within):
        """Elements of `within` (a DescribedSet) not in this set."""
        return DescribedSet(
            self.universe, [ComplementAtom(self, a) for a in within.atoms]
        )

    # queries ---------------------------------------------------------------
    def contains(self, el):
        return any(a.contains(el) for a in self.atoms)

    def is_empty(self):
        if not self.atoms:
            return True
        verdicts = []
        for a in self.atoms:
            if a.is_finite() is True:
                verdicts.append(len(a.elements()) == 0)
            else:
                fin = a.is_finite()
                verdicts.append(False if fin is False else None)
        if any(v is False for v in verdicts):
            return False
        if all(v is True for v in verdicts):
            return True
        return None

    def is_finite(self):
        verdicts = [a.is_finite() for a in self.atoms]
        if any(v is False for v in verdicts):
            return False
        if all(v is True for v in verdicts):
            return True
        return None

    def elements(self):
        out = set()
        for a in self.atoms:
            out.update(a.elements())
        return out

    def iter_increasing(self):
        """Increasing enumeration without repetitions."""
        key = self.universe.key
        merged = heapq.merge(*[a.iter_increasing() for a in self.atoms], key=key)
        sentinel = object()
        last = sentinel
        for e in merged:
            if last is not sentinel and e == last:
                continue
            yield e
            last = e

    def first_n(self, n):
        return list(itertools.islice(self.iter_increasing(), n))

    def elements_upto(self, bound):
        out = set()
        for a in self.atoms:
            part = a.elements_upto(bound)
            if part is None:
                return None
            out.update(part)
        return sorted(out, key=self.universe.key)

    def minkowski(self, other):
        """The product set {a * b : a in self, b in other} on a monoid
        universe, atom by atom by the rule of the module docstring; an atom
        that is neither finite nor arithmetic is a `SetError`."""
        if other.universe != self.universe:
            raise SetError("universe mismatch in product")
        atoms = [p for a in self.atoms for b in other.atoms for p in _atom_product(a, b)]
        return DescribedSet(self.universe, _distinct_atoms(atoms))

    def format(self):
        if not self.atoms:
            return "{}"
        return " | ".join(a.format() for a in self.atoms)

    def to_record(self, texts=None):
        """The record; `texts`, when given, maps elements to their text,
        which finite atoms use as it is (`FiniteAtom.to_record`)."""
        return {"universe": self.universe.to_record(),
                "atoms": [a.to_record(texts) if isinstance(a, FiniteAtom) else a.to_record()
                          for a in self.atoms]}

    def __repr__(self):
        return "DescribedSet(%s)" % self.format()


def _distinct_atoms(atoms):
    """The finite and arithmetic atoms of one universe without repeats, in
    the order first seen: equal as `Value`s, that is, with equal records,
    exactly when they are equal as structures.  A finite atom is its set of
    elements, an arithmetic atom its type, origin, steps and count, all in
    the universe's normal form, so nothing is formatted."""
    seen = {}
    for a in atoms:
        key = a.els if isinstance(a, FiniteAtom) else (type(a), a.origin, a.steps, a.count)
        seen.setdefault(key, a)
    return list(seen.values())


def _atom_product(a, b):
    """Atoms whose union is {x * y : x in a, y in b} (the rule of the module
    docstring)."""
    u = a.universe
    for atom in (a, b):
        if not isinstance(atom, (FiniteAtom, _ArithmeticAtom)):
            raise SetError("no Minkowski product for atom %s" % atom.format())
    # a finite atom, else a counted progression, goes first
    if isinstance(b, FiniteAtom) or (b.is_finite() and not isinstance(a, FiniteAtom)):
        a, b = b, a
    # the products of checked elements are in normal form
    if isinstance(b, FiniteAtom):
        return [FiniteAtom._derived(u, [u.op(x, y) for x in a.els for y in b.els])]
    if a.is_finite():
        return _moved(b, [u.op(p, b.origin) for p in a.elements()])
    steps = dict.fromkeys(a.steps + b.steps)
    if not (a.up and b.up):
        return [GridAtom(u, u.op(a.origin, b.origin), steps)]  # refuses the falling step
    return [GridAtom._derived(u, u.op(a.origin, b.origin), steps)]


def _moved(b, origins, kind=None):
    """The arithmetic atom b moved to each of the checked `origins`, as
    atoms of b's kind (or `kind`) and count that share one `Lattice` of
    b's steps: b's own, or b's scaled to a frame that also holds every
    origin.  So their Apery table is built once."""
    u = b.universe
    lattice = b.frame[0]
    scale = lattice.scale
    for o in origins:
        for c in u.vectorize(o):
            scale = lcm(scale, c.denominator)
    if scale != lattice.scale:
        m = scale // lattice.scale
        lattice = Lattice.on_frame([tuple([c * m for c in g]) for g in lattice.gens], scale)
    kind = kind or type(b)
    return [kind._derived(u, o, b.steps, b.count, lattice) for o in origins]


# ---------------------------------------------------------------------------
# inclusion between atoms


def _is_line(atom):
    """True for an arithmetic atom with one step and no count."""
    return isinstance(atom, _ArithmeticAtom) and atom.count is None and len(atom.steps) == 1


def _arith(atom):
    """An interval's line (`IntervalAtom.line`) when it has one, else the atom."""
    line = atom.line if isinstance(atom, IntervalAtom) else None
    return atom if line is None else line


def _within(atom):
    """The innermost `within` of a complement, else the atom."""
    while isinstance(atom, ComplementAtom):
        atom = atom.within
    return atom


def _carrier(atom):
    """An atom that holds the given one: `_arith` of its `_within`."""
    return _arith(_within(atom))


def _atom_subset_of(atom, other):
    """Sound syntactic subset test between atoms (False = don't know)."""
    if atom.is_finite() is True:
        return all(other.contains(e) for e in atom.elements())
    if isinstance(atom, ProductAtom) and isinstance(other, ProductAtom):
        return _set_subset_of(atom.left, other.left) and _set_subset_of(atom.right, other.right)
    if isinstance(other, ComplementAtom):
        # inside within, and meeting no inner atom
        return _atom_subset_of(atom, other.within) and all(
            atom_intersection(atom, a) == (True, []) for a in other.inner.atoms)
    # an atom lies in its carrier, so the carrier lying in other suffices
    atom, other = _carrier(atom), _arith(other)
    if isinstance(other, IntervalAtom):
        return _range_inside_interval(atom, other)
    if not isinstance(atom, _ArithmeticAtom) or not isinstance(other, _ArithmeticAtom):
        return False
    # origin + N*steps lies in other when other holds the origin and its
    # steps span every step, read in other's frame (negated when it falls)
    if other.count is not None or not other.contains(atom.origin):
        return False
    lattice = other.frame[0]
    return all(lattice.contains(lattice.scaled(v if other.up else _neg(v))) for v in atom.vectors)


def _set_subset_of(s1, s2):
    return all(any(_atom_subset_of(a, b) for b in s2.atoms) for a in s1.atoms)


def _range_inside_interval(atom, iv):
    if isinstance(atom, IntervalAtom):
        k = atom.universe.key
        lo_ok = iv.lo is None or (
            atom.lo is not None
            and (k(atom.lo) > k(iv.lo) or (k(atom.lo) == k(iv.lo) and (atom.lo_strict or not iv.lo_strict)))
        )
        hi_ok = iv.hi is None or (
            atom.hi is not None
            and (k(atom.hi) < k(iv.hi) or (k(atom.hi) == k(iv.hi) and (atom.hi_strict or not iv.hi_strict)))
        )
        return lo_ok and hi_ok
    # an arithmetic atom runs up or down from its origin; the open side of
    # iv must face its direction
    if not isinstance(atom, _ArithmeticAtom):
        return False
    return (iv.hi if atom.up else iv.lo) is None and iv.contains(atom.origin)


# ---------------------------------------------------------------------------
# pairwise intersection analysis


def _prog_prog_intersection(p1, p2):
    """Intersection of two lines (`_is_line`); exact."""
    u = p1.universe
    s1, s2 = u.vectorize(p1.origin), u.vectorize(p2.origin)
    (d1,), (d2,) = p1.vectors, p2.vectors
    term = lambda k: u.devectorize(tuple(s + k * d for s, d in zip(s1, d1)))
    r = step_ratio(d2, d1)
    if r is None:
        # solve k*d1 - l*d2 = s2 - s1: the steps are nonzero and not
        # parallel, so the two columns are independent and a solution unique
        sol = solve_combination([d1, [-x for x in d2]], [x - y for x, y in zip(s2, s1)])
        if sol is None:
            return (True, [])
        k, l = sol
        if k.denominator == 1 and l.denominator == 1 and k >= 0 and l >= 0:
            return (True, [term(k)])
        return (True, [])
    # parallel, d2 = r*d1: both lines run along d1, and they are one line
    # iff s2 = s1 + t*d1
    t = step_ratio(tuple(x - y for x, y in zip(s2, s1)), d1)
    if t is None:
        return (True, [])  # different parallel lines
    # s1 + k d1 = s2 + l d2  <=>  k = t + l*r; scaled by the common
    # denominator q this is the linear Diophantine equation a*k - b*l = c
    q = lcm(t.denominator, r.denominator)
    a, b, c = q, int(q * r), int(q * t)
    g = gcd(a, b)
    if c % g:
        return (True, [])
    if r > 0:
        # same direction: k and l grow together along the solution line
        return (False, None)
    # opposite directions: l >= 0 bounds k by t, and k runs over one residue
    # class modulo |b|/g, listed so that the terms increase
    mod = -b // g
    ks = range((c // g) * pow(a // g, -1, mod) % mod, floor(t) + 1, mod)
    return (True, [term(k) for k in (ks if p1.up else reversed(ks))])


def atom_intersection(a1, a2):
    """(finite?, elements) for the intersection of two atoms.

    Returns (True, list) when the intersection is decidably finite and
    enumerable, (False, None) when decidably infinite, (None, None) when
    undecided.  Never returns a wrong definite answer.
    """
    f1, f2 = a1.is_finite(), a2.is_finite()
    if f1 is True:
        return (True, [e for e in a1.elements() if a2.contains(e)])
    if f2 is True:
        return (True, [e for e in a2.elements() if a1.contains(e)])

    if isinstance(a1, ProductAtom) and isinstance(a2, ProductAtom):
        lf, le = described_intersection(a1.left, a2.left)
        rf, re_ = described_intersection(a1.right, a2.right)
        if lf is True and rf is True:
            return (True, [(x, y) for x in le for y in re_])
        if (lf is True and not le) or (rf is True and not re_):
            return (True, [])
        if lf is False and rf is False:
            return (False, None)
        if lf is False and rf is True and re_:
            return (False, None)
        if rf is False and lf is True and le:
            return (False, None)
        return (None, None)

    l1, l2 = _arith(a1), _arith(a2)
    if _is_line(l1) and _is_line(l2):
        return _prog_prog_intersection(l1, l2)

    if f1 is False and a1 == a2:
        return (False, None)

    # walk an UP atom up to the other's upper bound, or a DOWN atom down to
    # its lower bound: the walk lists every element on that side exactly (a
    # complement's too) or gives None, so the meet is those it shares.  An
    # interval walks last: it lists every point up to the bound, where a
    # progression or grid lists only its own terms
    pairs = sorted(((a1, a2), (a2, a1)), key=lambda pair: isinstance(_within(pair[0]), IntervalAtom))
    for walker, other in pairs:
        cls = walker.classify()
        if cls not in (UP, DOWN):
            continue
        up = cls == UP
        bound = _bound(other, up)
        part = walker._side(bound, up) if bound is not None else None
        if part is not None:
            return (True, [e for e in part if other.contains(e)])
    return (None, None)


def _bound(atom, up):
    """An evident upper (up) or lower bound for the atom, read on its
    carrier (`_carrier`), or None."""
    atom = _carrier(atom)
    if isinstance(atom, _ArithmeticAtom):
        return atom.origin if atom.up != up else None
    if isinstance(atom, IntervalAtom):
        return atom.hi if up else atom.lo
    return None


def described_intersection(s1, s2):
    """(finite?, elements) for the intersection of two described sets."""
    if s1.universe != s2.universe:
        raise SetError("universe mismatch in intersection")
    total = set()
    for a1 in s1.atoms:
        for a2 in s2.atoms:
            fin, els = atom_intersection(a1, a2)
            if fin is False:
                return (False, None)
            if fin is None:
                return (None, None)
            total.update(els)
    return (True, sorted(total, key=s1.universe.key))
