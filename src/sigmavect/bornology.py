"""Bornologies: ideals of bounded subsets with decidable described-set queries.

Every query returns a three-valued verdict.  A definite verdict is always
sound; UNDECIDED is returned whenever no sound rule applies, never a guess.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import NamedTuple

from .sets import (
    DENSE,
    DOWN,
    UP,
    WO,
    DescribedSet,
    ProductAtom,
    SetError,
    _ArithmeticAtom,
    _atom_subset_of,
    described_intersection,
)
from .universe import PairUniverse, UniverseError, Value


class Verdict(enum.Enum):
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"
    UNDECIDED = "undecided"

    def __bool__(self):
        raise TypeError("three-valued verdict: compare explicitly")


B, U, D = Verdict.BOUNDED, Verdict.UNBOUNDED, Verdict.UNDECIDED


def _meet(verdicts):
    """All-bounded conjunction: any U wins, then any D, else B."""
    vs = list(verdicts)
    if any(v is U for v in vs):
        return U
    if any(v is D for v in vs):
        return D
    return B


class BornologyError(ValueError):
    pass


class Bornology(Value):
    """Base: an ideal of subsets of a universe containing all singletons."""

    kind = None

    def __init__(self, universe):
        self.universe = universe

    def is_bounded(self, s):
        if s.universe != self.universe:
            raise BornologyError("described set lives on a different universe")
        # an ideal that holds the singletons holds every finite set
        return _meet(B if a.is_finite() is True else self._atom_bounded(a) for a in s.atoms)

    def _atom_bounded(self, atom):
        """The verdict on an atom not known to be finite."""
        raise NotImplementedError

    def to_record(self):
        rec = {"kind": self.kind, "universe": self.universe.to_record()}
        rec.update(self._extra_record())
        return rec

    def _extra_record(self):
        return {}

    def __repr__(self):
        return "Bornology(%s on %r)" % (self.kind, self.universe)


class FiniteSubsets(Bornology):
    kind = "finite"

    def _atom_bounded(self, atom):
        return U if atom.is_finite() is False else D


class AllSubsets(Bornology):
    kind = "all"

    def _atom_bounded(self, atom):
        return B


class _Order(NamedTuple):
    bounds: tuple      # atom classes it bounds
    unbounded: tuple   # classes it does not bound when the atom is exactly that class
    thin: tuple        # classes every infinite subset of which it does not bound
    dual: str          # the kind of its dual


# the order bornologies: well-ordered subsets (order type any ordinal),
# reverse-well-ordered ones, and those of order type <= omega (finite initial
# segments).  Subsets of an exact DOWN or DENSE atom may still be well
# ordered, hence "exactly"; WO under wo_omega means well ordered of type above
# omega (a grid whose generators have distinct leading coordinates)
_ORDERS = {
    "wo": _Order((UP, WO), (DOWN, DENSE), (DOWN,), "rwo"),
    "rwo": _Order((DOWN,), (UP, WO, DENSE), (UP,), "wo"),
    "wo_omega": _Order((UP,), (DOWN, DENSE, WO), (DOWN, WO), "rwo"),
}


class OrderBornology(Bornology):
    """The subsets of one order type, by the `_ORDERS` row of its kind."""

    def __init__(self, universe, kind):
        if kind not in _ORDERS:
            raise BornologyError("unknown order bornology %r" % kind)
        super().__init__(universe)
        self.kind = kind

    def _atom_bounded(self, atom):
        row = _ORDERS[self.kind]
        cls = atom.classify()
        if cls in row.bounds:
            return B
        if cls in row.unbounded and atom.exact_class():
            return U
        return D


def _meets_finitely(atom, generators):
    """True when the atom meets every generator finitely, False when it meets
    one infinitely, None when undecided."""
    single = DescribedSet(atom.universe, [atom])
    fins = [described_intersection(single, g)[0] for g in generators]
    if all(f is True for f in fins):
        return True
    return False if any(f is False for f in fins) else None


class Generated(Bornology):
    """Ideal generated by a finite family of described sets plus singletons."""

    kind = "generated"

    def __init__(self, universe, generators):
        super().__init__(universe)
        self.generators = tuple(generators)
        for g in self.generators:
            if g.universe != universe:
                raise BornologyError("generator on a different universe")

    def _extra_record(self):
        return {"generators": [g.to_record() for g in self.generators]}

    def _atom_bounded(self, atom):
        if any(_atom_subset_of(atom, ga) for g in self.generators for ga in g.atoms):
            return B
        # not covered by one generator atom: it may still be covered by a
        # finite union, but if the atom meets every generator finitely it
        # certainly is not (an infinite set cannot hide in a finite leftover)
        if atom.is_finite() is False and _meets_finitely(atom, self.generators) is True:
            return U
        return D


# ---------------------------------------------------------------------------
# product and hom bornologies on pair universes


def _atom_rectangle(atom):
    """(left DescribedSet, right DescribedSet, exact) over-approximating an
    infinite atom by a rectangle, exact when the atom *is* the rectangle;
    None when no rectangle is found."""
    if isinstance(atom, ProductAtom):
        return atom.left, atom.right, True
    if not isinstance(atom, _ArithmeticAtom):
        return None
    try:
        u, steps = atom.universe, atom.vectors
        ln = u.left.dim
        o = u.vectorize(atom.origin)
        left = _component(u.left, o[:ln], [g[:ln] for g in steps])
        right = _component(u.right, o[ln:], [g[ln:] for g in steps])
    except (SetError, UniverseError):
        return None
    exact = all(not any(g[:ln]) for g in steps) or all(not any(g[ln:]) for g in steps)
    return left, right, exact


def _component(u, origin, steps):
    """The projection of an arithmetic atom onto the factor u, given the
    parts of its origin and step vectors there: the origin alone when every
    step projects to zero, the progression on the one nonzero step, or the
    grid on several (`SetError` when one lies below the unit)."""
    origin = u.devectorize(tuple(origin))
    steps = [u.devectorize(tuple(g)) for g in steps if any(g)]
    if not steps:
        return DescribedSet.finite(u, [origin])
    if len(steps) == 1:
        return DescribedSet.progression(u, origin, steps[0])
    return DescribedSet.grid(u, origin, steps)


class _PairBornology(Bornology):
    """A bornology on a pair universe built from one on each factor."""

    def __init__(self, left, right, universe=None):
        if universe is None:
            universe = PairUniverse(left.universe, right.universe)
        super().__init__(universe)
        if universe.left != left.universe or universe.right != right.universe:
            raise BornologyError("factor universes do not match the pair universe")
        self.left = left
        self.right = right

    def _extra_record(self):
        return {"left": self.left.to_record(), "right": self.right.to_record()}


class ProductBornology(_PairBornology):
    """Bounded = contained in F x G modulo a finite set."""

    kind = "product"

    def _atom_bounded(self, atom):
        rect = _atom_rectangle(atom)
        if rect is None:
            return D
        a, b, _ = rect
        va = self.left.is_bounded(a)
        vb = self.right.is_bounded(b)
        if va is B and vb is B:
            return B  # atom sits inside a bounded rectangle
        # the projections computed here are exact as sets (the exponents of a
        # grid range freely, so each component projection is the component
        # grid), and the projection of a bounded set is bounded
        if va is U and b.is_empty() is False:
            return U
        if vb is U and a.is_empty() is False:
            return U
        return D


class HomBornology(_PairBornology):
    """S bounded iff for every f-bounded F there is a g-bounded G with
    S cap (F x Delta) inside F x G having finite fibers over G."""

    kind = "hom"

    @cached_property
    def _perp_left(self):
        return perp(self.left)

    def _atom_bounded(self, atom):
        rect = _atom_rectangle(atom)
        if rect is None:
            return D
        a, b, exact = rect
        if a.is_empty() is True or b.is_empty() is True:
            return B
        va_perp = self._perp_left.is_bounded(a)   # fibers over each delta finite?
        vb = self.right.is_bounded(b)
        if exact:
            # S = A x B: need B in g and every fiber A cap F finite
            if va_perp is B and vb is B:
                return B
            if vb is U and a.is_empty() is False:
                return U
            if va_perp is U and b.is_empty() is False:
                return U
            return D
        # non-rectangular atom with exact projections: the delta-fibers are
        # finite iff the atom is fiber-finite; progressions and grids that
        # are injective in the second component have singleton-like fibers
        if self._fibers_finite(atom):
            if va_perp is B:
                return B  # images of A cap F are finite, take G = image
            if vb is B:
                return B  # G = image subset of B works, ideals are subset-closed
            if va_perp is U and self._infinite_subsets_unbounded(b):
                return U
            return D
        # infinite fiber over a single delta would need a, but projections
        # here are not rectangular; stay honest
        return D

    def _fibers_finite(self, atom):
        """True when every vertical line meets the atom finitely for sure."""
        ln = atom.universe.left.dim
        return isinstance(atom, _ArithmeticAtom) and all(any(g[ln:]) for g in atom.vectors)

    def _infinite_subsets_unbounded(self, b_set):
        """True when every infinite subset of b_set is g-unbounded."""
        if self.right.kind == "finite":
            return True
        row = _ORDERS.get(self.right.kind)
        return row is not None and all(a.exact_class() and a.classify() in row.thin for a in b_set.atoms)


class Perp(Bornology):
    """Symbolic dual: s bounded iff s meets every bounded set finitely."""

    kind = "perp"

    def __init__(self, inner):
        super().__init__(inner.universe)
        self.inner = inner

    def _extra_record(self):
        return {"inner": self.inner.to_record()}

    def _atom_bounded(self, atom):
        if self.inner.kind == "generated":
            return {True: B, False: U}.get(_meets_finitely(atom, self.inner.generators), D)
        if self.inner.kind == "perp":
            # biperp: the base bornology embeds into its double dual
            single = DescribedSet(self.universe, [atom])
            return B if self.inner.inner.is_bounded(single) is B else D
        return D


def perp(b):
    """The dual bornology, with the standard identities as rewrites."""
    if b.kind == "finite":
        return AllSubsets(b.universe)
    if b.kind == "all":
        return FiniteSubsets(b.universe)
    if b.kind in _ORDERS:
        return OrderBornology(b.universe, _ORDERS[b.kind].dual)
    if b.kind == "perp" and b.inner.kind == "perp":
        # triple dual collapses: (F^perp)^perp^perp = F^perp
        return Perp(b.inner.inner)
    return Perp(b)


def generate(universe, generators):
    """The bornology generated by these described sets; kept for ROADMAP
    item 5, generated bornologies and their duals."""
    gens = [g for g in generators if g.atoms]
    if not gens:
        return FiniteSubsets(universe)
    return Generated(universe, gens)


def product_bornology(f, g, universe=None):
    return ProductBornology(f, g, universe)


def hom_bornology(f, g, universe=None):
    return HomBornology(f, g, universe)


def finite_subsets(u):
    return FiniteSubsets(u)


def all_subsets(u):
    return AllSubsets(u)


def well_ordered(u):
    return OrderBornology(u, "wo")


def reverse_well_ordered(u):
    return OrderBornology(u, "rwo")


def order_type_omega(u):
    return OrderBornology(u, "wo_omega")
