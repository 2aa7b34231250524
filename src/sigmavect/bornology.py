"""Bornologies: ideals of bounded subsets with decidable described-set queries.

Every query returns a three-valued verdict.  A definite verdict is always
sound; UNDECIDED is returned whenever no sound rule applies, never a guess.
"""

from __future__ import annotations

import enum

from .sets import (
    DENSE,
    DOWN,
    FINITE,
    UP,
    WO,
    DescribedSet,
    ProductAtom,
    ProgressionAtom,
    SetError,
    _atom_subset_of,
    _origin_steps,
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
        if not s.atoms:
            return B
        return _meet(self._atom_bounded(a) for a in s.atoms)

    def _atom_bounded(self, atom):
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
        fin = atom.is_finite()
        if fin is True:
            return B
        if fin is False:
            return U
        return D


class AllSubsets(Bornology):
    kind = "all"

    def _atom_bounded(self, atom):
        return B


class WellOrdered(Bornology):
    """Well-ordered subsets (order type any ordinal)."""

    kind = "wo"

    def _atom_bounded(self, atom):
        cls = atom.classify()
        if cls in (FINITE, UP, WO):
            return B
        if cls in (DOWN, DENSE):
            # subsets of an exact DOWN/DENSE atom may still be well ordered
            return U if atom.exact_class() else D
        return D


class ReverseWellOrdered(Bornology):
    kind = "rwo"

    def _atom_bounded(self, atom):
        cls = atom.classify()
        if cls in (FINITE, DOWN):
            return B
        if cls in (UP, WO, DENSE):
            return U if atom.exact_class() else D
        return D


class OrderTypeOmega(Bornology):
    """Subsets of order type <= omega (finite initial segments)."""

    kind = "wo_omega"

    def _atom_bounded(self, atom):
        cls = atom.classify()
        if cls in (FINITE, UP):
            return B
        if cls in (DOWN, DENSE, WO):
            # WO here means well ordered of type strictly above omega
            # (a grid whose generators have distinct leading coordinates)
            return U if atom.exact_class() else D
        return D


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
        fin = atom.is_finite()
        if fin is True:
            return B
        covered = any(
            _atom_subset_of(atom, gen_atom)
            for g in self.generators
            for gen_atom in g.atoms
        )
        if covered:
            return B
        # not covered by one generator atom: it may still be covered by a
        # finite union, but if the atom meets every generator finitely it
        # certainly is not (an infinite set cannot hide in a finite leftover)
        if fin is False:
            single = DescribedSet(self.universe, [atom])
            meets = []
            for g in self.generators:
                f, _ = described_intersection(single, g)
                meets.append(f)
            if all(f is True for f in meets):
                return U
        return D


# ---------------------------------------------------------------------------
# product and hom bornologies on pair universes


def _atom_rectangle(atom):
    """(left DescribedSet, right DescribedSet, exact) over-approximating an
    infinite atom by a rectangle; exact means the atom *is* the rectangle."""
    u = atom.universe
    if isinstance(atom, ProductAtom):
        return atom.left, atom.right, True
    view = _origin_steps(atom)
    if view is None:
        return None
    origin, steps = view
    ln = u.left.dim
    o = u.vectorize(origin)
    if isinstance(atom, ProgressionAtom):
        left = _component_line(u.left, o[:ln], steps[0][:ln])
        right = _component_line(u.right, o[ln:], steps[0][ln:])
    else:
        left = _component_grid(u.left, o[:ln], [g[:ln] for g in steps])
        right = _component_grid(u.right, o[ln:], [g[ln:] for g in steps])
    exact = all(not any(g[:ln]) for g in steps) or all(not any(g[ln:]) for g in steps)
    return left, right, exact


def _component_line(u, start, step):
    start_el = u.devectorize(tuple(start))
    if not any(step):
        return DescribedSet.finite(u, [start_el])
    return DescribedSet.progression(u, start_el, u.devectorize(tuple(step)))


def _component_grid(u, base, gens):
    base_el = u.devectorize(tuple(base))
    nz, pending = [], []
    for g in gens:
        if all(c == 0 for c in g):
            continue
        el = u.devectorize(tuple(g))
        if u.key(el) > u.key(u.unit):
            nz.append(el)
        else:
            pending.append(el)
    if pending:
        # a component generator below the unit breaks the grid form; fall
        # back to the progressions it spans (sound over-approximation is not
        # available, so give up)
        raise SetError("grid component projection not grid-shaped")
    return DescribedSet.grid(u, base_el, nz)


class ProductBornology(Bornology):
    """Bounded = contained in F x G modulo a finite set."""

    kind = "product"

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

    def _atom_bounded(self, atom):
        if atom.is_finite() is True:
            return B
        try:
            rect = _atom_rectangle(atom)
        except (SetError, UniverseError):
            rect = None
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


class HomBornology(Bornology):
    """S bounded iff for every f-bounded F there is a g-bounded G with
    S cap (F x Delta) inside F x G having finite fibers over G."""

    kind = "hom"

    def __init__(self, left, right, universe=None):
        if universe is None:
            universe = PairUniverse(left.universe, right.universe)
        super().__init__(universe)
        if universe.left != left.universe or universe.right != right.universe:
            raise BornologyError("factor universes do not match the pair universe")
        self.left = left
        self.right = right
        self._perp_left = perp(left)

    def _extra_record(self):
        return {"left": self.left.to_record(), "right": self.right.to_record()}

    def _atom_bounded(self, atom):
        if atom.is_finite() is True:
            return B
        try:
            rect = _atom_rectangle(atom)
        except (SetError, UniverseError):
            return D
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
        view = _origin_steps(atom)
        ln = atom.universe.left.dim
        return view is not None and all(any(g[ln:]) for g in view[1])

    def _infinite_subsets_unbounded(self, b_set):
        """True when every infinite subset of b_set is g-unbounded."""
        g = self.right
        if g.kind == "finite":
            return True
        cls = [a.classify() for a in b_set.atoms]
        exact = all(a.exact_class() for a in b_set.atoms)
        if not exact:
            return False
        if g.kind == "rwo" and all(c == UP for c in cls):
            return True
        if g.kind in ("wo", "wo_omega") and all(c == DOWN for c in cls):
            return True
        if g.kind == "wo_omega" and all(c in (DOWN, WO) for c in cls):
            return True
        return False


class Perp(Bornology):
    """Symbolic dual: s bounded iff s meets every bounded set finitely."""

    kind = "perp"

    def __init__(self, inner):
        super().__init__(inner.universe)
        self.inner = inner

    def _extra_record(self):
        return {"inner": self.inner.to_record()}

    def _atom_bounded(self, atom):
        if atom.is_finite() is True:
            return B
        single = DescribedSet(self.universe, [atom])
        if self.inner.kind == "generated":
            verdicts = []
            for g in self.inner.generators:
                fin, _ = described_intersection(single, g)
                verdicts.append(fin)
            if all(f is True for f in verdicts):
                return B
            if any(f is False for f in verdicts):
                return U
            return D
        if self.inner.kind == "perp":
            # biperp: the base bornology embeds into its double dual
            base = self.inner.inner
            v = base.is_bounded(single)
            if v is B:
                return B
            return D
        return D


def perp(b):
    """The dual bornology, with the standard identities as rewrites."""
    table = {
        "finite": AllSubsets,
        "all": FiniteSubsets,
        "wo_omega": ReverseWellOrdered,
        "wo": ReverseWellOrdered,
        "rwo": WellOrdered,
    }
    if b.kind in table:
        return table[b.kind](b.universe)
    if b.kind == "perp" and b.inner.kind == "perp":
        # triple dual collapses: (F^perp)^perp^perp = F^perp
        return Perp(b.inner.inner)
    return Perp(b)


def generate(universe, generators):
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
    return WellOrdered(u)


def reverse_well_ordered(u):
    return ReverseWellOrdered(u)


def order_type_omega(u):
    return OrderTypeOmega(u)


_KINDS = {
    "finite": FiniteSubsets,
    "all": AllSubsets,
    "wo": WellOrdered,
    "rwo": ReverseWellOrdered,
    "wo_omega": OrderTypeOmega,
}


def bornology_from_record(rec, universe=None):
    from .sets import set_from_record
    from .universe import universe_from_record

    if universe is None:
        universe = universe_from_record(rec["universe"])
    kind = rec["kind"]
    if kind in _KINDS:
        return _KINDS[kind](universe)
    if kind == "generated":
        gens = [set_from_record(g, universe) for g in rec["generators"]]
        return Generated(universe, gens)
    if kind == "perp":
        return Perp(bornology_from_record(rec["inner"]))
    if kind == "product":
        return ProductBornology(
            bornology_from_record(rec["left"]), bornology_from_record(rec["right"]), universe
        )
    if kind == "hom":
        return HomBornology(
            bornology_from_record(rec["left"]), bornology_from_record(rec["right"]), universe
        )
    raise BornologyError("unknown bornology kind %r" % kind)


def agree_on_battery(b1, b2, battery):
    """Extensional comparison: same verdict on every battery set.

    Returns (True, []) or (False, list of disagreeing sets)."""
    bad = [s for s in battery if b1.is_bounded(s) is not b2.is_bounded(s)]
    return (not bad, bad)
