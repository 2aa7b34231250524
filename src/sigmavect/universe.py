"""Index universes: the sets of monomials that series are supported on.

A universe knows its elements (via a canonical textual codec), its total
order and an optional (ordered) monoid operation.  Numeric coordinates are
exact: ints (not bools) and Fractions, never floats.  An exponent vector
holds each coordinate in one normal form, an int when it is integral and a
Fraction otherwise (`check`, `unit`, `op`), which changes no equality, hash
or text, as hash(Fraction(n)) == hash(n).  Elements of the numeric and
monomial universes also embed into Q^n ("vectorize"), in the same normal
form, which is what the grid bookkeeping in :mod:`sigmavect.gridsolve`
works on.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property

from .scalars import check_size


class UniverseError(ValueError):
    pass


class Value:
    """Identity of an immutable object by its canonical record: equal when
    of one type with equal `to_record()`, hashed by the record's text.  The
    record is built once per object, on first comparison or hash."""

    def to_record(self):
        raise NotImplementedError

    @cached_property
    def _record(self):
        return self.to_record()

    def __eq__(self, other):
        return self is other or (type(self) is type(other) and self._record == other._record)

    def __hash__(self):
        return hash(str(self._record))


class Universe(Value):
    kind = "abstract"
    has_monoid = False
    is_group = False
    dim = None  # vector dimension when elements embed in Q^n

    def contains(self, el):
        raise NotImplementedError

    def check(self, el):
        if not self.contains(el):
            raise UniverseError("%r is not an element of %s" % (el, self))
        return el

    # order -------------------------------------------------------------
    def key(self, el):
        """Sortable key realizing the total order."""
        raise NotImplementedError

    def lt(self, a, b):
        return self.key(a) < self.key(b)

    def le(self, a, b):
        return self.key(a) <= self.key(b)

    # monoid ------------------------------------------------------------
    @property
    def unit(self):
        raise UniverseError("universe %s has no monoid structure" % self)

    def op(self, a, b):
        raise UniverseError("universe %s has no monoid structure" % self)

    def inv(self, a):
        raise UniverseError("universe %s has no inverses" % self)

    # vector embedding ----------------------------------------------------
    def vectorize(self, el):
        raise UniverseError("universe %s has no vector embedding" % self)

    def devectorize(self, vec):
        raise UniverseError("universe %s has no vector embedding" % self)

    # codec ---------------------------------------------------------------
    def format(self, el):
        raise NotImplementedError

    def parse(self, text):
        raise NotImplementedError

    def __repr__(self):
        return self.kind


def _fmt_rational(q):
    if type(q) is int:
        return str(check_size(q))
    q = check_size(Fraction(q))
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _parse_rational(text):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _coordinate(c):
    """An exact coordinate in normal form, an int when it is integral and a
    Fraction otherwise; None when c is not exact."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    return None


class FiniteUniverse(Universe):
    """An explicit finite set of labels, ordered by listing order."""

    kind = "finite"

    def __init__(self, labels):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise UniverseError("duplicate labels")
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def contains(self, el):
        # a label itself, not a value that merely hashes and compares equal
        # to one (True to 1, 1.0 to 1); an unhashable value is no label
        try:
            i = self._index.get(el)
        except TypeError:
            return False
        return i is not None and type(el) is type(self.labels[i])

    def key(self, el):
        return self._index[el]

    def format(self, el):
        return str(el)

    def parse(self, text):
        return self.check(text.strip())

    def to_record(self):
        return {"kind": "finite", "labels": list(self.labels)}


POINT = FiniteUniverse(["*"])  # one-point universe, target of functionals


class _NumericUniverse(Universe):
    has_monoid = True
    dim = 1

    @property
    def unit(self):
        return self._zero

    def op(self, a, b):
        return self.check(a + b)

    def key(self, el):
        return el

    def vectorize(self, el):
        return (_coordinate(el),)

    def format(self, el):
        return _fmt_rational(el)


class Naturals(_NumericUniverse):
    kind = "naturals"
    _zero = 0

    def contains(self, el):
        return isinstance(el, int) and not isinstance(el, bool) and el >= 0

    def devectorize(self, vec):
        q = vec[0]
        if q.denominator != 1 or q < 0:
            raise UniverseError("%s is not a natural number" % q)
        return int(q)

    def parse(self, text):
        return self.check(int(text.strip()))

    def to_record(self):
        return {"kind": "naturals"}


class Integers(_NumericUniverse):
    kind = "integers"
    is_group = True
    _zero = 0

    def contains(self, el):
        return isinstance(el, int) and not isinstance(el, bool)

    def inv(self, a):
        return -a

    def devectorize(self, vec):
        q = vec[0]
        if q.denominator != 1:
            raise UniverseError("%s is not an integer" % q)
        return int(q)

    def parse(self, text):
        return self.check(int(text.strip()))

    def to_record(self):
        return {"kind": "integers"}


class Rationals(_NumericUniverse):
    kind = "rationals"
    is_group = True
    _zero = Fraction(0)

    def contains(self, el):
        return _coordinate(el) is not None

    def check(self, el):
        if isinstance(el, int) and not isinstance(el, bool):
            return Fraction(el)
        return super().check(el)

    def inv(self, a):
        return -a

    def devectorize(self, vec):
        return Fraction(vec[0])

    def parse(self, text):
        return _parse_rational(text)

    def to_record(self):
        return {"kind": "rationals"}


class _ExponentGroup(Universe):
    """Lex-ordered exponent vectors of rationals of length `dim`, a monoid
    under +; subclasses set `dim`, `is_group` and, to restrict the
    coordinates, `exponents` and `_exp_ok`."""

    has_monoid = True
    is_group = True
    exponents = "rational"

    def _normal(self, el):
        """el with its coordinates in normal form (`_coordinate`), or None
        when it is no element."""
        if not isinstance(el, tuple) or len(el) != self.dim:
            return None
        out = []
        for c in el:
            if type(c) is not int:
                c = _coordinate(c)
                if c is None:
                    return None
            out.append(c)
        if self.exponents == "rational" or all(self._exp_ok(c) for c in out):
            return tuple(out)
        return None

    def contains(self, el):
        return self._normal(el) is not None

    def check(self, el):
        out = self._normal(el)
        if out is None:
            raise UniverseError("%r is not an element of %s" % (el, self))
        return out

    @property
    def unit(self):
        return (0,) * self.dim

    def op(self, a, b):
        return self._normal(tuple(x + y for x, y in zip(a, b)))

    def inv(self, a):
        if not self.is_group:
            raise UniverseError("universe %s has no inverses" % self)
        return tuple(-x for x in a)

    def key(self, el):
        return el

    def vectorize(self, el):
        return el

    def devectorize(self, vec):
        return self.check(tuple(vec))


class TupleUniverse(_ExponentGroup):
    """Lex-ordered tuples of rationals of a fixed arity; a group under +."""

    kind = "tuples"

    def __init__(self, arity):
        if arity < 1:
            raise UniverseError("arity must be positive")
        self.arity = arity
        self.dim = arity

    def format(self, el):
        return "(" + ", ".join(_fmt_rational(c) for c in el) + ")"

    def parse(self, text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise UniverseError("bad tuple literal %r" % text)
        parts = text[1:-1].split(",")
        return self.check(tuple(_parse_rational(p) for p in parts))

    def to_record(self):
        return {"kind": "tuples", "arity": self.arity}


_MONO_FACTOR = re.compile(
    r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\(?-?\d+(?:/\d+)?\)?))?$"
)


class MonomialUniverse(_ExponentGroup):
    """Free commutative monomial group on named generators.

    Elements are exponent tuples over the listed generator names, written
    multiplicatively (``x^(1/2)*y^-3``); the order is lexicographic in the
    declared name order, so the first name dominates.
    """

    kind = "monomials"

    def __init__(self, names, exponents="rational"):
        if exponents not in ("rational", "integer", "natural"):
            raise UniverseError("bad exponent kind %r" % exponents)
        self.names = tuple(names)
        if not self.names or len(set(self.names)) != len(self.names):
            raise UniverseError("generator names must be nonempty and distinct")
        self.exponents = exponents
        self.dim = len(self.names)
        self.is_group = exponents != "natural"

    def _exp_ok(self, q):
        if type(q) is not int:
            return False
        return self.exponents == "integer" or q >= 0

    def monomial(self, **exps):
        """Build an element from keyword exponents, e.g. monomial(x=1, y=-2)."""
        vec = [0] * self.dim
        for name, e in exps.items():
            if name not in self.names:
                raise UniverseError("unknown generator %r" % name)
            vec[self.names.index(name)] = Fraction(e)
        return self.check(tuple(vec))

    def format(self, el):
        parts = []
        for name, e in zip(self.names, el):
            if e == 0:
                continue
            if e == 1:
                parts.append(name)
            elif e.denominator == 1:
                parts.append("%s^%s" % (name, _fmt_rational(e)))
            else:
                parts.append("%s^(%s)" % (name, _fmt_rational(e)))
        return "*".join(parts) if parts else "1"

    def parse(self, text):
        text = text.strip()
        if text == "1":
            return self.unit
        vec = [0] * self.dim
        for factor in text.split("*"):
            m = _MONO_FACTOR.match(factor.strip())
            if not m:
                raise UniverseError("bad monomial factor %r" % factor)
            name, exp = m.group(1), m.group(2)
            if name not in self.names:
                raise UniverseError("unknown generator %r" % name)
            q = _parse_rational(exp.strip("()")) if exp else 1
            vec[self.names.index(name)] += q
        return self.check(tuple(vec))

    def to_record(self):
        return {"kind": "monomials", "names": list(self.names), "exponents": self.exponents}


class PairUniverse(Universe):
    """Product of two universes, ordered lexicographically."""

    kind = "pair"

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.has_monoid = left.has_monoid and right.has_monoid
        self.is_group = left.is_group and right.is_group
        if left.dim is not None and right.dim is not None:
            self.dim = left.dim + right.dim

    def contains(self, el):
        return (
            isinstance(el, tuple)
            and len(el) == 2
            and self.left.contains(el[0])
            and self.right.contains(el[1])
        )

    def check(self, el):
        if isinstance(el, tuple) and len(el) == 2:
            return (self.left.check(el[0]), self.right.check(el[1]))
        return super().check(el)

    @property
    def unit(self):
        return (self.left.unit, self.right.unit)

    def op(self, a, b):
        return (self.left.op(a[0], b[0]), self.right.op(a[1], b[1]))

    def inv(self, a):
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    def key(self, el):
        return (self.left.key(el[0]), self.right.key(el[1]))

    def vectorize(self, el):
        return tuple(self.left.vectorize(el[0])) + tuple(self.right.vectorize(el[1]))

    def devectorize(self, vec):
        n = self.left.dim
        return (self.left.devectorize(vec[:n]), self.right.devectorize(vec[n:]))

    def format(self, el):
        return "(%s, %s)" % (self.left.format(el[0]), self.right.format(el[1]))

    def parse(self, text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise UniverseError("bad pair literal %r" % text)
        depth = 0
        inner = text[1:-1]
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return (self.left.parse(inner[:i]), self.right.parse(inner[i + 1:]))
        raise UniverseError("bad pair literal %r" % text)

    def to_record(self):
        return {"kind": "pair", "left": self.left.to_record(), "right": self.right.to_record()}


def universe_from_record(rec):
    kind = rec["kind"]
    if kind == "finite":
        return FiniteUniverse(rec["labels"])
    if kind == "naturals":
        return Naturals()
    if kind == "integers":
        return Integers()
    if kind == "rationals":
        return Rationals()
    if kind == "tuples":
        return TupleUniverse(rec["arity"])
    if kind == "monomials":
        return MonomialUniverse(rec["names"], rec["exponents"])
    if kind == "pair":
        return PairUniverse(universe_from_record(rec["left"]), universe_from_record(rec["right"]))
    raise UniverseError("unknown universe record %r" % kind)
