"""Expression DSL: lexer, parser, printer, evaluator.

Grammar (LL(1), precedence low to high: tensor < additive < multiplicative
< unary minus < power < atom):

    expr     := additive ("(x)" additive)*
    additive := term (("+"|"-") term)*
    term     := unary (("*"|"/") unary)*
    unary    := "-" unary | power
    power    := atom ("^" unary)?
    atom     := NUMBER | IDENT | IDENT "(" groups ")" | "(" expr ")"
              | "[" expr ("," expr)* "]"
    groups   := args (";" args)*          # grid(base; g1, g2)
    args     := arg ("," arg)*
    arg      := IDENT "->" expr | expr

Diagnostics carry line/column and the expected-token set; no recovery.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from . import bornology as bo
from .closure import (ConstructedBasis, FunctionalFamily, PatternGenerator, SigmaSpanOracle,
                      VectorGenerator, dual_basis_construction)
from .hahn import cauchy_product, invert_unit, leading_term, monomial_shift, truncate
from .scalars import QQ, FpElement, NumberTooLarge, check_size
from .series import (FiniteSeries, Series, Space, SummableFamily, add, family_sum, pairing,
                     scale, sub)
from .sets import DescribedSet
from .slalg import euler_derivation
from .strmap import StrongLinearMap, pure_tensor
from .universe import Integers, MonomialUniverse, Naturals, PairUniverse, UniverseError


class Diagnostic(ValueError):
    def __init__(self, message, line, col, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        loc = "line %d, column %d" % (line, col)
        exp = (" (expected %s)" % ", ".join(expected)) if expected else ""
        super().__init__("%s at %s%s" % (message, loc, exp))


# -- tokens -------------------------------------------------------------------

# punctuation (longest first where one is a prefix of another), a number, a
# name, or one whitespace character
_TOKEN = re.compile(r"(->|\(x\)|[-+*/^()\[\],;])|(\d+)|([^\W\d]\w*)|(\s)")


@dataclass
class Token:
    kind: str  # 'num' | 'ident' | punctuation itself | 'eof'
    text: str
    line: int
    col: int


def tokenize(text):
    toks = []
    line, line_start, i = 1, 0, 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        col = i - line_start + 1
        if m is None:
            raise Diagnostic("unexpected character %r" % text[i], line, col)
        punct, num, _, space = m.groups()
        if space == "\n":
            line, line_start = line + 1, m.end()
        elif space is None:
            toks.append(Token(punct or ("num" if num else "ident"), m.group(), line, col))
        i = m.end()
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks


# -- AST ----------------------------------------------------------------------


class Node:
    """Base of the AST node dataclasses."""


@dataclass
class Num(Node):
    value: int


@dataclass
class Name(Node):
    ident: str


@dataclass
class Unary(Node):
    op: str
    arg: Node


@dataclass
class Binary(Node):
    op: str
    left: Node
    right: Node


@dataclass
class Call(Node):
    func: str
    groups: tuple  # tuple of tuples of Node/Lambda


@dataclass
class ListExpr(Node):
    items: tuple


@dataclass
class Lambda(Node):
    var: str
    body: Node


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.peek()
        if t.kind != kind:
            raise Diagnostic("unexpected %r" % (t.text or "end of input"),
                             t.line, t.col, expected=[kind])
        return self.next()

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t.kind != "eof":
            raise Diagnostic("trailing input %r" % t.text, t.line, t.col,
                             expected=["eof"])
        return e

    def _left(self, ops, operand):
        """operand (op operand)*, associating to the left."""
        e = operand()
        while self.peek().kind in ops:
            e = Binary(self.next().kind, e, operand())
        return e

    def _items(self, item, sep):
        """item (sep item)*"""
        out = [item()]
        while self.peek().kind == sep:
            self.next()
            out.append(item())
        return out

    def expr(self):
        return self._left(("(x)",), self.additive)

    def additive(self):
        return self._left(("+", "-"), self.term)

    def term(self):
        return self._left(("*", "/"), self.unary)

    def unary(self):
        if self.peek().kind == "-":
            self.next()
            return Unary("-", self.unary())
        return self.power()

    def power(self):
        e = self.atom()
        if self.peek().kind == "^":
            self.next()
            return Binary("^", e, self.unary())
        return e

    def atom(self):
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Num(_int(t.text))
        if t.kind == "ident":
            self.next()
            if self.peek().kind == "(":
                self.next()
                groups = self._items(lambda: self._items(self.arg, ","), ";")
                self.expect(")")
                return Call(t.text, tuple(tuple(g) for g in groups))
            return Name(t.text)
        if t.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "[":
            self.next()
            items = self._items(self.expr, ",") if self.peek().kind != "]" else []
            self.expect("]")
            return ListExpr(tuple(items))
        raise Diagnostic("unexpected %r" % (t.text or "end of input"),
                         t.line, t.col,
                         expected=["number", "identifier", "(", "["])

    def arg(self):
        t = self.peek()
        if t.kind == "ident" and self.toks[self.pos + 1].kind == "->":
            self.next()
            self.next()
            return Lambda(t.text, self.expr())
        return self.expr()


def parse(text):
    return _Parser(tokenize(text)).parse()


# -- printer ------------------------------------------------------------------

_PREC = {"(x)": 1, "+": 2, "-": 2, "*": 3, "/": 3, "u-": 4, "^": 5}


def print_expr(node, parent_prec=0):
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Lambda):
        return "%s -> %s" % (node.var, print_expr(node.body))
    if isinstance(node, ListExpr):
        return "[" + ", ".join(print_expr(i) for i in node.items) + "]"
    if isinstance(node, Call):
        return "%s(%s)" % (
            node.func,
            "; ".join(", ".join(print_expr(a) for a in g) for g in node.groups),
        )
    if isinstance(node, Unary):
        inner = print_expr(node.arg, _PREC["u-"])
        s = "-" + inner
        return "(" + s + ")" if parent_prec > _PREC["u-"] else s
    if isinstance(node, Binary):
        p = _PREC[node.op]
        left = print_expr(node.left, p)
        # all binary ops associate left; the right child needs one notch more
        right = print_expr(node.right, p + 1 if node.op != "^" else p)
        s = "%s %s %s" % (left, node.op, right) if node.op != "^" else left + "^" + right
        return "(" + s + ")" if p < parent_prec else s
    raise TypeError("not a node: %r" % (node,))


# -- values and environment ----------------------------------------------------


class EvalError(ValueError):
    pass


def _int(digits):
    """The int a run of decimal digits denotes, if Python converts one so long."""
    try:
        return int(digits)
    except ValueError:
        raise NumberTooLarge() from None


_SEQUENCE_NAME = re.compile(r"e(0|[1-9][0-9]*)")


@dataclass
class Pattern:
    """pattern(template, step): the step's generator, kept with its template."""

    template: FiniteSeries
    generator: PatternGenerator


class Env:
    """Evaluation context: fixed spaces plus named values."""

    def __init__(self, field=QQ, window=32):
        self.field = field
        self.window = window
        self.X = MonomialUniverse(["x"])
        self.hahn_space = Space(field, self.X, bo.well_ordered(self.X))
        self.nat = Naturals()
        self.seq_space = Space(field, self.nat, bo.finite_subsets(self.nat))
        self.seq_dual = Space(field, self.nat, bo.all_subsets(self.nat))
        self.int_universe = Integers()
        self.names = {
            "x": self.hahn_space.series({self.X.monomial(x=1): 1}),
            "ones": self.seq_dual.lazy(lambda n: 1, DescribedSet.progression(self.nat, 0, 1)),
        }
        for kind, ctor in (("finite", bo.finite_subsets), ("all", bo.all_subsets),
                           ("wo", bo.well_ordered), ("rwo", bo.reverse_well_ordered),
                           ("wo_omega", bo.order_type_omega)):
            self.names[kind] = ctor(self.int_universe)

    def lookup(self, ident):
        """A named value; e<n> is the n-th unit sequence for every n."""
        if ident in self.names:
            return self.names[ident]
        m = _SEQUENCE_NAME.fullmatch(ident)
        if m is None:
            raise EvalError("unknown name %r" % ident)
        return self.seq_space.delta(_int(m.group(1)))


_TYPES = (((int, Fraction, FpElement), "scalar"), (Series, "series"), (DescribedSet, "set"),
          (bo.Bornology, "bornology"), (StrongLinearMap, "map"), (ConstructedBasis, "basis"),
          (Pattern, "pattern"), (list, "list"), (str, "verdict"))


def _type_of(value):
    """The type of an evaluation result, as messages and JSON name it."""
    return next((name for cls, name in _TYPES if isinstance(value, cls)), "value")


# -- builtin signatures --------------------------------------------------------

# Every builtin's argument groups (";" in a call), each argument "name: kind";
# a group "name: kind..." takes one or more arguments.  `Evaluator._call` reads
# each argument by its kind (`_READERS`); the handler `_fn_<builtin>` gets values.
BUILTINS = {
    "pair": "f: series, g: series",
    "grid": "base: monomial; generator: monomial...",
    "sum": "family: set, weight: weight",
    "truncate": "f: series, bound: monomial",
    "lead": "f: series",
    "shift": "f: series, monomial: monomial",
    "perp": "b: bornology",
    "apply": "map: map, f: series",
    "derive": "derivation: name, f: series",
    "pattern": "template: vector, step: integer",
    "sigmaspan": "generator: vector or pattern...; candidate: vector",
    "basis": "rows: vector list, depth: integer",
}

# a basis of depth d prints about d^2/2 dense cells
BASIS_DEPTH_LIMIT = 1024

# builtin: [[(argument, kind, takes the rest of its group)]]
_SIGNATURES = {
    fn: [[(arg, kind.rstrip("."), kind.endswith("..."))
          for arg, kind in (a.split(": ") for a in group.split(", "))]
         for group in text.split("; ")]
    for fn, text in BUILTINS.items()
}


class _Mismatch(Exception):
    """An argument not of its kind: its value (None if not evaluated) and the
    universe the kind asks for (None if any)."""

    def __init__(self, value=None, universe=None):
        super().__init__(value, universe)
        self.value, self.universe = value, universe


def _read_type(ty):
    """The reader of a kind that is one type of value."""

    def read(ev, v, u):
        if _type_of(v) != ty:
            raise _Mismatch(v)
        return v

    return read


def _read_monomial(ev, v, u):
    """The element g of u that v is as the series 1*g; the scalar 1 is the unit."""
    if _type_of(v) == "scalar" and v == ev.env.field.one:
        return u.unit
    if isinstance(v, FiniteSeries) and v.universe == u and len(v.terms) == 1:
        (g, c), = v.terms.items()
        if c == v.field.one:
            return g
    raise _Mismatch(v, u)


def _read_vector(ev, v, u):
    if isinstance(v, FiniteSeries) and v.universe == ev.env.nat:
        return v
    raise _Mismatch(v, ev.env.nat)


def _read_span_generator(ev, v, u):
    if isinstance(v, Pattern):
        return v.generator
    return VectorGenerator(_read_vector(ev, v, u).terms)


def _read_vector_list(ev, v, u):
    if not isinstance(v, list):
        raise _Mismatch(v)
    return [_read_vector(ev, r, u).terms for r in v]


def _read_integer(ev, node, locals_):
    """An integer, read exactly (not mod p) in every field."""
    q = ev._exact(node, locals_)
    if q.denominator != 1:
        raise _Mismatch(q)
    return q.numerator


def _read_weight(ev, node, locals_):
    """The function n -> scalar that a lambda argument `n -> expr` denotes."""
    if not isinstance(node, Lambda):
        raise _Mismatch()

    def weight(n):
        w = ev.eval(node.body, dict(locals_, **{node.var: ev.env.field.of(n)}))
        if _type_of(w) != "scalar":
            raise _kind_error("sum", "weight", "weight", _Mismatch(w))  # sum's alone
        return w

    return weight


def _read_name(ev, node, locals_):
    if not isinstance(node, Name):
        raise _Mismatch()
    return node.ident


# kind: (what the argument must be, %(u)r the universe asked for; reader).  A
# reader gets the evaluator, the value and the call's first series' universe (x
# before one), or for a kind in _UNEVALUATED the evaluator, the node and the
# locals; it returns what the handler takes or raises _Mismatch.
_READERS = {
    "series": ("a series", _read_type("series")),
    "monomial": ("a monomial with coefficient 1 in %(u)r", _read_monomial),
    "vector": ("a finite series in %(u)r", _read_vector),
    "vector or pattern": ("a finite series in %(u)r or a pattern", _read_span_generator),
    "vector list": ("a list of finite series in %(u)r", _read_vector_list),
    "set": ("a set", _read_type("set")),
    "bornology": ("a bornology", _read_type("bornology")),
    "map": ("a map", _read_type("map")),
    "integer": ("an integer", _read_integer),
    "weight": ("a function n -> scalar", _read_weight),
    "name": ("a bare name", _read_name),
}
_UNEVALUATED = ("integer", "weight", "name")


def _kind_error(fn, arg, kind, mismatch):
    """The EvalError for argument `arg` of `fn` not of `kind`: what it must be
    and what it is, with both universes when they differ."""
    u, v = mismatch.universe, mismatch.value
    msg = "%s %s must be %s" % (fn, arg, _READERS[kind][0] % {"u": u})
    if v is not None:
        ty = _type_of(v)
        got = render(v) if ty == "scalar" else "a " + ty
        vu = getattr(v, "universe", None)
        if u is not None and vu is not None and vu != u:
            got += " in %r" % vu
        msg += ", got " + got
    return EvalError(msg)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class Evaluator:
    def __init__(self, env=None):
        self.env = env or Env()

    def eval(self, node, locals_=None):
        return self._eval(node, locals_ or {})

    def _eval(self, node, locals_):
        env = self.env
        if isinstance(node, Num):
            return env.field.of(node.value)
        if isinstance(node, Name):
            if node.ident in locals_:
                return locals_[node.ident]
            return env.lookup(node.ident)
        if isinstance(node, ListExpr):
            return [self.eval(i, locals_) for i in node.items]
        if isinstance(node, Unary):
            v = self.eval(node.arg, locals_)
            if _type_of(v) == "scalar":
                return -v
            if _type_of(v) == "series":
                return scale(-1, v)
            raise EvalError("cannot negate a %s" % _type_of(v))
        if isinstance(node, Binary):
            return self._binary(node, locals_)
        if isinstance(node, Call):
            return self._call(node, locals_)
        if isinstance(node, Lambda):
            raise EvalError("a function literal is only allowed as an argument")
        raise EvalError("cannot evaluate %r" % (node,))

    def _binary(self, node, locals_):
        op = node.op
        if op == "^":
            return self._power(node, locals_)
        a = self.eval(node.left, locals_)
        b = self.eval(node.right, locals_)
        ta, tb = _type_of(a), _type_of(b)
        if op == "(x)":
            if ta == tb == "series":
                u = PairUniverse(a.universe, b.universe)
                space = Space(a.field, u, bo.product_bornology(a.bornology, b.bornology, u))
                return pure_tensor(space, a, b)
            raise EvalError("(x) needs two series")
        if ta == tb == "scalar":
            return _ARITH[op](a, b)
        if ta == "series" and tb == "scalar" and op == "/":
            return scale(self.env.field.one / b, a)
        if {ta, tb} == {"scalar", "series"} and op != "/":
            if op == "*":
                return scale(a, b) if ta == "scalar" else scale(b, a)
            # a scalar c added to a series is the constant series c
            a, b = (_const_series(b, a), b) if ta == "scalar" else (a, _const_series(a, b))
            ta = tb = "series"
        if ta == tb == "series":
            if op == "+":
                return add(a, b)
            if op == "-":
                return sub(a, b)
            if op == "*":
                return cauchy_product(a, b)
            if op == "/":
                return cauchy_product(a, invert_unit(b, self.env.window))
        raise EvalError("operator %r undefined on %s and %s" % (op, ta, tb))

    def _exact(self, node, locals_):
        """The rational that exponents and integer arguments denote, read exactly
        (not mod p) in every field; _Mismatch on a value that is not one."""
        if isinstance(node, Num):
            return Fraction(node.value)
        if isinstance(node, Unary):
            return -self._exact(node.arg, locals_)
        if isinstance(node, Binary) and node.op in ("+", "-", "*", "/", "^"):
            a = self._exact(node.left, locals_)
            b = self._exact(node.right, locals_)
            if node.op != "^":
                return _ARITH[node.op](a, b)
            if b.denominator != 1:
                raise EvalError("fractional power inside an exponent")
            return check_size(a, b.numerator) ** b.numerator
        v = self.eval(node, locals_)
        if not isinstance(v, (int, Fraction)):
            raise _Mismatch(v)
        return Fraction(v)

    def _power(self, node, locals_):
        base = self.eval(node.left, locals_)
        try:
            q = self._exact(node.right, locals_)
        except _Mismatch:
            raise EvalError("exponent must be a rational scalar") from None
        ty = _type_of(base)
        if ty == "scalar":
            if q.denominator != 1:
                raise EvalError("fractional power of a scalar")
            n = q.numerator
            if isinstance(base, Fraction):
                check_size(base, n)
            return base ** n if n >= 0 else (self.env.field.one / base) ** -n
        if ty != "series":
            raise EvalError("cannot raise a %s to a power" % ty)
        if isinstance(base, FiniteSeries) and len(base.terms) == 1:
            (g, c), = base.terms.items()
            u = base.universe
            if not u.is_group and q < 0:
                raise EvalError("negative power outside a group universe")
            if c == base.field.one:
                try:
                    g = u.devectorize(tuple(x * q for x in u.vectorize(g)))
                except UniverseError as exc:
                    raise EvalError("power outside %r: %s" % (u, exc)) from None
                return base.space.delta(g)
            if q.denominator != 1:
                raise EvalError("fractional power of a non-monic monomial")
        if q.denominator != 1:
            raise EvalError("fractional power of a general series")
        n = q.numerator
        if n < 0:
            base, n = invert_unit(base, self.env.window), -n
        return _series_power(base, n)

    # -- builtin calls ---------------------------------------------------
    def _call(self, node, locals_):
        """The one place where builtin arguments are evaluated and checked."""
        fn = node.func
        if fn not in _SIGNATURES:
            raise EvalError("unknown function %r" % fn)
        signature = _SIGNATURES[fn]
        if len(node.groups) != len(signature) or any(
            len(args) != len(group) and not group[0][2]
            for args, group in zip(node.groups, signature)
        ):
            raise EvalError("%s takes (%s)" % (fn, BUILTINS[fn]))
        values, u = [], None
        for args, group in zip(node.groups, signature):
            for i, (arg, kind, rest) in enumerate(group):
                read = [self._argument(fn, arg, kind, a, locals_, u or self.env.X)
                        for a in (args[i:] if rest else args[i:i + 1])]
                values.append(read if rest else read[0])
                if kind == "series" and u is None:
                    u = read[0].universe
        return getattr(self, "_fn_" + fn)(*values)

    def _argument(self, fn, arg, kind, node, locals_, u):
        """Argument `arg` of builtin `fn`, read as `kind` from `node`."""
        read = _READERS[kind][1]
        try:
            if kind in _UNEVALUATED:
                return read(self, node, locals_)
            if isinstance(node, Lambda):
                raise _Mismatch()
            return read(self, self.eval(node, locals_), u)
        except _Mismatch as mismatch:
            raise _kind_error(fn, arg, kind, mismatch) from None

    def _fn_pair(self, f, g):
        return pairing(f, g, declared_dual=True)

    def _fn_grid(self, base, generators):
        return DescribedSet.grid(self.env.X, base, generators)

    def _fn_sum(self, family, weight):
        sp = self.env.hahn_space
        order, positions = family.iter_increasing(), {}

        def position(g):
            """g's place in the increasing listing of the family."""
            while g not in positions:
                positions[next(order)] = len(positions)
            return positions[g]

        fam = SummableFamily(sp, family, sp.delta, lambda g: [g] if family.contains(g) else [],
                             family)
        return family_sum(fam, lambda g: weight(position(g)), precheck=False)

    def _fn_truncate(self, f, bound):
        return truncate(f, bound)

    def _fn_lead(self, f):
        lt = leading_term(f, self.env.window)
        if lt is None:
            return "zero-to-window"
        return f.space.delta(*lt)

    def _fn_shift(self, f, monomial):
        return monomial_shift(f, monomial)

    def _fn_perp(self, b):
        return bo.perp(b)

    def _fn_apply(self, m, f):
        return m.apply(f)

    def _fn_derive(self, derivation, f):
        if derivation != "euler":
            raise EvalError("unknown derivation; only 'euler' is built in")
        return euler_derivation(self.env.hahn_space).apply(f)

    def _fn_pattern(self, template, step):
        return Pattern(template, PatternGenerator(template.terms, step))

    def _fn_sigmaspan(self, generators, candidate):
        """`accepted` or `rejected`.  With vectors only the answer is exact: it
        is decided on the coordinates the candidate and the vectors touch,
        renumbered from 0, and needs no window.  With a pattern it is decided
        on the window.  A `rejected` is then exact: the left-kernel vector
        that refutes the candidate lies inside the window, so it annihilates
        every full generator and every summable sum of them, but not the
        full candidate.  An `accepted` holds on the window only, so it is
        refused unless the window holds every template, vector and the
        candidate."""
        f, window = candidate.terms, self.env.window
        touched = set(f).union(*(g.coords if isinstance(g, VectorGenerator) else g.template
                                 for g in generators))
        reach = -1  # the last coordinate the window must hold
        if all(isinstance(g, VectorGenerator) for g in generators):
            at = {n: i for i, n in enumerate(sorted(touched))}
            generators = [VectorGenerator({at[n]: c for n, c in g.coords.items()})
                          for g in generators]
            f, window = {at[n]: c for n, c in f.items()}, len(at)
        else:
            reach = max(touched, default=-1)
        verdict, _ = SigmaSpanOracle(generators, window).decide(f)
        if verdict == "accepted" and reach >= window:
            raise EvalError("sigmaspan with a pattern reaches coordinate %d, outside a window "
                            "of %d coordinates; it needs --window %d or more"
                            % (reach, window, reach + 1))
        return verdict

    def _fn_basis(self, rows, depth):
        if depth > BASIS_DEPTH_LIMIT:
            raise EvalError("basis depth %d is above the limit %d" % (depth, BASIS_DEPTH_LIMIT))
        return dual_basis_construction(FunctionalFamily(rows), depth)


def _const_series(like, c):
    u = like.universe
    if not u.has_monoid:
        raise EvalError("scalar +/- series needs a monoid universe")
    return like.space.delta(u.unit, c)


def _series_power(f, n):
    """f^n by squaring, in at most 2*n.bit_length() products; f^0 = 1."""
    out = None
    while n:
        if n & 1:
            out = f if out is None else cauchy_product(out, f)
        n >>= 1
        if n:
            f = cauchy_product(f, f)
    return _const_series(f, f.field.one) if out is None else out


def render(value, window=32):
    """Canonical textual rendering of an evaluation result."""
    ty = _type_of(value)
    if ty == "scalar":
        return QQ.format(value) if isinstance(value, (int, Fraction)) else str(value)
    if ty == "series":
        return value.format(window)
    if ty == "set":
        return value.format()
    if ty == "bornology":
        return value.kind
    if ty == "verdict":
        return value
    if ty == "pattern":
        return "pattern(%s, %s)" % (value.template.format(window),
                                    QQ.format(value.generator.step))
    if ty == "basis":
        return "; ".join("(" + ", ".join(render(c) for c in v) + ")" for v in value.vectors)
    if ty == "list":
        return "[" + ", ".join(render(v, window) for v in value) + "]"
    return repr(value)


def evaluate(text, env=None, window=None):
    env = env or Env()
    if window is not None:
        env.window = window
    return render(Evaluator(env).eval(parse(text)), env.window)
