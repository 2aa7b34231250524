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

from dataclasses import dataclass
from fractions import Fraction

from . import bornology as bo
from .hahn import cauchy_product, invert_unit, leading_term, monomial_shift, truncate
from .scalars import QQ
from .series import (
    FiniteSeries,
    Series,
    Space,
    SummableFamily,
    add,
    family_sum,
    pairing,
    scale,
    sub,
)
from .sets import DescribedSet
from .strmap import pure_tensor
from .universe import Integers, MonomialUniverse, Naturals, PairUniverse


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

_PUNCT = ("->", "(x)", "+", "-", "*", "/", "^", "(", ")", "[", "]", ",", ";")


@dataclass
class Token:
    kind: str  # 'num' | 'ident' | punctuation itself | 'eof'
    text: str
    line: int
    col: int


def tokenize(text):
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        matched = None
        for p in _PUNCT:
            if text.startswith(p, i):
                matched = p
                break
        if matched:
            toks.append(Token(matched, matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise Diagnostic("unexpected character %r" % ch, line, col)
    toks.append(Token("eof", "", line, col))
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

    def expr(self):
        e = self.additive()
        while self.peek().kind == "(x)":
            self.next()
            e = Binary("(x)", e, self.additive())
        return e

    def additive(self):
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            e = Binary(op, e, self.term())
        return e

    def term(self):
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            e = Binary(op, e, self.unary())
        return e

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
            return Num(int(t.text))
        if t.kind == "ident":
            self.next()
            if self.peek().kind == "(":
                self.next()
                groups = [self.args()]
                while self.peek().kind == ";":
                    self.next()
                    groups.append(self.args())
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
            items = []
            if self.peek().kind != "]":
                items.append(self.expr())
                while self.peek().kind == ",":
                    self.next()
                    items.append(self.expr())
            self.expect("]")
            return ListExpr(tuple(items))
        raise Diagnostic("unexpected %r" % (t.text or "end of input"),
                         t.line, t.col,
                         expected=["number", "identifier", "(", "["])

    def args(self):
        out = [self.arg()]
        while self.peek().kind == ",":
            self.next()
            out.append(self.arg())
        return out

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
        self.names = {}
        self.names["x"] = self.hahn_space.series({self.X.monomial(x=1): 1})
        self.names["ones"] = self.seq_dual.lazy(
            lambda n: 1, DescribedSet.progression(self.nat, 0, 1)
        )
        for k in range(32):
            self.names["e%d" % k] = self.seq_space.delta(k)
        for kind, ctor in (
            ("finite", bo.finite_subsets), ("all", bo.all_subsets),
            ("wo", bo.well_ordered), ("rwo", bo.reverse_well_ordered),
            ("wo_omega", bo.order_type_omega),
        ):
            self.names[kind] = ctor(self.int_universe)

    def lookup(self, ident):
        if ident not in self.names:
            raise EvalError("unknown name %r" % ident)
        return self.names[ident]


def _type_of(value):
    from .closure import ConstructedBasis
    from .strmap import StrongLinearMap

    if isinstance(value, (int, Fraction)) or type(value).__name__ == "FpElement":
        return "scalar"
    if isinstance(value, Series):
        return "series"
    if isinstance(value, DescribedSet):
        return "set"
    if isinstance(value, bo.Bornology):
        return "bornology"
    if isinstance(value, StrongLinearMap):
        return "map"
    if isinstance(value, ConstructedBasis):
        return "basis"
    if isinstance(value, list):
        return "list"
    if isinstance(value, str):
        return "verdict"
    return "value"


def _as_monomial(s, what="argument"):
    """A series that is a single monomial with coefficient 1."""
    if _type_of(s) != "series" or not isinstance(s, FiniteSeries):
        raise EvalError("%s must be a monomial" % what)
    if len(s.terms) != 1:
        raise EvalError("%s must be a single monomial" % what)
    (g, c), = s.terms.items()
    if c != s.field.one:
        raise EvalError("%s must have coefficient 1" % what)
    return g


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
                space = Space(
                    a.field, u, bo.product_bornology(a.bornology, b.bornology, u)
                )
                return pure_tensor(space, a, b)
            raise EvalError("(x) needs two series")
        if ta == tb == "scalar":
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                return a / b
        if ta == "scalar" and tb == "series":
            if op == "*":
                return scale(a, b)
            if op in ("+", "-"):
                one = _const_series(b, a)
                return add(one, b) if op == "+" else sub(one, b)
        if ta == "series" and tb == "scalar":
            if op == "*":
                return scale(b, a)
            if op == "/":
                return scale(self.env.field.one / b, a)
            if op in ("+", "-"):
                c = _const_series(a, b)
                return add(a, c) if op == "+" else sub(a, c)
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

    def _rational_exponent(self, node, locals_):
        """Exponents are rationals regardless of the coefficient field."""
        if isinstance(node, Num):
            return Fraction(node.value)
        if isinstance(node, Unary):
            return -self._rational_exponent(node.arg, locals_)
        if isinstance(node, Binary) and node.op in ("+", "-", "*", "/", "^"):
            a = self._rational_exponent(node.left, locals_)
            b = self._rational_exponent(node.right, locals_)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                return a / b
            if b.denominator != 1:
                raise EvalError("fractional power inside an exponent")
            return a ** b.numerator
        expo = self.eval(node, locals_)
        if _type_of(expo) != "scalar" or not isinstance(expo, (int, Fraction)):
            raise EvalError("exponent must be a rational scalar")
        return Fraction(expo)

    def _power(self, node, locals_):
        base = self.eval(node.left, locals_)
        q = self._rational_exponent(node.right, locals_)
        if _type_of(base) == "scalar":
            if q.denominator != 1:
                raise EvalError("fractional power of a scalar")
            return base ** q.numerator if q >= 0 else (self.env.field.one / base) ** (-q.numerator)
        if _type_of(base) != "series":
            raise EvalError("cannot raise a %s to a power" % _type_of(base))
        if isinstance(base, FiniteSeries) and len(base.terms) == 1:
            (g, c), = base.terms.items()
            u = base.universe
            if q.denominator == 1 and q >= 0:
                pass
            elif not u.is_group and q < 0:
                raise EvalError("negative power outside a group universe")
            vec = tuple(x * q for x in u.vectorize(g))
            if c == base.field.one:
                return FiniteSeries(base.field, u, base.bornology, {u.devectorize(vec): 1})
            if q.denominator != 1:
                raise EvalError("fractional power of a non-monic monomial")
        if q.denominator != 1:
            raise EvalError("fractional power of a general series")
        n = q.numerator
        if n < 0:
            base = invert_unit(base, self.env.window)
            n = -n
        out = _const_series(base, base.field.one)
        for _ in range(n):
            out = cauchy_product(out, base)
        return out

    # -- builtin calls ---------------------------------------------------
    def _call(self, node, locals_):
        fn = node.func
        handler = getattr(self, "_fn_" + fn, None)
        if handler is None:
            raise EvalError("unknown function %r" % fn)
        return handler(node.groups, locals_)

    def _one_group(self, groups, fn, count=None):
        if len(groups) != 1:
            raise EvalError("%s takes a single argument group" % fn)
        args = groups[0]
        if count is not None and len(args) != count:
            raise EvalError("%s takes %d arguments" % (fn, count))
        return args

    def _fn_pair(self, groups, locals_):
        a, b = self._one_group(groups, "pair", 2)
        f = self.eval(a, locals_)
        g = self.eval(b, locals_)
        return pairing(f, g, declared_dual=True)

    def _fn_grid(self, groups, locals_):
        if len(groups) != 2:
            raise EvalError("grid takes base; generators")
        (base_e,), gens_e = groups[0], groups[1]
        u = self.env.X

        def mono(e, what):
            v = self.eval(e, locals_)
            if _type_of(v) == "scalar" and v == self.env.field.one:
                return u.unit  # "1" denotes the unit monomial
            return _as_monomial(v, what)

        base = mono(base_e, "grid base")
        gens = [mono(g, "grid generator") for g in gens_e]
        return DescribedSet.grid(u, base, gens)

    def _fn_sum(self, groups, locals_):
        fam_e, weight_e = self._one_group(groups, "sum", 2)
        fam_v = self.eval(fam_e, locals_)
        if not isinstance(weight_e, Lambda):
            raise EvalError("sum needs a weight function: sum(family, n -> expr)")
        if isinstance(fam_v, DescribedSet):
            fam_v = self._delta_family(fam_v)
        if not isinstance(fam_v, SummableFamily):
            raise EvalError("sum needs a described set or a family")
        positions = {}
        if not fam_v.is_explicit():
            for i, el in enumerate(fam_v.index.first_n(4096)):
                positions[el] = i
        else:
            for i, el in enumerate(fam_v.index):
                positions[el] = i

        def weights(i):
            n = positions.get(i, i if isinstance(i, int) else 0)
            return self.eval(
                weight_e.body, dict(locals_, **{weight_e.var: self.env.field.of(n)})
            )

        return family_sum(fam_v, weights, precheck=False)

    def _delta_family(self, s):
        sp = self.env.hahn_space
        if s.universe != sp.universe:
            raise EvalError("sum over a set needs monomial indices")

        def member(g):
            return sp.delta(g)

        def pointwise(g):
            return [g] if s.contains(g) else []

        return SummableFamily(sp.field, sp.universe, sp.bornology, s, member, pointwise, s)

    def _fn_truncate(self, groups, locals_):
        fe, be = self._one_group(groups, "truncate", 2)
        f = self.eval(fe, locals_)
        bound = _as_monomial(self.eval(be, locals_), "truncation bound")
        return truncate(f, bound)

    def _fn_lead(self, groups, locals_):
        (fe,) = self._one_group(groups, "lead", 1)
        f = self.eval(fe, locals_)
        lt = leading_term(f, self.env.window)
        if lt is None:
            return "zero-to-window"
        g, c = lt
        return FiniteSeries(f.field, f.universe, f.bornology, {g: c})

    def _fn_shift(self, groups, locals_):
        fe, me = self._one_group(groups, "shift", 2)
        f = self.eval(fe, locals_)
        m = _as_monomial(self.eval(me, locals_), "shift monomial")
        return monomial_shift(f, m)

    def _fn_perp(self, groups, locals_):
        (be,) = self._one_group(groups, "perp", 1)
        b = self.eval(be, locals_)
        if not isinstance(b, bo.Bornology):
            raise EvalError("perp needs a bornology")
        return bo.perp(b)

    def _fn_apply(self, groups, locals_):
        me, fe = self._one_group(groups, "apply", 2)
        m = self.eval(me, locals_)
        f = self.eval(fe, locals_)
        if _type_of(m) != "map":
            raise EvalError("apply needs a map and a series")
        return m.apply(f)

    def _fn_derive(self, groups, locals_):
        de, fe = self._one_group(groups, "derive", 2)
        dname = de.ident if isinstance(de, Name) else None
        if dname != "euler":
            raise EvalError("unknown derivation; only 'euler' is built in")
        from .slalg import BornologicalMonoid, euler_derivation, monoid_algebra

        f = self.eval(fe, locals_)
        alg = monoid_algebra(
            BornologicalMonoid(self.env.X, self.env.hahn_space.bornology),
            self.env.field,
        )
        return euler_derivation(alg).apply(f)

    def _integer_argument(self, node, locals_, what):
        """An integer argument, read exactly (not mod p) in every field."""
        q = self._rational_exponent(node, locals_)
        if q.denominator != 1:
            raise EvalError("%s must be an integer" % what)
        return q.numerator

    def _fn_pattern(self, groups, locals_):
        te, se = self._one_group(groups, "pattern", 2)
        template = self.eval(te, locals_)
        step = self._integer_argument(se, locals_, "pattern step")
        if not isinstance(template, FiniteSeries) or template.universe != self.env.nat:
            raise EvalError("pattern template must be a finite sequence vector")
        from .closure import PatternGenerator

        return PatternGenerator(template.terms, step)

    def _fn_sigmaspan(self, groups, locals_):
        if len(groups) != 2 or len(groups[1]) != 1:
            raise EvalError("sigmaspan takes generators; candidate")
        gens = []
        from .closure import PatternGenerator, VectorGenerator, sigma_span_window

        for ge in groups[0]:
            v = self.eval(ge, locals_)
            if isinstance(v, PatternGenerator):
                gens.append(v)
            elif isinstance(v, FiniteSeries) and v.universe == self.env.nat:
                gens.append(VectorGenerator(v.terms))
            else:
                raise EvalError("sigmaspan generators must be vectors or patterns")
        cand = self.eval(groups[1][0], locals_)
        if not isinstance(cand, FiniteSeries) or cand.universe != self.env.nat:
            raise EvalError("sigmaspan candidate must be a finite sequence vector")
        oracle = sigma_span_window(gens, self.env.window)
        verdict, _ = oracle.decide(cand.terms)
        return verdict

    def _fn_basis(self, groups, locals_):
        he, de = self._one_group(groups, "basis", 2)
        rows_v = self.eval(he, locals_)
        depth = self._integer_argument(de, locals_, "basis depth")
        if not isinstance(rows_v, list):
            raise EvalError("basis needs a list of functional rows")
        from .closure import FunctionalFamily, dual_basis_construction

        rows = []
        for r in rows_v:
            if not isinstance(r, FiniteSeries) or r.universe != self.env.nat:
                raise EvalError("basis rows must be finite sequence vectors")
            rows.append(r.terms)
        return dual_basis_construction(FunctionalFamily(rows), depth)


def _const_series(like, c):
    u = like.universe
    if not u.has_monoid:
        raise EvalError("scalar +/- series needs a monoid universe")
    return FiniteSeries(like.field, u, like.bornology, {u.unit: c})


def render(value, window=32):
    """Canonical textual rendering of an evaluation result."""
    from .closure import ConstructedBasis

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
    if isinstance(value, ConstructedBasis):
        rows = []
        for v in value.vectors:
            rows.append("(" + ", ".join(str(c) for c in v) + ")")
        return "; ".join(rows)
    if ty == "list":
        return "[" + ", ".join(render(v, window) for v in value) + "]"
    return repr(value)


def evaluate(text, env=None, window=None):
    env = env or Env()
    if window is not None:
        env.window = window
    ast = parse(text)
    ev = Evaluator(env)
    value = ev.eval(ast)
    return render(value, env.window)
