"""hahn-deep: deep one-variable expansions through the `sigma` CLI.

Each operation is one `sigma --format json eval -e "truncate(Q * P^-1, x^n)"`
made in-process through `sigmavect.cli.main`.  P and Q are polynomials in
t = x^(1/q) with q in {1, 2, 3}, P(0) != 0 and Q = b0 + b1 t.  About a quarter of the cases run
under `--field fp:p`.  The output terms are checked against the dense
power-series recurrence for Q/P in t (oracles.series_quotient).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

from oracles import Mod, Rat, series_quotient

PRIMES = (101, 997, 7919, 65521)
WINDOW = 160  # wider than any result, so the JSON lists every term

# (degree of P in t, exponent denominator q, depth n in x, prime field?)
# The shape of each case is fixed; the seed draws the coefficients and the
# prime, so every seed asks for the same amount of work.  16 of the 64
# shapes run over a prime field.
SLOTS = [
    # one-generator Laurent cases, q = 1
    (1, 1, 2, False), (1, 1, 4, False), (1, 1, 6, False), (1, 1, 8, True),
    (1, 1, 10, False), (1, 1, 12, False), (1, 1, 14, False), (1, 1, 16, True),
    (1, 1, 18, False), (1, 1, 20, False), (1, 1, 22, False), (1, 1, 24, False),
    (1, 1, 26, True), (1, 1, 28, False), (1, 1, 30, True), (1, 1, 32, False),
    (1, 1, 36, False), (1, 1, 40, False), (1, 1, 48, False), (1, 1, 48, True),
    (2, 1, 3, True), (2, 1, 4, False), (2, 1, 6, False), (2, 1, 8, False),
    (2, 1, 10, True), (2, 1, 12, False), (2, 1, 14, False), (2, 1, 16, False),
    (2, 1, 18, True), (2, 1, 20, False), (2, 1, 24, True), (2, 1, 28, False),
    (2, 1, 36, False), (2, 1, 40, True), (2, 1, 44, False), (2, 1, 48, True),
    (3, 1, 3, False), (3, 1, 5, False), (3, 1, 7, True), (3, 1, 10, False),
    (3, 1, 12, False), (3, 1, 16, False), (3, 1, 20, True),
    # Puiseux cases, q = 2 and q = 3
    (1, 2, 6, False), (1, 2, 12, True), (1, 2, 24, False),
    (2, 2, 3, False), (2, 2, 5, False), (2, 2, 8, False), (2, 2, 10, True),
    (2, 2, 14, False), (2, 2, 18, True),
    (1, 3, 4, False), (1, 3, 8, False), (1, 3, 16, False),
    (2, 3, 2, False), (2, 3, 4, True), (2, 3, 6, False), (2, 3, 8, False),
    (2, 3, 10, False), (2, 3, 12, True),
    (3, 2, 4, False), (3, 2, 8, False), (3, 3, 4, False),
]


def invoke_cli(argv):
    """One in-process `sigma` invocation; returns (exit status, stdout)."""
    from sigmavect.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main.main(args=argv, prog_name="sigma", standalone_mode=False)
    return rc, buf.getvalue()


def _mono(k, q):
    e = Fraction(k, q)
    if e == 1:
        return "x"
    if e.denominator == 1:
        return "x^%d" % e.numerator
    return "x^(%d/%d)" % (e.numerator, e.denominator)


def _poly_text(coeffs, q):
    out = ""
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        body = str(abs(c)) if k == 0 else ("%d*%s" % (abs(c), _mono(k, q)))
        if not out:
            out = body if c > 0 else "-" + body
        else:
            out += (" + " if c > 0 else " - ") + body
    return out or "0"


def parse_monomial(text):
    """Exponent of x in 'x', 'x^3', 'x^(5/2)' or '1'."""
    if text == "1":
        return Fraction(0)
    if text == "x":
        return Fraction(1)
    if not text.startswith("x^"):
        raise ValueError("unexpected monomial %r" % text)
    return Fraction(text[2:].strip("()"))


def series_terms(raw, p=None):
    """{exponent: coefficient} from the (exit status, stdout) of a JSON eval
    whose result is a series; coefficients are ints mod p when p is set."""
    rc, out = raw
    rec = json.loads(out)
    if rc not in (None, 0) or rec.get("kind") != "eval":
        return {"error": out.strip()}
    res = rec["result"]
    if res["type"] != "series":
        return {"type": res["type"]}
    conv = int if p else Fraction
    return {parse_monomial(m): conv(c) for m, c in res["value"]["terms"]}


class Case:
    kind = "truncate"

    def __init__(self, rng, deg, q, n, prime, a0):
        self.q, self.n = q, n
        self.den = [a0 * rng.choice([-1, 1])] + [rng.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6])
                           for _ in range(deg)]
        self.num = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2)]
        self.p = rng.choice(PRIMES) if prime else None
        self.expr = "truncate((%s) * (%s)^-1, %s)" % (
            _poly_text(self.num, q), _poly_text(self.den, q), _mono(n * q, q))
        field = "fp:%d" % self.p if self.p else "rational"
        self.argv = ["--field", field, "--window", str(WINDOW), "--format", "json",
                     "eval", "-e", self.expr]
        self._expected = None

    def run(self):
        return invoke_cli(self.argv)

    def observe(self, raw):
        return series_terms(raw, self.p)

    def expected(self):
        if self._expected is None:
            ring = Mod(self.p) if self.p else Rat()
            coeffs = series_quotient(self.num, self.den, self.n * self.q, ring)
            self._expected = {Fraction(m, self.q): c for m, c in enumerate(coeffs) if c}
        return self._expected

    def check(self, data):
        return data == self.expected()


def generate(seed):
    """Every slot twice (128 operations).  |P(0)| sets how fast the
    coefficients grow, so it is part of the fixed shape: the first copy of
    a slot takes 1 or 3, the second 2 or 4."""
    rng = random.Random("hahn-deep:%d" % seed)
    return [Case(rng, *slot, a0=1 + copy + 2 * (j % 2))
            for copy in (0, 1) for j, slot in enumerate(SLOTS)]
