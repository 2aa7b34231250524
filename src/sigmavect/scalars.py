"""Exact coefficient fields: rationals and small prime fields.

No floating point anywhere; every scalar is a Fraction or a prime-field
element, and every operation is exact.  A prime field GF(p) (the CLI's
``--field fp:<p>``) needs a prime p < 2^31; any other modulus is refused,
and on the command line that is a usage error.

A sum of products, the inner loop of series arithmetic, is one call to
`Field.dot`: it adds on plain ints (mod p, or over the lcm of the products'
denominators) and normalizes once, where a left-to-right sum of `Fraction`s
takes a gcd at every step.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction


class FpElement:
    """Element of GF(p), p < 2**31 prime."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.p = p
        self.value = value % p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed prime-field moduli: %d vs %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __pow__(self, n):
        # a non-negative int: expr._power turns a negative power into one of
        # the inverse
        return FpElement(pow(self.value, n, self.p), self.p)

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.p)
        return FpElement(pow(self.value, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        return isinstance(other, FpElement) and self.p == other.p and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "%d" % self.value


class Field:
    """A coefficient field handle: exact rationals or GF(p)."""

    def __init__(self, name, p=None):
        self.name = name
        self.p = p
        self.zero = self.of(0)
        self.one = self.of(1)

    def of(self, x):
        """Coerce an int, Fraction or textual 'p/q' into the field."""
        if self.p is None:
            if type(x) is Fraction:  # exact test: isinstance on an int runs the ABC check
                return x
            if isinstance(x, FpElement):
                raise TypeError("prime-field element in rational context")
            return Fraction(x)
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValueError("modulus mismatch")
            return x
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return FpElement(x.numerator, self.p) / FpElement(x.denominator, self.p)
        return FpElement(int(x), self.p)

    def dot(self, pairs):
        """The sum of c * v over the (c, v) pairs of this field's elements
        (over QQ ints too), as one element: over GF(p) the products add on
        ints mod p; over QQ each product is put over the lcm of the
        products' denominators, and one `Fraction` is built.  No pairs give
        `zero`."""
        if self.p is not None:
            return FpElement(sum(c.value * v.value for c, v in pairs), self.p)
        num, den = 0, 1
        for c, v in pairs:
            n, d = c.numerator * v.numerator, c.denominator * v.denominator
            if d == den:
                num += n
            else:
                lcm = math.lcm(den, d)
                num, den = num * (lcm // den) + n * (lcm // d), lcm
        return Fraction(num, den)

    def parse(self, text):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/")
            return self.of(Fraction(int(num), int(den)))
        return self.of(int(text))

    def format(self, x):
        return str(check_size(x) if self.p is None else x)

    def is_zero(self, x):
        return not x

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return self.name


QQ = Field("QQ")


class NumberTooLarge(ValueError):
    """An exact number too long for Python to convert to decimal text."""

    def __init__(self):
        super().__init__("number too large: more than %d decimal digits"
                         % sys.get_int_max_str_digits())


_LOG2_10 = math.log2(10)


def check_size(q, power=1):
    """q, once q**power (q rational, power an int) is known to have a
    numerator and a denominator of at most sys.get_int_max_str_digits()
    decimal digits (0 means no limit), the longest that Python converts to
    text; raises NumberTooLarge otherwise.  A power other than 1 is judged
    from q's bit lengths, before the power is computed."""
    limit = sys.get_int_max_str_digits()
    if limit:
        bits = limit * _LOG2_10  # 2**bits == 10**limit
        for n in (q.numerator, q.denominator):
            b = n.bit_length()
            if power == 1:
                too_large = b > bits and abs(n) >= 10 ** limit
            else:
                too_large = (b - 1) * abs(power) >= bits  # |n|**power >= 2**((b-1)*power)
            if too_large:
                raise NumberTooLarge()
    return q


def _is_prime(n):
    """Deterministic Miller-Rabin on bases 2, 3, 5 and 7, exact for
    n < 3 215 031 751 (Jaeschke 1993), so for every modulus below 2^31."""
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def GF(p):
    if p < 2 or p >= 2 ** 31:
        raise ValueError("modulus out of range")
    if not _is_prime(p):
        raise ValueError("%d is not prime" % p)
    return Field("GF(%d)" % p, p)


def field_from_spec(spec):
    """Parse a --field flag value: 'rational' or 'fp:<p>'."""
    if spec == "rational":
        return QQ
    if spec.startswith("fp:"):
        return GF(int(spec[3:]))
    raise ValueError("unknown field spec %r" % spec)
