"""Independent oracles: exact arithmetic written apart from the package.

Nothing here imports sigmavect.  Every workload checks the package's output
against one of these computations, never against a stored copy of an
earlier run.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


# -- dense power series in t (Knuth, TAOCP vol. 2, section 4.7) --------------


class Mod:
    """Arithmetic of the integers mod a prime p, on plain ints."""

    def __init__(self, p):
        self.p = p

    def of(self, x):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def inv(self, x):
        return pow(x, -1, self.p)


class Rat:
    """Arithmetic of the rationals, on Fractions."""

    p = None

    def of(self, x):
        return Fraction(x)

    def inv(self, x):
        return 1 / Fraction(x)


def _norm(ring, x):
    return x % ring.p if ring.p else x


def series_quotient(num, den, n, ring):
    """Coefficients c_0..c_n of num(t) / den(t) mod t^(n+1), den[0] != 0.

    c_m = (b_m - sum_{k=1..m} a_k c_{m-k}) / a_0, the dense recurrence."""
    a = [ring.of(x) for x in den]
    b = [ring.of(x) for x in num]
    a0inv = ring.inv(a[0])
    out = []
    for m in range(n + 1):
        acc = b[m] if m < len(b) else 0
        for k in range(1, min(m, len(a) - 1) + 1):
            acc -= a[k] * out[m - k]
        out.append(_norm(ring, acc * a0inv))
    return out


def dense_mul(f, g, n, ring):
    """Product of two dense t-polynomials, truncated to degree n."""
    out = [0] * (n + 1)
    for i, x in enumerate(f[: n + 1]):
        if not x:
            continue
        for j, y in enumerate(g[: n + 1 - i]):
            out[i + j] += x * y
    return [_norm(ring, c) for c in out]


def dense_geometric(eps, weights, n, ring):
    """sum_k weights[k] * eps^k mod t^(n+1); eps[0] == 0, so eps^k vanishes
    below t^k and k <= n suffices."""
    total = [0] * (n + 1)
    power = [ring.of(1)] + [0] * n
    eps = [ring.of(x) for x in eps]
    for k in range(n + 1):
        w = ring.of(weights(k))
        total = [_norm(ring, s + w * c) for s, c in zip(total, power)]
        power = dense_mul(power, eps, n, ring)
    return total


# -- exact elimination over Q --------------------------------------------------


class Echelon:
    """Row space of a set of vectors in echelon form, built incrementally.

    `reduce(v)` returns the remainder of v against the basis; v lies in the
    span exactly when the remainder is zero."""

    def __init__(self, width):
        self.width = width
        self.rows = {}  # pivot column -> row with 1 at the pivot

    def reduce(self, v):
        v = [Fraction(x) for x in v]
        for col in sorted(self.rows):
            c = v[col]
            if c:
                row = self.rows[col]
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def add(self, v):
        r = self.reduce(v)
        col = next((i for i, x in enumerate(r) if x), None)
        if col is None:
            return False
        pv = r[col]
        r = [x / pv for x in r]
        # keep the basis fully reduced so one pass of reduce() suffices
        for k, row in list(self.rows.items()):
            c = row[col]
            if c:
                self.rows[k] = [x - c * y for x, y in zip(row, r)]
        self.rows[col] = r
        return True

    @property
    def rank(self):
        return len(self.rows)

    def contains(self, v):
        return not any(self.reduce(v))


def rank_of(vectors):
    if not vectors:
        return 0
    ech = Echelon(max(len(v) for v in vectors))
    for v in vectors:
        ech.add(list(v) + [0] * (ech.width - len(v)))
    return ech.rank


# -- sigma-span columns from the generator definitions ----------------------


def pattern_member(template, step, k, window):
    out = [Fraction(0)] * window
    for n, c in template.items():
        m = n + k * step
        if m < window:
            out[m] += Fraction(c)
    return out


def pattern_full_sum(template, step, window):
    """Window restriction of sum_{k >= 0} template shifted by k*step."""
    out = [Fraction(0)] * window
    for n, c in template.items():
        m = n
        while m < window:
            out[m] += Fraction(c)
            m += step
    return out


def vector_window(coords, window):
    return [Fraction(coords.get(i, 0)) for i in range(window)]


# -- integer progressions -------------------------------------------------------


def progression_meet(a, s, b, t):
    """Ground truth for {a + k s : k >= 0} meet {b + l t : l >= 0} on the
    integers, s and t nonzero.  Returns (finite, sorted elements or None).

    Common points solve x = a (mod |s|), x = b (mod |t|); they exist iff
    gcd(|s|, |t|) divides b - a, and then form one class mod lcm(|s|, |t|).
    Two rays in the same direction share infinitely many of them; rays in
    opposite directions share those between the two starts."""
    g = gcd(abs(s), abs(t))
    if (b - a) % g:
        return (True, [])
    if (s > 0) == (t > 0):
        return (False, None)
    lo, hi = (a, b) if s > 0 else (b, a)
    period = abs(s) // g * abs(t)
    first = next((x for x in range(lo, lo + period)
                  if (x - a) % s == 0 and (x - b) % t == 0), None)
    if first is None or first > hi:
        return (True, [])
    return (True, list(range(first, hi + 1, period)))
