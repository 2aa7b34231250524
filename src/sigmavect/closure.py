"""Constructive basis duality and one-step sigma-span closure on k^N.

Everything here is exact linear algebra on finite coordinate prefixes over
the field of the entries (GF(p) for FpElements, else the rationals), by one
elimination routine (`rref`), which runs on plain ints and makes field
elements only of its final rows: kernel bases, dual bases, and
window-restricted membership in the one-step sigma-span of a generator
list.  On a window of N coordinates a pattern's full sum is the sum of the
members that meet the window, so the columns are the generators' members
there; they are factored once, and each membership test is one product
accepted only when multiplying back gives the candidate.  Coordinates are
natural numbers; anything else is a `ClosureError`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .scalars import GF, QQ, FpElement


class ClosureError(ValueError):
    pass


class IdempotenceFailure(AssertionError):
    """A second sigma-span round produced a new vector; carries the witness."""

    def __init__(self, witness):
        super().__init__(
            "one-step sigma-span closure failed; witness: %r" % (witness,)
        )
        self.witness = witness


# -- exact linear algebra ----------------------------------------------------


def _naturals(coords, what):
    """coords as a dict, or ClosureError unless every coordinate is a natural
    number (a negative one would index the window from its end)."""
    coords = dict(coords)
    if any(not isinstance(n, int) or n < 0 for n in coords):
        raise ClosureError("%s coordinates must be naturals" % what)
    return coords


def _field(rows):
    """GF(p) when an entry is an FpElement, QQ otherwise."""
    p = next((x.p for r in rows for x in r if isinstance(x, FpElement)), None)
    return QQ if p is None else GF(p)


def rref(rows):
    """Reduced row echelon form over the field of the entries.  Returns
    (reduced nonzero rows, pivot cols).

    One fraction-free elimination on ints (after Bareiss, Math. Comp. 22, 1968):
    over QQ each row is scaled to integers and reduced as a*row - b*pivot_row,
    then divided by its gcd; over GF(p) the same update is taken mod p.  Only
    the final rows become field elements, each entry over its row's pivot."""
    field = _field(rows)
    of, p = field.of, field.p
    if p is None:
        mat = [_integer_row([x if type(x) is int else of(x) for x in r]) for r in rows]
    else:
        mat = [[of(x).value for x in r] for r in rows]
    if not mat:
        return [], []
    pivots = []
    for col in range(len(mat[0])):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        prow = mat[sel] if mat[sel][col] > 0 else [-x for x in mat[sel]]
        mat[sel], mat[rank] = mat[rank], prow
        a = prow[col]
        for i, row in enumerate(mat):
            b = row[col]
            if i == rank or not b:
                continue
            if p is None:
                g = gcd(a, b)
                row = [a // g * x - b // g * y for x, y in zip(row, prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
            else:
                mat[i] = [(a * x - b * y) % p for x, y in zip(row, prow)]
        pivots.append(col)
    if p is None:
        zero = field.zero
        return [[Fraction(x, r[c]) if x else zero for x in r] for r, c in zip(mat, pivots)], pivots
    invs = [pow(r[c], -1, p) for r, c in zip(mat, pivots)]
    return [[FpElement(x * v, p) for x in r] for r, v in zip(mat, invs)], pivots


def _integer_row(row):
    """A row of ints and Fractions scaled by the lcm of its denominators."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


def rank(rows):
    return len(rref(rows)[0])


def _factor(columns, n):
    """The field's zero, the pivot columns of the RREF of [A | I] (A: these
    n-long columns) and the transform rows of those pivots, as their nonzero
    (index, entry) pairs.  Row i times a target in the span is the
    coefficient of column pivots[i]; the free columns get zero."""
    m = len(columns)
    red, pivots = rref(
        [[c[i] for c in columns] + [int(i == j) for j in range(n)] for i in range(n)]
    )
    r = sum(1 for p in pivots if p < m)
    transform = [[(j, a) for j, a in enumerate(row[m:]) if a] for row in red[:r]]
    return _field(columns).zero, pivots[:r], transform


def _combination(columns, factored, target):
    """The combination of the columns equal to target, from their factored
    form, or None; accepted only when multiplying back gives the target."""
    zero, pivots, transform = factored
    coeffs = [zero] * len(columns)
    for p, t in zip(pivots, transform):
        coeffs[p] = sum(a * target[j] for j, a in t)
    for i, b in enumerate(target):
        if sum(coeffs[p] * columns[p][i] for p in pivots) != b:
            return None
    return coeffs


def solve_combination(columns, target):
    """Coefficients expressing target as a combination of the columns, or
    None.  Exact; columns and target are equal-length vectors."""
    return _combination(columns, _factor(columns, len(target)), target)


def kernel_basis(rows, ncols):
    """Basis of the joint kernel of the rows inside k^ncols, each vector
    scaled to leading coefficient 1 and sorted by leading coordinate."""
    red, pivots = rref([list(r) + [0] * (ncols - len(r)) for r in rows])
    return _kernel(red, pivots, ncols, _field(rows))


def _kernel(red, pivots, ncols, field):
    """`kernel_basis` of rows already reduced by `rref` to (red, pivots)."""
    pivot_set = set(pivots)
    out = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [field.zero] * ncols
        v[j] = field.one
        for row, p in zip(red, pivots):
            v[p] = -row[j]
        lead = next(i for i in range(ncols) if v[i] != 0)
        lc = v[lead]
        out.append(([x / lc for x in v], lead))
    out.sort(key=lambda t: t[1])
    return [v for v, _ in out]


# -- constructive dual bases --------------------------------------------------


class FunctionalFamily:
    """Finitely many finite-support functionals on k^(N), given as rows
    {coordinate: scalar}.  Dependent rows are allowed; the construction
    tracks their recovery coefficients through the pivot structure."""

    def __init__(self, rows):
        self.rows = [_naturals(r, "row") for r in rows]
        self.width = 1 + max((n for r in self.rows for n in r), default=-1)

    def as_lists(self, width=None):
        w = width or max(self.width, 1)
        return [[r.get(j, 0) for j in range(w)] for r in self.rows]


class ConstructedBasis:
    """A prefix b_0, b_1, ... of a basis of k^(N) whose dual coordinate
    functionals span the given rows.

    recovery[m] = list of (j, coefficient) with xi_m = sum c_j * delta_{b_j};
    bounds[m] = N_m with xi_m(b_n) = 0 for all n >= N_m."""

    def __init__(self, vectors, recovery, bounds, pivots, independent_rank):
        self.vectors = vectors
        self.recovery = recovery
        self.bounds = bounds
        self.pivots = pivots
        self.rank = independent_rank


def dual_basis_construction(family, depth):
    """Build `depth` basis vectors: the pivot coordinates complement the joint
    kernel, then kernel vectors by increasing leading coordinate, then the
    untouched standard vectors."""
    width = max(family.width, 1)
    rows = family.as_lists(width)
    field = _field(rows)
    zero, one = field.zero, field.one
    red, pivots = rref(rows)
    r = len(pivots)
    vectors = []
    # complement of the joint kernel: the pivot coordinates themselves
    for p in pivots:
        v = [zero] * width
        v[p] = one
        vectors.append(v)
    vectors.extend(_kernel(red, pivots, width, field))
    # beyond the materialized prefix the standard basis continues unchanged
    j = width
    while len(vectors) < depth:
        v = [zero] * (j + 1)
        v[j] = one
        vectors.append(v)
        j += 1
    vectors = vectors[:depth]

    # the first r vectors are delta_{pivots[j]}, so a row's j-th coordinate
    # is its entry at pivots[j]
    recovery = [
        [(j, c) for j, c in enumerate(field.of(row[p]) for p in pivots[:len(vectors)]) if c != 0]
        for row in rows
    ]
    return ConstructedBasis(vectors, recovery, [r] * len(rows), pivots, r)


# -- one-step sigma-span -----------------------------------------------------


class PatternGenerator:
    """The family (template shifted by k*step)_{k in N}; always summable:
    each coordinate meets at most |template| members."""

    def __init__(self, template, step):
        self.template = _naturals(template, "template")
        if step < 1:
            raise ClosureError("pattern step must be positive")
        self.step = int(step)

    def member(self, k):
        return {n + k * self.step: c for n, c in self.template.items()}

    def members_touching(self, window):
        """All k whose member meets coordinates < window."""
        if not self.template:
            return []
        lo = min(self.template)
        kmax = max(0, (window - 1 - lo) // self.step)
        return list(range(kmax + 1))


class VectorGenerator:
    def __init__(self, coords):
        self.coords = _naturals(coords, "vector")

    def window(self, window):
        return [self.coords.get(i, 0) for i in range(window)]


class SigmaSpanOracle:
    """Window-restricted membership in the one-step sigma-span of the
    generators: a candidate is accepted only with a verified certificate, a
    finite combination of vectors and pattern members."""

    def __init__(self, generators, window):
        self.generators = list(generators)
        self.window = window
        self.columns = []   # (description, window vector)
        for gi, g in enumerate(self.generators):
            if isinstance(g, VectorGenerator):
                self.columns.append((("vector", gi), g.window(window)))
            elif isinstance(g, PatternGenerator):
                for k in g.members_touching(window):
                    vec = [0] * window
                    for n, c in g.member(k).items():
                        if n < window:
                            vec[n] += c
                    self.columns.append((("member", gi, k), vec))
            else:
                raise ClosureError("unknown generator %r" % (g,))

    @cached_property
    def _factored(self):
        """The columns factored on the first decide, after any trimming of
        `columns` (see `idempotence_check`)."""
        return _factor([vec for _, vec in self.columns], self.window)

    def decide(self, candidate):
        """candidate: dict or list of window coordinates.  Returns
        ('accepted', certificate) or ('rejected', None)."""
        if isinstance(candidate, dict):
            candidate = [candidate.get(i, 0) for i in range(self.window)]
        target = (list(candidate) + [0] * self.window)[: self.window]
        coeffs = _combination([vec for _, vec in self.columns], self._factored, target)
        if coeffs is None:
            return ("rejected", None)
        cert = [
            (desc, c) for (desc, _), c in zip(self.columns, coeffs) if c != 0
        ]
        return ("accepted", cert)


def default_battery(generators, window):
    """Candidate vectors derived from the generators: their columns,
    pairwise combinations of nearby columns, and a few off-span probes."""
    battery = []
    oracle_cols = SigmaSpanOracle(generators, window).columns
    for _, vec in oracle_cols:
        battery.append(list(vec))
    for i in range(len(oracle_cols)):
        for j in range(i + 1, min(i + 3, len(oracle_cols))):
            battery.append([a + 2 * b for a, b in zip(oracle_cols[i][1], oracle_cols[j][1])])
    for probe in range(min(4, window)):
        v = [0] * window
        v[probe] = 1
        battery.append(v)
    return battery


def idempotence_check(generators, window, battery=None, weaken_first=0):
    """Two rounds of sigma-span; PASS iff the second round accepts nothing
    the first round did not.  A FAIL raises with the witness vector.

    `weaken_first` drops that many trailing columns from the first round's
    oracle; it is a fault-injection knob that exercises the abort path."""
    if battery is None:
        battery = default_battery(generators, window)
    first = SigmaSpanOracle(generators, window)
    if weaken_first:
        first.columns = first.columns[:-weaken_first]
    round1 = [first.decide(v) for v in battery]
    accepted = [
        v for v, (verdict, _) in zip(battery, round1) if verdict == "accepted"
    ]
    second_gens = list(generators) + [
        VectorGenerator({i: c for i, c in enumerate(v) if c != 0}) for v in accepted
    ]
    second = SigmaSpanOracle(second_gens, window)
    new = []
    for v, (verdict, _) in zip(battery, round1):
        v2, _ = second.decide(v)
        if v2 == "accepted" and verdict != "accepted":
            new.append(v)
    if new:
        raise IdempotenceFailure(
            {
                "generators": [type(g).__name__ for g in generators],
                "window": window,
                "new_vectors": [[str(c) for c in v] for v in new],
            }
        )
    return {
        "verdict": "PASS",
        "battery": len(battery),
        "accepted_round1": len(accepted),
    }


# -- the dense-but-sum-closed finite shadow ----------------------------------


def dense_sigma_closed_example(prefix_dim, window, phi=None, targets=(), families=()):
    """A labeled finite shadow of the dense sum-closed subspace: vectors
    f_v = (v, phi(v)) for v in k^prefix_dim, with density solves against the
    given first-projection targets and sum-closedness spot checks."""
    n = prefix_dim
    if phi is None:
        phi = [[(i + 1) ** (j + 1) for j in range(n)] for i in range(window)]
    if len(phi) != window or any(len(r) != n for r in phi):
        raise ClosureError("phi must be a window x prefix_dim matrix")
    if rank([list(col) for col in zip(*phi)]) < min(n, window):
        raise ClosureError("phi prefix is not injective")

    def f_of(v):
        img = [sum(phi[i][j] * v[j] for j in range(n)) for i in range(window)]
        return list(v) + img

    density = []
    for target in targets:
        # target: dict coordinate -> value on the phi-image coordinates
        cols = [[phi[i][j] for i in sorted(target)] for j in range(n)]
        goal = [target[i] for i in sorted(target)]
        sol = solve_combination(cols, goal)
        density.append(
            {"target": {str(k): str(x) for k, x in target.items()},
             "solved": sol is not None,
             "witness": [str(c) for c in sol] if sol is not None else None}
        )
    closed = []
    for fam in families:
        # fam: list of (weight, v-vector); the sum of f_v's must be f of the
        # weighted v-sum (linearity = sum-closedness at finite scale)
        total_v = [sum(w * v[j] for w, v in fam) for j in range(n)]
        lhs = [sum(w * x for (w, v), x in zip(fam, cols))
               for cols in zip(*[f_of(v) for _, v in fam])]
        closed.append(lhs == f_of(total_v))
    return {
        "label": "finite shadow of an uncountable construction",
        "prefix_dim": n,
        "window": window,
        "density": density,
        "sigma_closed_spot_checks": closed,
    }
