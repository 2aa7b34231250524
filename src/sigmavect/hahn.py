"""Hahn-series arithmetic on grid-certified supports, in integer coordinates.

Supports admitted to arithmetic are finite unions of finite sets and grids
{b + k1*g1 + ... + km*gm} with every generator strictly above the unit.  That
makes the convolution decomposition sets finite and computable (bounded
lattice-point enumeration) and gives the summability bound behind Neumann
summation: any element has only finitely many representations as a sum of n
support elements, with n bounded by a positive weight functional.

Every series here is kept on an integer frame (`_Frame` says how).  A
finite series keys its terms by frame ints (`series.FiniteSeries`), so two
finite series multiply term by term with their keys added as ints, on the
lcm of their scales.  Every lazy series built here (a product, a quotient,
a Neumann sum) is a `_Framed` series: it fixes one frame for the parts it
reads (`_parts`), and its oracle takes that frame's coordinates.

There is one product rule, and one candidate reader, `_pairs`, serves it
for products and quotients alike.  The coefficient at gamma of f*g sums
f(alpha) g(gamma - alpha) over its candidates: the points of f's
listed parts (finite series, finite atoms and counted progressions), the
same for every gamma, and, for f's grids, gamma minus each point of g's
listed parts and the lattice solutions of each grid x grid pair.  Every
decomposition gamma = alpha + beta is a candidate, and at any other
candidate one factor reads zero, so no alpha needs a membership test.  A
factor with no grid (a finite series, say) is taken as f, so that every
candidate is fixed: a stencil.  A finite f is its table, read once; any
other f is read at a fixed alpha once, where g is first nonzero, and at
the other candidates before g, so a caller's oracle (`Space.lazy`, a
family sum) is called only where the sum over the decompositions reads
it.  The product's certificate is the product set of its factors'
certificates (`DescribedSet.minkowski`, which drops a repeated atom by its
structure, formatting nothing, and whose atoms moved to each point of a
finite factor share one `Lattice`), and a shift is a product with a
monomial.

A quotient g/f of a finite numerator g by a unit f is the fixed point of
f*h = g on f itself, and an inverse is the quotient 1/f: read at x^g0 *
delta, with c * x^g0 the leading term of f, the equation gives h(delta)
as c^-1 times (g(x^g0 * delta) minus the other terms f(alpha) h(beta))
over the same candidates.  A finite factor times a quotient, either way
round, is the quotient of its product with the numerator by the same
unit, on the product's certificate, so g * f^-1, g / f and a shift of
f^-1 each fill one memo.  The fill is exact in increasing order:

- every beta = x^g0 * delta / alpha with alpha > x^g0 lies below delta
  (a candidate alpha below x^g0 reads zero, as `leading_term` has
  checked);
- h = g * f^-1 is zero off Supp(g) times the grid of f^-1, which the
  certificate holds;
- so a walk in increasing order finds each beta in the memo or off the
  certificate, where h is zero.

One body gives those terms to two walks, which fill the quotient's memo,
so each coefficient costs its candidates once and no Python recursion is
used.  The fill (`_Quotient.fill`) takes the certificate's points up to
a bound, which `truncate` lists, in increasing order.  Random access
(`coeff`) walks an explicit stack down from delta, asking each
certificate atom (the grid of f^-1 moved to each point of a finite set
that holds Supp(g)) whether beta is one of its points, on the atom's own
frame (`contains_at`); it serves any grid, also one whose points below a
bound cannot be listed.  `neumann_sum` keeps the literal weighted sum of
powers, each read on the frame of its grid, which the grid tests.

`truncate` has one path for every series.  It lists the certificate's
points up to the bound on the series' frame, or on a frame of its parts
for a finite or a caller's series (a grid lists its own, on its frame,
through `frame_points_upto`, in closed form in one variable), has a
quotient fill them, and reads each point through `_Frame.reader`: a
product, a Neumann sum or any other series reads point by point, in
increasing order, and a quotient reads its memo.  The nonzero terms are
kept, on a framed universe keyed by those frame coordinates, and no
monomial is decoded.  Every coefficient is one `Field.dot` of its pairs,
normalized once.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from operator import add, sub

from .gridsolve import Lattice, scaled, unscaled, weight
from .sets import DescribedSet, FiniteAtom, GridAtom, _ArithmeticAtom, _distinct_atoms, _moved
from .series import FiniteSeries, LazySeries, SeriesError
from .universe import UniverseError


class HahnError(SeriesError):
    pass


def _listed(part):
    """True for a part of a frame read by its points (a finite series, whose
    points are its table's keys, a finite atom or a counted progression);
    any other part, a grid atom, is read by its origin and steps."""
    return isinstance(part, (FiniteSeries, FiniteAtom)) or part.count is not None


def _part_scale(u, part):
    """The least scale whose frame holds a part's points: a finite series'
    own scale, a finite atom's lcm of its elements' denominators, an
    arithmetic atom's of its origin's and steps'."""
    if isinstance(part, FiniteSeries):
        return part.scale
    if isinstance(part, FiniteAtom):
        return lcm(*map(u.denominator, part.els))
    return lcm(u.denominator(part.origin), *map(u.denominator, part.steps))


class _Frame:
    """The integer coordinates shared by the parts of one series: the atoms
    (finite sets, counted progressions and grids) of its factors'
    certificates, and its finite factors, whose table keys are their
    points.  A monomial encodes to an int vector (None off the frame, where
    no sum of part points lies), its exponent vector times `scale`, the lcm
    of the parts' scales (`_part_scale`: the denominators of their finite
    elements, grid bases and generators, or a finite factor's own scale).
    So each part point has int coordinates, and nothing a finite factor
    holds is decoded or encoded again: on a framed universe its keys are
    the keys a finite series has on the frame's scale.  A grid atom keeps
    its own frame (`sets._ArithmeticAtom.frame`), which lists and tests its
    points; `onto` moves a point of this frame onto it."""

    def __init__(self, u, parts):
        self.u = u
        self.scale = lcm(*(_part_scale(u, p) for p in parts))

    def encode(self, el):
        return scaled(self.u.vectorize(el), self.scale)

    def decode(self, t):
        return self.u.devectorize(unscaled(t, self.scale))

    def listed(self, parts):
        """The frame coordinates of the points of the `_listed` parts among
        `parts`, as the keys of a new dict whose values are all None: a
        finite series' table keys on this frame, the elements of a listed
        atom encoded."""
        out = {}
        for p in parts:
            if isinstance(p, FiniteSeries):
                out.update(dict.fromkeys(self.table(p)))
            elif _listed(p):
                out.update(dict.fromkeys(map(self.encode, p.elements())))
        return out

    def table(self, f):
        """The finite series f's table on this frame's coordinates; f's
        terms lie on the frame."""
        if self.u.framed:
            return f.on_scale(self.scale)
        return {self.encode(g): c for g, c in f.table.items()}

    def series(self, space, items):
        """The finite series of (frame coordinates, field value) pairs."""
        if self.u.framed:
            return FiniteSeries._derived(space, self.scale, items)
        # decode checks the monomial through `devectorize`
        return FiniteSeries._derived(space, 1, ((self.decode(t), c) for t, c in items))

    def reader(self, f):
        """f's coefficient as a function of this frame's coordinates, for a
        series f whose support lies on the frame; zero off f's certificate.
        A finite f is one table; a `_Framed` f is read on its own frame, in
        ints (off that frame it is zero, and off its certificate by
        construction); any other at the decoded monomial, which is checked
        by decoding, and a point off the universe reads zero."""
        zero = f.field.zero
        if isinstance(f, FiniteSeries):
            table = self.table(f)
            return lambda t: table.get(t, zero)
        if not isinstance(f, _Framed):
            decode, read_el = self.decode, f._read

            def read(t):
                try:
                    gamma = decode(t)
                except UniverseError:
                    return zero
                return read_el(gamma)

            return read
        at, own = f.at, f.frame.scale
        if own == self.scale:
            return at
        onto = self.onto
        # at reads None, off f's frame, as zero
        return lambda t: at(onto(t, own))

    def onto(self, t, own):
        """Frame coordinates t on the scale `own` (t * own / scale, as
        ints), or None where t leaves that scale's frame."""
        scale, out = self.scale, []
        for c in t:
            q, r = divmod(c * own, scale)
            if r:
                return None
            out.append(q)
        return tuple(out)

    def points_upto(self, parts, vec):
        """The points of `parts` (on this frame) that are <= the exponent
        vector vec, as sorted frame coordinates, or None when a grid's walk
        abstains.  vec is compared exactly, off the frame too.  A grid lists
        its points on its own `frame` (`frame_points_upto`), whose `Lattice`
        (shared by atoms of the same steps, `sets._moved`) caches its Apery
        table, and they are scaled onto this frame, which holds them."""
        scale = self.scale
        top = tuple([c * scale for c in vec])
        out = {t for t in self.listed(parts) if t <= top}
        for atom in parts:
            if _listed(atom):
                continue
            own, pts = atom.frame[0].scale, atom.frame_points_upto(vec)
            if pts is None:
                return None
            out.update(pts if own == scale else (tuple([c * scale // own for c in t]) for t in pts))
        return sorted(out)


class _Framed(LazySeries):
    """A lazy series kept on a `frame` (a product, a Neumann sum or a
    quotient): its oracle takes the frame's int coordinates, is memoized by
    int tuple and is zero off the certificate by construction, so `coeff`
    is one check, one encoding and `at`, the read at coordinates."""

    def __init__(self, space, oracle, certificate, frame):
        super().__init__(space, oracle, certificate)
        self.frame = frame

    def _read(self, gamma):
        return self.at(self.frame.encode(gamma))

    def at(self, t):
        """The coefficient at frame coordinates t, memoized by t; zero off
        the frame (t None)."""
        if t is None:
            return self.field.zero
        val = self._memo.get(t)
        if val is None:
            val = self._memo[t] = self._oracle(t)
        return val


def _grid_atoms(cert):
    """The certificate's atoms, once each is checked to be a finite set or
    an arithmetic atom that is counted or rises (a grid)."""
    for a in cert.atoms:
        if not isinstance(a, (FiniteAtom, _ArithmeticAtom)):
            raise HahnError("certificate atom %r is not grid-certified" % a)
        if not (_listed(a) or a.up):
            raise HahnError("decreasing support %r is not grid-certified" % a)
    return cert.atoms


def _check_monoid(f):
    if not f.universe.has_monoid:
        raise HahnError("Hahn arithmetic needs a monoid universe")


def _check_hahn(f):
    """The atoms of f's certificate checked by `_grid_atoms`; raises unless
    f is a series on a monoid with a grid-certified support."""
    _check_monoid(f)
    return _grid_atoms(f.certificate)


def _parts(f):
    """f's parts of a frame (`_Frame`), once f is checked as by
    `_check_hahn`: a finite series is its own part, whose points are its
    table's keys (its certificate, one finite atom, needs no check), and
    any other series gives its certificate's atoms."""
    if isinstance(f, FiniteSeries):
        _check_monoid(f)
        return (f,)
    return _check_hahn(f)


def _pairs(frame, f, f_parts, g_parts, scalar=None, skip=None):
    """The pairs function for f's side of gamma = alpha + beta, alpha in
    f_parts and beta in g_parts (parts of the frame, `_parts`), in frame
    coordinates: pairs(gamma, other) gives every (scalar * f(alpha),
    other(beta)) where both are nonzero (scalar 1 when None), over the
    candidate alphas other than `skip`: the points of f's `_listed` parts
    (`_Frame.listed`), fixed for every gamma (the stencil), and, for f's
    grids, gamma minus each point of g's listed parts and the lattice
    solutions of each grid x grid pair.  Every decomposition is a
    candidate, each alpha once; at any other, f or g is zero (`reader`).
    Lattices are built once, here, not per coefficient.

    A finite f is its table on the frame, read once.  Any other f is read
    at a fixed alpha once, the first time other is nonzero at its beta,
    and again next time if it raises; other is called at every fixed alpha
    read so far, in the order read, before the unread ones, and at any
    other candidate only where f is nonzero, so a caller's oracle is read
    only where a decomposition needs it."""
    fixed = frame.listed(f_parts)
    fixed.pop(skip, None)
    if isinstance(f, FiniteSeries):
        table = frame.table(f)
        items = [(a, table[a] if scalar is None else scalar * table[a]) for a in fixed]

        def stencil(gamma, other):
            return [(c, v) for a, c in items if (v := other(tuple(map(sub, gamma, a))))]
    else:
        read = frame.reader(f)
        seen, unread = [], dict(fixed)

        def stencil(gamma, other):
            out = [(c, v) for c, a in seen if (v := other(tuple(map(sub, gamma, a)))) and c]
            for a in list(unread) if unread else ():
                v = other(tuple(map(sub, gamma, a)))
                if v:
                    c = read(a)
                    if scalar is not None:
                        c = scalar * c
                    del unread[a]
                    seen.append((c, a))
                    if c:
                        out.append((c, v))
            return out

    # a finite f has no grid
    grids_f = [a for a in f_parts if not _listed(a)]
    if not grids_f:
        return stencil
    listed_g = frame.listed(g_parts)
    solvers = []
    for af in grids_f:
        for ag in g_parts:
            if not _listed(ag):
                # grid x grid: solve sum(ki gi) + sum(lj hj) = gamma - bf - bg
                gens = [frame.encode(s) for s in af.steps + ag.steps]
                lattice = Lattice.on_frame(gens, frame.scale)
                bf = frame.encode(af.origin)
                base = tuple(map(add, bf, frame.encode(ag.origin)))
                solvers.append((lattice, gens[: len(af.steps)], bf, base))
    done = {*fixed, skip}

    def pairs(gamma, other):
        out = stencil(gamma, other)
        alphas = {tuple(map(sub, gamma, b)) for b in listed_g}
        for lattice, gens_f, bf, base in solvers:
            for sol in lattice.solutions(tuple(map(sub, gamma, base))):
                a = bf
                for k, g in zip(sol, gens_f):
                    if k:
                        a = tuple(x + k * y for x, y in zip(a, g))
                alphas.add(a)
        for a in alphas - done:
            c = read(a)
            if c and (v := other(tuple(map(sub, gamma, a)))):
                out.append((c if scalar is None else scalar * c, v))
        return out

    return pairs


def cauchy_product(f, g, space=None):
    """Convolution.  Two finite series multiply term by term on one scale,
    their frame keys adding as ints.  Otherwise the coefficient at gamma
    is one `Field.dot` of the pairs f(alpha), g(gamma - alpha) of `_pairs`,
    with a factor that has no grid, when there is one, as f, so that every
    candidate is fixed.  f is read at a fixed alpha once, where g is first
    nonzero (a finite f is its table), and at the other candidates before
    g, which is then read only where f is nonzero: a caller's oracle is
    called only where the sum over the decompositions reads it.  A
    product is read point by point, by `coeff` or `truncate` alike.

    A finite factor times a quotient n/d (`invert_unit` is 1/d), either
    way round, is instead the quotient of its product with n by d, on this
    product's certificate, so it fills one memo in one sweep.  A product of
    two quotients, or of a lazy factor and a quotient, is a product.

    The optional space overrides the output's (used by module actions, where
    the two factors live in different spaces); it picks the space, not the
    rule."""
    finite = isinstance(f, FiniteSeries) and isinstance(g, FiniteSeries)
    if finite:
        # a finite series' certificate is one finite atom, which needs no check
        _check_monoid(f)
        _check_monoid(g)
    else:
        f_parts, g_parts = _parts(f), _parts(g)
    if f.universe != g.universe or f.field != g.field:
        raise HahnError("product across different universes or fields")
    u, field = f.universe, f.field
    out = space if space is not None else f.space
    if out.universe != u or out.field != field:
        raise HahnError("product space has another universe or field")
    if finite:
        return _finite_product(out, f, g)
    cert = f.certificate.minkowski(g.certificate)
    q = g if isinstance(f, FiniteSeries) else f if isinstance(g, FiniteSeries) else None
    if isinstance(q, _Quotient):
        # a finite factor times n/d is (its product with n)/d, on this
        # product's certificate
        n = q.numerator
        if n is None:  # q is 1/d
            num = f if q is g else g
        else:
            num = _finite_product(out, f, n) if q is g else _finite_product(out, n, g)
        return _Quotient(out, num, q.unit, q.data, cert)
    frame = _Frame(u, f_parts + g_parts)
    if all(map(_listed, g_parts)) and not all(map(_listed, f_parts)):
        f, g, f_parts, g_parts = g, f, g_parts, f_parts
    pairs, read_g = _pairs(frame, f, f_parts, g_parts), frame.reader(g)
    return _Framed(out, lambda t: field.dot(pairs(t, read_g)), cert, frame)


def _finite_product(space, f, g):
    """The finite series f*g in space, term by term on one scale, the frame
    keys adding as ints; f and g are checked by `cauchy_product`."""
    u, field = space.universe, space.field
    scale = lcm(f.scale, g.scale)
    key_sum = (lambda a, b: tuple(map(add, a, b))) if u.framed else u.op
    g_terms = g.on_scale(scale).items()
    acc = {}
    for a, ca in f.on_scale(scale).items():
        for b, cb in g_terms:
            acc.setdefault(key_sum(a, b), []).append((ca, cb))
    return FiniteSeries._derived(space, scale, ((k, field.dot(p)) for k, p in acc.items()))


def leading_term(f, window=32):
    """(least support monomial, coefficient), or None when the first `window`
    certificate elements all carry zero (the 'zero-to-window' verdict)."""
    _parts(f)
    return next(f.window_terms(window), None)


def _power_grid(u, atoms):
    """The certificate for the powers of a series eps whose certificate
    atoms, checked by `_grid_atoms`, are `atoms`: the grid on the unit that
    their finite elements, grid bases and grid generators generate, which
    holds every eps^n, or None when there are none.  Raises unless each of
    them lies above the unit, that is, unless Supp(eps) > 1.
    """
    uk = u.key(u.unit)
    gens = {}
    for a in atoms:
        finite = _listed(a)
        for e in a.elements() if finite else [a.origin]:
            if not u.key(e) > uk:
                raise HahnError(
                    "%s %s is not above the unit"
                    % ("certificate element" if finite else "grid base", u.format(e))
                )
            gens[e] = None
        if not finite:
            gens.update(dict.fromkeys(a.steps))
    # checked elements above the unit: a grid that needs no check
    return DescribedSet(u, [GridAtom._derived(u, u.unit, gens)]) if gens else None


def neumann_sum(eps, coeffs=None):
    """Sum over n of coeffs(n) * eps^n, defined whenever Supp(eps) > 1, on
    the frame of the grid of its powers (`_power_grid`).

    Each monomial gamma receives contributions from only finitely many n: a
    positive weight functional gives every support element weight >= m0 > 0,
    so eps^n cannot reach gamma once n * m0 exceeds the weight of gamma.
    The weights are those of the grid's `Lattice`, on frame ints.
    """
    u, field = eps.universe, eps.field
    if coeffs is None:
        coeffs = lambda n: field.one
    cert = _power_grid(u, _check_hahn(eps))
    if cert is None:
        return eps.space.delta(u.unit, coeffs(0))
    grid, = cert.atoms
    frame = _Frame(u, [grid])  # on the grid's own scale, where `contains_at` reads
    lattice = grid.frame[0]
    wts, m0 = lattice.wts, min(lattice.gw)
    last = eps.space.delta(u.unit)
    readers = [frame.reader(last)]

    def power(n, t):
        nonlocal last
        while len(readers) <= n:
            last = cauchy_product(last, eps)
            readers.append(frame.reader(last))
        return readers[n](t)

    def oracle(t):
        if not grid.contains_at(t):
            return field.zero
        nmax = weight(wts, t) // m0
        return field.dot([(field.of(coeffs(n)), power(n, t)) for n in range(nmax + 1)])

    return _Framed(eps.space, oracle, cert, frame)


def _positive_part_atoms(u, cert):
    """Atoms covering cert's elements that are strictly above the unit, each
    certifying positivity on its own.  Elements <= unit are dropped; they are
    only sound to drop when the caller has verified their coefficients are
    zero (`invert_unit` has, through `leading_term`)."""
    uk = u.key(u.unit)
    out = []
    for a in _grid_atoms(cert):
        if _listed(a):
            keep = [e for e in a.elements() if u.key(e) > uk]
            if keep:
                out.append(FiniteAtom._derived(u, keep))
        elif u.key(a.origin) > uk:
            out.append(a)
        else:
            low = DescribedSet(u, [a]).elements_upto(u.unit)
            if low is None:
                raise HahnError(
                    "cannot split certificate atom %s at the unit" % a.format()
                )
            moved = [q for p in low for g in a.steps if u.key(q := u.op(p, g)) > uk]
            out.extend(_moved(a, moved, GridAtom))
    return _distinct_atoms(out)


def monomial_shift(f, shift, scalar=1):
    """scalar * x^shift * f, the product with that monomial."""
    return cauchy_product(f.space.delta(shift, scalar), f)


def invert_unit(f, window=32):
    """Multiplicative inverse of f, whose leading term c * x^g0 lies in the
    first `window` certificate positions: the quotient 1/f (`_Quotient`),
    on the grid on x^-g0 that x^-g0 * Supp(f) minus the unit generates.
    f's parts, its leading exponent g0 and c^-1 are found once, here, and a
    product with a finite factor hands them on (`cauchy_product`).  A
    monomial f gives the finite series c^-1 x^-g0.
    """
    parts = _parts(f)
    u, field = f.universe, f.field
    if not u.is_group:
        raise HahnError("inversion needs a group universe")
    lt = leading_term(f, window)
    if lt is None:
        raise HahnError("zero to window %d; cannot invert" % window)
    g0, c = lt
    cinv, ginv = field.one / c, u.inv(g0)
    point = DescribedSet.finite(u, [ginv])
    if isinstance(f, FiniteSeries):
        # listed in the order of f.terms, which fixes the grid generators' order
        above = [FiniteAtom._derived(u, [u.op(ginv, g) for g in f.terms if g != g0])]
    else:
        above = _positive_part_atoms(u, f.certificate.minkowski(point))
    cert = _power_grid(u, above)
    if cert is None:
        return f.space.delta(ginv, cinv)
    return _Quotient(f.space, None, f, (parts, g0, cinv), cert.minkowski(point))


class _Quotient(_Framed):
    """The quotient h = n/d of the finite `numerator` n (1 when None) by
    the `unit` d, on a certificate that holds Supp(n) times the grid of
    1/d: the fixed point of d*h = n.  `data` are d's parts, its leading
    exponent g0 and c^-1, c its leading coefficient (`invert_unit`).  Read
    at x^g0 * delta,

        h(delta) = c^-1 * (n(x^g0 * delta) - sum of d(alpha) h(beta))

    over the candidates alpha != x^g0 of `_pairs` for d's parts and the
    certificate's atoms, beta = x^g0 * delta / alpha; a point alpha below
    x^g0 carries zero (`leading_term` has checked).  Its readers (`_pairs`,
    n's table on the frame, the certificate atoms' `contains_at`) are built
    on first use, so a quotient that only feeds a product builds none.

    Two walks fill the memo by those pairs (see the module docstring):
    `fill(pts)` at the sorted points that `truncate` lists, in increasing
    order, and random access (`at`, under `coeff` and `window_terms`) by an
    explicit stack from delta down, which fills the missing betas on the
    certificate first."""

    def __init__(self, space, numerator, unit, data, cert):
        parts = data[0]
        frame = _Frame(space.universe, [*parts, *cert.atoms] if numerator is None
                       else [*parts, numerator, *cert.atoms])
        # the walks fill the memo themselves, so there is no oracle
        super().__init__(space, None, cert, frame)
        self.numerator, self.unit, self.data = numerator, unit, data

    @cached_property
    def _equation(self):
        """(lead, pairs, solve): x^g0 on the frame; the pairs (-c^-1 *
        d(alpha), other(beta)) of the equation at delta, which are
        pairs(delta + lead, other); and solve(up, terms), h(delta) from
        those pairs at up = delta + lead."""
        parts, g0, cinv = self.data
        frame, field, n = self.frame, self.field, self.numerator
        lead = frame.encode(g0)
        pairs = _pairs(frame, self.unit, parts, self.certificate.atoms, -cinv, lead)
        table = {frame.encode(self.universe.unit): field.one} if n is None else frame.table(n)
        dot = field.dot

        def solve(up, terms):
            v = table.get(up)
            if v:
                terms.append((cinv, v))
            return dot(terms)

        return lead, pairs, solve

    @cached_property
    def _in_cert(self):
        """Membership in the certificate, a test on frame coordinates that
        gives the point itself or None: each atom's `contains_at`, on the
        atom's own frame (`_Frame.onto`)."""
        onto = self.frame.onto
        tests = [(a.contains_at, a.frame[0].scale) for a in self.certificate.atoms]
        return lambda b: b if any(test(onto(b, own)) for test, own in tests) else None

    def at(self, t):
        """h at frame coordinates t, memoized by t: zero off the frame (t
        None) and off the certificate; otherwise an explicit stack from t
        down fills the memo, each point once everything below it is."""
        if t is None:
            return self.field.zero
        values = self._memo
        val = values.get(t)
        if val is not None:
            return val
        in_cert = self._in_cert
        if not in_cert(t):
            val = values[t] = self.field.zero
            return val
        lead, pairs, solve = self._equation
        stack = [(t, None, None)]
        while stack:
            top, up, terms = stack.pop()
            if top in values:
                continue
            if terms is None:
                # the pairs' betas, off the certificate dropped
                up = tuple(map(add, top, lead))
                terms = pairs(up, in_cert)
                missing = [b for _, b in terms if b not in values]
                if missing:
                    # revisit top once everything below it is filled
                    stack.append((top, up, terms))
                    stack.extend((b, None, None) for b in missing)
                    continue
            values[top] = solve(up, [(c, values[b]) for c, b in terms])
        return values[t]

    def fill(self, pts):
        """Fill the memo at the sorted frame coordinates pts, the points of
        the certificate up to a bound, in increasing order."""
        if pts:
            lead, pairs, solve = self._equation
            values = self._memo
            get = values.get
            for t in pts:
                if t not in values:
                    up = tuple(map(add, t, lead))
                    values[t] = solve(up, pairs(up, get))


def truncate(f, bound):
    """Finite series equal to f on monomials <= bound, its terms in
    increasing order: the points of f's certificate up to the bound
    (`_Frame.points_upto`; a finite series' table keys), on a `_Framed`
    f's frame or, for a finite or a caller's series, on a frame of its
    parts, each read through `_Frame.reader`.  A quotient first fills its
    memo at those points in increasing order (`_Quotient.fill`).  The
    nonzero terms are kept on that frame (`_Frame.series`)."""
    parts = _parts(f)
    frame = f.frame if isinstance(f, _Framed) else _Frame(f.universe, parts)
    pts = frame.points_upto(parts, f.universe.vectorize(bound))
    if pts is None:
        raise HahnError(
            "certificate %s cannot be enumerated up to %s"
            % (f.certificate.format(), f.universe.format(bound))
        )
    if isinstance(f, _Quotient):
        f.fill(pts)
    read = frame.reader(f)
    return frame.series(f.space, [(t, c) for t in pts if (c := read(t))])
