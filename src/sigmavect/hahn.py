"""Hahn-series arithmetic on grid-certified supports, in integer coordinates.

Supports admitted to arithmetic are finite unions of finite sets and grids
{b + k1*g1 + ... + km*gm} with every generator strictly above the unit.  That
makes the convolution decomposition sets finite and computable (bounded
lattice-point enumeration) and gives the summability bound behind Neumann
summation: any element has only finitely many representations as a sum of n
support elements, with n bounded by a positive weight functional.

Every series here is kept on an integer frame.  A finite series keys its
terms by frame ints (`series.FiniteSeries`), so two finite series multiply
term by term with their keys added as ints, on the lcm of their scales.
Every lazy series built here (a product, a quotient, a Neumann sum) fixes
one frame (`series._Frame`) for the parts it reads (`_parts`): a finite
factor itself, whose points are its table's keys on its own scale, and the
atoms of any other factor's certificate, with the denominators of their
finite elements, grid bases and generators.  The frame's scale is the lcm
of those scales, so each of those points has int coordinates, and nothing
a finite factor holds is decoded or encoded again.  The series keeps the
frame, and its oracle takes frame coordinates and is memoized by int
tuple, so a coefficient lookup checks and encodes its monomial once.  A
factor is read on the frame by one rule (`_Frame.reader`), which is zero
off the factor's certificate: a finite series through its table on the
frame's scale, a framed series in ints, and a caller's frameless series at
the decoded monomial, with a point off the universe read as zero.

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
used.  The fill (`Series._fill`) takes the certificate's points up to a
bound, which `truncate` lists, in increasing order.  Random access
(`coeff`) walks an explicit stack down from delta, testing each beta for
membership in a certificate atom (the grid of f^-1 moved to each point
of a finite set that holds Supp(g)); it serves any grid, also one whose
points below a bound cannot be listed.  `neumann_sum` keeps the literal
weighted sum of powers, each read on the frame of its grid.

`truncate` has one path for every series.  It lists the certificate's
points up to the bound on the series' frame, or on a frame of its parts
for a finite or a caller's series (a grid through
`gridsolve.grid_points_upto`, in closed form in one variable), has a
quotient fill them, and reads each point through `_Frame.reader`: a
product, a Neumann sum or any other series reads point by point, in
increasing order, and a quotient reads its memo.  The nonzero terms are
kept, on a framed universe keyed by those frame coordinates, and no
monomial is decoded.  Every coefficient is one `Field.dot` of its pairs,
normalized once.
"""

from __future__ import annotations

from math import lcm
from operator import add, sub

from .gridsolve import Lattice, weight
from .sets import DescribedSet, FiniteAtom, GridAtom, _ArithmeticAtom, _distinct_atoms, _moved
from .series import FiniteSeries, LazySeries, SeriesError, _Frame, _listed


class HahnError(SeriesError):
    pass


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
    if q is not None and q._quotient is not None:
        # a finite factor times n/d is (its product with n)/d, on this
        # product's certificate
        n, d, data = q._quotient
        if n is None:  # q is 1/d
            num = f if q is g else g
        else:
            num = _finite_product(out, f, n) if q is g else _finite_product(out, n, g)
        return _quotient(out, num, d, data, cert)
    frame = _Frame(u, f_parts + g_parts)
    if all(map(_listed, g_parts)) and not all(map(_listed, f_parts)):
        f, g, f_parts, g_parts = g, f, g_parts, f_parts
    pairs, read_g = _pairs(frame, f, f_parts, g_parts), frame.reader(g)
    return LazySeries(out, lambda t: field.dot(pairs(t, read_g)), cert, frame)


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


def product_many(series):
    out = None
    for f in series:
        out = f if out is None else cauchy_product(out, f)
    if out is None:
        raise HahnError("empty product needs an explicit space")
    return out


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
    frame = _Frame(u, [grid])
    lattice = grid.frame[0]  # on the unit, so a point is its own offset
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
        if not lattice.contains(t):
            return field.zero
        nmax = weight(wts, t) // m0
        return field.dot([(field.of(coeffs(n)), power(n, t)) for n in range(nmax + 1)])

    return LazySeries(eps.space, oracle, cert, frame)


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
    first `window` certificate positions: the quotient 1/f (`_quotient`),
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
    return _quotient(f.space, None, f, (parts, g0, cinv), cert.minkowski(point))


def _quotient(space, numerator, unit, data, cert):
    """The quotient h = n/d of the finite numerator n (1 when None) by the
    unit d, on the certificate cert, which holds Supp(n) times the grid of
    1/d: the fixed point of d*h = n.  `data` are d's parts, its leading
    exponent g0 and c^-1, c its leading coefficient (`invert_unit`).  Read
    at x^g0 * delta,

        h(delta) = c^-1 * (n(x^g0 * delta) - sum of d(alpha) h(beta))

    over the candidates alpha != x^g0 of `_pairs` for d's parts and cert's
    atoms, beta = x^g0 * delta / alpha; a point alpha below x^g0 carries
    zero (`leading_term` has checked).  Its readers (`_pairs`, n's table
    on the frame, the certificate's membership tests) are built on the
    first read or non-empty fill, so a quotient that only feeds a product
    builds none.

    Two walks fill the series' memo by those pairs (see the module
    docstring): `fill(pts)` (`Series._fill`) at the sorted points that
    `truncate` lists, in increasing order, and random access (`coeff`,
    `window_terms`) by an explicit stack from delta down, which fills the
    missing betas on the certificate first."""
    parts, g0, cinv = data
    atoms, field = cert.atoms, space.field
    frame = _Frame(space.universe, [*parts, *atoms] if numerator is None
                   else [*parts, numerator, *atoms])
    lead = pairs = table = in_cert = None

    def ready():
        nonlocal lead, pairs, table
        if pairs is None:
            lead = frame.encode(g0)
            # the pairs (-c^-1 * d(alpha), other(beta)) of the equation at
            # delta are pairs(delta + lead, other)
            pairs = _pairs(frame, unit, parts, atoms, -cinv, lead)
            if numerator is None:
                table = {frame.encode(space.universe.unit): field.one}
            else:
                table = frame.table(numerator)

    def solve(up, terms):
        """h(delta) from the pairs (-c^-1 * d(alpha), h(beta)) of its
        equation at up = delta + lead."""
        v = table.get(up)
        if v:
            terms.append((cinv, v))
        return field.dot(terms)

    def oracle(t):
        nonlocal in_cert
        if in_cert is None:
            tests = [frame.member(a) for a in atoms]
            in_cert = tests[0] if len(tests) == 1 else (
                lambda b: b if any(test(b) for test in tests) else None)
        if not in_cert(t):
            return field.zero
        ready()
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

    def fill(pts):
        if pts:
            ready()
            get = values.get
            for t in pts:
                if t not in values:
                    up = tuple(map(add, t, lead))
                    values[t] = solve(up, pairs(up, get))

    h = LazySeries(space, oracle, cert, frame)
    h._fill = fill
    h._quotient = (numerator, unit, data)
    values = h._memo  # the fixed point fills the series' own memo
    return h


def truncate(f, bound):
    """Finite series equal to f on monomials <= bound, its terms in
    increasing order: the points of f's certificate up to the bound
    (`_Frame.points_upto`; a finite series' table keys), on f's frame or,
    for a finite or a caller's series, on a frame of its parts, each read
    through `_Frame.reader`.  A quotient first fills its memo at those
    points in increasing order (`Series._fill`).  The nonzero terms are
    kept on that frame (`_Frame.series`)."""
    parts = _parts(f)
    frame = f.frame or _Frame(f.universe, parts)
    pts = frame.points_upto(parts, f.universe.vectorize(bound))
    if pts is None:
        raise HahnError(
            "certificate %s cannot be enumerated up to %s"
            % (f.certificate.format(), f.universe.format(bound))
        )
    if f._fill is not None:
        f._fill(pts)
    read = frame.reader(f)
    return frame.series(f.space, [(t, c) for t in pts if (c := read(t))])
