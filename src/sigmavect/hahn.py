"""Hahn-series arithmetic on grid-certified supports, in integer coordinates.

Supports admitted to arithmetic are finite unions of finite sets and grids
{b + k1*g1 + ... + km*gm} with every generator strictly above the unit.  That
makes the convolution decomposition sets finite and computable (bounded
lattice-point enumeration) and gives the summability bound behind Neumann
summation: any element has only finitely many representations as a sum of n
support elements, with n bounded by a positive weight functional.

A product or an inverse fixes one integer frame (`_Frame`) for every atom it
decomposes over: the lcm of the denominators of their finite elements, grid
bases and generators (`gridsolve.Lattice`), so each of those points has int
coordinates.  The series it builds keeps the frame, and its oracle takes
frame coordinates and is memoized by int tuple, so a coefficient lookup
checks and encodes its monomial once.  The decompositions gamma = alpha +
beta are then int vectors, found by one subtraction and one lattice
membership per finite element, or by listing the lattice points of a grid
x grid pair, on `Lattice`s built with the product, not per coefficient.
The pairs form a set, as a grid x grid target can have several
representations and atoms can overlap.  A factor is read at alpha by one
rule (`_Frame.reader`): a finite factor through one table keyed by frame
coordinates, a product or inverse on its own frame, in ints, and any other
series (a caller's `Space.lazy` oracle, a Neumann sum) through its monomial.
A finite factor is a stencil: times a framed factor g (a product or an
inverse, zero off its certificate by construction), the coefficient at
gamma is the sum over the finite factor's terms c * x^alpha of c times
g(gamma - alpha), with no decompositions and no membership test.  A
frameless factor is read through its monomial, and gamma - alpha can lie
outside its universe, where the reader raises, so a product with one keeps
the decompositions.
The product's certificate is the product set of its factors' certificates
(`DescribedSet.minkowski`), and a shift is a product with a monomial, so a
shifted framed series is a one-term stencil.  `truncate` of a framed series
runs in frame ints too: each certificate atom lists its points up to the
bound there (a grid through `gridsolve.grid_points_upto`, in closed form in
one variable), each point is read on the frame, and only the nonzero terms
are decoded to monomials.

Inversion is the fixed point of f*h = 1 on f itself: read at x^g0 * delta,
with c * x^g0 the leading term of f, the equation gives h(delta) as c^-1
times ([delta = x^-g0] minus the other terms f(alpha) h(beta)), each beta
strictly below delta.  For a finite f the betas are again a stencil, kept
where they lie in the inverse's grid.  The coefficients are filled
bottom-up from an explicit stack into the inverse's memo, keyed by frame
coordinates, so each costs its decompositions once, on any grid, and a
deep lookup uses no Python recursion.  `neumann_sum` keeps the literal
weighted sum of powers.  Every coefficient, of a product, an inverse or a
Neumann sum, is one `Field.dot` of its pairs, normalized once.
"""

from __future__ import annotations

from operator import add, sub

from .gridsolve import Lattice, grid_points_upto, positive_weights, weight
from .sets import DescribedSet, FiniteAtom, GridAtom, _ArithmeticAtom
from .series import FiniteSeries, LazySeries, SeriesError


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


def _listed(atom):
    """True for an atom of `_grid_atoms` read by its elements (a finite
    atom or a counted progression); any other is read by its origin and
    steps."""
    return isinstance(atom, FiniteAtom) or atom.count is not None


def _check_hahn(f):
    """The atoms of f's certificate checked by `_grid_atoms`; raises unless
    f is a series on a monoid with a grid-certified support."""
    if not f.universe.has_monoid:
        raise HahnError("Hahn arithmetic needs a monoid universe")
    return _grid_atoms(f.certificate)


def _atom_vectors(u, atom):
    """The vectors of an atom of `_grid_atoms`: its elements when
    `_listed`, else its origin and then its step vectors."""
    if _listed(atom):
        return [u.vectorize(e) for e in atom.elements()]
    return [u.vectorize(atom.origin)] + atom.vectors


class _Frame:
    """The integer coordinates shared by the atoms of one product or
    inverse: a monomial encodes to an int vector (None off the frame, where
    no sum of atom points lies).  The series built on the frame keeps it,
    and its oracle takes these coordinates."""

    def __init__(self, u, atoms):
        self.u = u
        self.points = [v for a in atoms for v in _atom_vectors(u, a)]
        self.lattice = Lattice((), self.points)

    def encode(self, el):
        return self.lattice.scaled(self.u.vectorize(el))

    def decode(self, t):
        return self.u.devectorize(self.lattice.unscaled(t))

    def reader(self, f):
        """f's coefficient as a function of this frame's coordinates, for a
        factor f whose support lies on the frame.  A finite f is one table;
        a series kept on a frame of its own is read there, in ints (off
        that frame it is zero); any other series through its monomial."""
        zero = f.field.zero
        if isinstance(f, FiniteSeries):
            table = {self.encode(g): c for g, c in f.terms.items()}
            return lambda t: table.get(t, zero)
        if f.frame is None:
            decode = self.decode
            return lambda t: f.coeff(decode(t))
        at, own, scale = f.at, f.frame.lattice.scale, self.lattice.scale
        if own == scale:
            return at

        def read(t):
            out = []
            for c in t:
                q, r = divmod(c * own, scale)
                if r:
                    return zero
                out.append(q)
            return at(tuple(out))

        return read

    def grid_lattice(self, generators):
        """The `Lattice` of generators (elements of the frame's atoms), on
        this frame."""
        return Lattice([self.u.vectorize(g) for g in generators], self.points)

    def points_upto(self, atoms, bound):
        """The points of `atoms` (of `_grid_atoms`, on this frame) that are
        <= bound, as sorted frame coordinates, or None when a grid's walk
        abstains (`grid_points_upto`).  The bound is compared exactly, off
        the frame too.  A grid walks on its own `frame`, whose `Lattice`
        caches its Apery table, and its points are scaled onto this frame:
        that scale divides this one, as the grid's points are sums of this
        frame's points."""
        vec, scale = self.u.vectorize(bound), self.lattice.scale
        top = tuple([c * scale for c in vec])
        out = set()
        for atom in atoms:
            if _listed(atom):
                out.update(t for t in map(self.encode, atom.elements()) if t <= top)
                continue
            lattice, origin = atom.frame
            pts = grid_points_upto(lattice.gens, origin,
                                   tuple([c * lattice.scale for c in vec]), lattice)
            if pts is None:
                return None
            m = scale // lattice.scale
            out.update(pts if m == 1 else (tuple([c * m for c in t]) for t in pts))
        return sorted(out)

    def member(self, atom):
        """Membership in one of the frame's atoms, as a test on frame
        coordinates."""
        if _listed(atom):
            return frozenset(self.encode(e) for e in atom.elements()).__contains__
        lattice = self.grid_lattice(atom.steps)
        base = self.encode(atom.origin)
        return lambda t: lattice.contains(tuple(a - b for a, b in zip(t, base)))


def _decompositions(frame, atom_f, atom_g):
    """The function taking gamma to the set of pairs (alpha, beta) with alpha
    in atom_f, beta in atom_g and alpha + beta = gamma, all in frame
    coordinates.  Lattices are built once, here, not per coefficient."""
    swap = not _listed(atom_f)
    if not swap or _listed(atom_g):
        if swap:
            atom_f, atom_g = atom_g, atom_f
        els = [frame.encode(e) for e in atom_f.elements()]
        member = frame.member(atom_g)

        def pairs(gamma):
            out = set()
            for a in els:
                b = tuple(x - y for x, y in zip(gamma, a))
                if member(b):
                    out.add((b, a) if swap else (a, b))
            return out

        return pairs
    # grid x grid: solve sum(ki gi) + sum(lj hj) = gamma - bf - bg
    lattice = frame.grid_lattice(atom_f.steps + atom_g.steps)
    gens_f = lattice.gens[: len(atom_f.steps)]
    bf = frame.encode(atom_f.origin)
    base = tuple(x + y for x, y in zip(bf, frame.encode(atom_g.origin)))

    def pairs(gamma):
        out = set()
        for sol in lattice.solutions(tuple(x - y for x, y in zip(gamma, base))):
            a = bf
            for k, g in zip(sol, gens_f):
                if k:
                    a = tuple(x + k * y for x, y in zip(a, g))
            out.add((a, tuple(x - y for x, y in zip(gamma, a))))
        return out

    return pairs


def cauchy_product(f, g, space=None):
    """Convolution: coefficient at gamma sums f(alpha) g(beta) over the finite
    set of decompositions gamma = alpha + beta inside the certificates.  A
    finite factor times a framed one is a stencil: gamma reads the framed
    factor at gamma - alpha for each term alpha of the finite one.

    The optional space overrides the output's (used by module actions, where
    the two factors live in different spaces)."""
    f_atoms = _check_hahn(f)
    g_atoms = _check_hahn(g)
    if f.universe != g.universe or f.field != g.field:
        raise HahnError("product across different universes or fields")
    u, field = f.universe, f.field
    out = space if space is not None else f.space
    if out.universe != u or out.field != field:
        raise HahnError("product space has another universe or field")
    if isinstance(f, FiniteSeries) and isinstance(g, FiniteSeries):
        acc = {}
        for a, ca in f.terms.items():
            for b, cb in g.terms.items():
                acc.setdefault(u.op(a, b), []).append((ca, cb))
        return FiniteSeries._derived(out, ((gam, field.dot(p)) for gam, p in acc.items()))
    cert = f.certificate.minkowski(g.certificate)
    frame = _Frame(u, f_atoms + g_atoms)
    finite, other = (f, g) if isinstance(f, FiniteSeries) else (g, f)
    if isinstance(finite, FiniteSeries) and other.frame is not None:
        # other is zero off its certificate, so off cert every read is zero
        read = frame.reader(other)
        stencil = [(c, frame.encode(a)) for a, c in finite.terms.items()]

        def oracle(t):
            return field.dot([(c, read(tuple(map(sub, t, a)))) for c, a in stencil])

        return LazySeries(out, oracle, cert, frame)
    # a frameless factor is read only at decompositions, inside its universe
    splits = [_decompositions(frame, af, ag) for af in f_atoms for ag in g_atoms]
    read_f, read_g = frame.reader(f), frame.reader(g)

    def oracle(t):
        # off cert, t has no decompositions and the sum is empty
        pairs = set()
        for split in splits:
            pairs |= split(t)
        return field.dot([(read_f(a), read_g(b)) for a, b in pairs])

    return LazySeries(out, oracle, cert, frame)


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
    _check_hahn(f)
    return next(f.window_terms(window), None)


def _power_grid(u, atoms):
    """(support vectors, certificate) for the powers of a series eps whose
    certificate atoms, checked by `_grid_atoms`, are `atoms`.

    The vectors are the finite elements, grid bases and grid generators of
    the atoms; the certificate is the grid on the unit that they generate,
    which holds every eps^n, or None when there are no vectors.  Raises
    unless every vector lies above the unit, that is, unless Supp(eps) > 1.
    """
    uk = u.key(u.unit)
    for a in atoms:
        finite = _listed(a)
        for e in a.elements() if finite else [a.origin]:
            if not u.key(e) > uk:
                raise HahnError(
                    "%s %s is not above the unit"
                    % ("certificate element" if finite else "grid base", u.format(e))
                )
    vecs = [tuple(v) for a in atoms for v in _atom_vectors(u, a)]
    if not vecs:
        return vecs, None
    gens = []
    for v in vecs:
        el = u.devectorize(v)
        if el not in gens:
            gens.append(el)
    return vecs, DescribedSet.grid(u, u.unit, gens)


def neumann_sum(eps, coeffs=None):
    """Sum over n of coeffs(n) * eps^n, defined whenever Supp(eps) > 1.

    Each monomial gamma receives contributions from only finitely many n: a
    positive weight functional gives every support element weight >= m0 > 0,
    so eps^n cannot reach gamma once n * m0 exceeds the weight of gamma.
    """
    u, field = eps.universe, eps.field
    if coeffs is None:
        coeffs = lambda n: field.one
    vecs, cert = _power_grid(u, _check_hahn(eps))
    if cert is None:
        return eps.space.delta(u.unit, coeffs(0))
    wts = positive_weights(vecs)
    m0 = min(weight(wts, v) for v in vecs)

    powers = [eps.space.delta(u.unit)]

    def power(n):
        while len(powers) <= n:
            powers.append(cauchy_product(powers[-1], eps))
        return powers[n]

    def oracle(gamma):
        w = weight(wts, tuple(u.vectorize(gamma)))
        nmax = w // m0 if w >= 0 else 0
        return field.dot([(field.of(coeffs(n)), power(n).coeff(gamma))
                          for n in range(nmax + 1)])

    return LazySeries(eps.space, oracle, cert)


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
                out.append(FiniteAtom(u, keep))
        elif u.key(a.origin) > uk:
            out.append(a)
        else:
            low = DescribedSet(u, [a]).elements_upto(u.unit)
            if low is None:
                raise HahnError(
                    "cannot split certificate atom %s at the unit" % a.format()
                )
            for p in low:
                for g in a.steps:
                    q = u.op(p, g)
                    if u.key(q) > uk:
                        out.append(GridAtom(u, q, a.steps))
    return list(dict.fromkeys(out))


def monomial_shift(f, shift, scalar=1):
    """scalar * x^shift * f, the product with that monomial."""
    return cauchy_product(f.space.delta(shift, scalar), f)


def invert_unit(f, window=32):
    """Multiplicative inverse of f, whose leading term c * x^g0 lies in the
    first `window` certificate positions: the fixed point h of f*h = 1, on
    the grid on x^-g0 that x^-g0 * Supp(f) minus the unit generates, where

        h(delta) = c^-1 * ([delta = x^-g0] - sum of f(alpha) h(beta))

    over alpha + beta = x^g0 * delta, alpha != x^g0 in f's atoms, beta in
    the grid.  A point alpha below x^g0 carries zero (`leading_term` has
    checked) and is skipped before its beta, which lies above delta, is
    pushed; every other beta lies below delta.  A finite f is a stencil:
    beta = x^g0 * delta / alpha for each of its terms alpha != x^g0, kept
    when it lies in the grid.
    """
    atoms = _check_hahn(f)
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
        above = [FiniteAtom(u, [u.op(ginv, g) for g in f.terms if g != g0])]
    else:
        above = _positive_part_atoms(u, f.certificate.minkowski(point))
    _, cert = _power_grid(u, above)
    if cert is None:
        return f.space.delta(ginv, cinv)
    cert = cert.minkowski(point)
    grid = cert.atoms[0]
    frame = _Frame(u, [*atoms, grid])
    in_grid = frame.member(grid)
    lead, start = frame.encode(g0), frame.encode(ginv)
    # below(delta): the pairs (-c^-1 * f(alpha), beta) of delta's equation
    if isinstance(f, FiniteSeries):
        # a stencil: beta = delta + lead - alpha for the terms alpha != lead
        stencil = [(-cinv * c, tuple(map(sub, lead, frame.encode(a))))
                   for a, c in f.terms.items() if a != g0]

        def below(top):
            betas = [(c, tuple(map(add, top, s))) for c, s in stencil]
            return [(c, b) for c, b in betas if in_grid(b)]
    else:
        splits = [_decompositions(frame, a, grid) for a in atoms]
        read_f = frame.reader(f)

        def below(top):
            gamma = tuple(map(add, top, lead))
            pairs = set()
            for split in splits:
                pairs |= split(gamma)
            terms = []
            for a, b in pairs:
                if a != lead:
                    ca = read_f(a)
                    if not field.is_zero(ca):
                        terms.append((-cinv * ca, b))
            return terms

    def oracle(t):
        if not in_grid(t):
            return field.zero
        stack = [(t, None)]
        while stack:
            top, terms = stack.pop()
            if top in values:
                continue
            if terms is None:
                terms = below(top)
                missing = [b for _, b in terms if b not in values]
                if missing:
                    # revisit top once everything below it is filled
                    stack.append((top, terms))
                    stack.extend((b, None) for b in missing)
                    continue
            rhs = [(c, values[b]) for c, b in terms]
            if top == start:
                rhs.append((cinv, field.one))
            values[top] = field.dot(rhs)
        return values[t]

    inverse = LazySeries(f.space, oracle, cert, frame)
    values = inverse._memo  # the fixed point fills the series' own memo
    return inverse


def truncate(f, bound):
    """Finite series equal to f on monomials <= bound.  A framed series (a
    product or an inverse) walks its certificate in frame ints
    (`_Frame.points_upto`), reads each point there and decodes only the
    points it keeps; any other lists its certificate as monomials."""
    atoms = _check_hahn(f)
    frame = f.frame
    if frame is None:
        pts = f.certificate.elements_upto(bound)
    else:
        pts = frame.points_upto(atoms, bound)
    if pts is None:
        raise HahnError(
            "certificate %s cannot be enumerated up to %s"
            % (f.certificate.format(), f.universe.format(bound))
        )
    if frame is None:
        return FiniteSeries._derived(f.space, ((g, f.coeff(g)) for g in pts))
    terms = []
    is_zero = f.field.is_zero
    for t in pts:
        c = f.at(t)
        if not is_zero(c):
            # decode checks the monomial through `devectorize`
            terms.append((frame.decode(t), c))
    return FiniteSeries._derived(f.space, terms)
