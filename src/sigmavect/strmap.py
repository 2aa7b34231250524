"""Strongly linear maps: sum-preserving maps represented by dual rows.

A map (Gamma, F) -> (Delta, G) is stored contravariantly: for each output
index delta a row r_delta in k(Gamma; F-perp), so the output coefficient at
delta is the pairing <f, r_delta>.  The columns c_gamma(delta) = r_delta(gamma)
are the images of the basis deltas and live in k(Delta; G); keeping both
directions plus the two support schemas makes taking the dual a retag.
"""

from __future__ import annotations

from .bornology import product_bornology
from .sets import DescribedSet, FiniteAtom, ProductAtom
from .series import (
    FiniteSeries,
    LazySeries,
    SeriesError,
    Space,
    SummableFamily,
    pairing,
)
from .universe import PairUniverse, FiniteUniverse, POINT


class MapError(SeriesError):
    pass


class StrongLinearMap:
    """row(delta): dual row in k(source; F-perp);
    col(gamma): image of the basis delta, in k(target; G);
    fwd_schema(S bounded in F) -> bounded cover of the image supports;
    bwd_schema(T bounded in G-perp) -> bounded cover of the row supports."""

    def __init__(self, source, target, row, col, fwd_schema, bwd_schema):
        self.source = source
        self.target = target
        self.row = row
        self.col = col
        self.fwd_schema = fwd_schema
        self.bwd_schema = bwd_schema

    def apply(self, f):
        if f.universe != self.source.universe or f.field != self.source.field:
            raise MapError("argument outside the source space")
        cert = self.fwd_schema(f.certificate)

        def oracle(delta):
            return pairing(f, self.row(delta), declared_dual=True)

        if cert.is_finite() is True:
            return FiniteSeries(self.target, {d: oracle(d) for d in cert.elements()})
        return LazySeries(self.target, oracle, cert)

    def dual(self):
        """The transpose (target-dual -> source-dual); an O(1) retag."""
        return StrongLinearMap(
            self.target.dual(), self.source.dual(),
            row=self.col, col=self.row,
            fwd_schema=self.bwd_schema, bwd_schema=self.fwd_schema,
        )


def identity_map(space):
    row = space.dual().delta
    same = lambda s: s
    return StrongLinearMap(space, space, row, row, same, same)


def compose(m2, m1):
    """m2 after m1."""
    if m1.target.universe != m2.source.universe or m1.target.field != m2.source.field:
        raise MapError("composition space mismatch")
    d1 = m1.dual()

    def row(delta):
        return d1.apply(m2.row(delta))

    def col(gamma):
        return m2.apply(m1.col(gamma))

    return StrongLinearMap(
        m1.source, m2.target,
        row=row, col=col,
        fwd_schema=lambda s: m2.fwd_schema(m1.fwd_schema(s)),
        bwd_schema=lambda t: m1.bwd_schema(m2.bwd_schema(t)),
    )


def extend_biperp(m):
    """Reinterpret the same kernel between the double-dual spaces; rows are
    unchanged because F-perp equals its own triple dual."""
    return StrongLinearMap(m.source.dual().dual(), m.target.dual().dual(),
                           m.row, m.col, m.fwd_schema, m.bwd_schema)


def point_space(field):
    """k itself, as series over the one-point universe."""
    from .bornology import all_subsets

    return Space(field, POINT, all_subsets(POINT))


def series_to_functional(g):
    """The sum-preserving functional f -> <f, g> for g in k(Gamma; F-perp)."""
    target = point_space(g.field)

    def row(delta):
        return g

    def col(gamma):
        return target.delta("*", g.coeff(gamma))

    def fwd(s):
        return DescribedSet.finite(POINT, ["*"])

    def bwd(t):
        empty = t.is_empty()
        if empty is True:
            return DescribedSet.empty(g.universe)
        return g.certificate

    return StrongLinearMap(g.space.dual(), target, row, col, fwd, bwd)


def functional_to_series(xi):
    """Recover g with xi(f) = <f, g>; by construction g(gamma) = xi(delta_gamma),
    which is exactly the stored dual row."""
    if not isinstance(xi.target.universe, FiniteUniverse) or len(xi.target.universe.labels) != 1:
        raise MapError("not a functional: target is not one-dimensional")
    label = xi.target.universe.labels[0]
    return xi.row(label)


def matrix_map(space, entries, col_support, fwd_schema=None, bwd_schema=None):
    """Map on a sequence space from a row/column-finite matrix.

    `entries(delta)` returns the finite dict {gamma: scalar} of row delta;
    `col_support(gamma)` returns the finite list of deltas whose row touches
    gamma.  The default schemas map a finite set to the indices it touches
    and refuse a set not known to be finite with a `MapError`; pass
    `fwd_schema` and `bwd_schema` to map infinite supports."""
    field = space.field
    u = space.universe
    dual = space.dual()

    def row(delta):
        return dual.series(entries(delta))

    def col(gamma):
        return space.series(
            {d: entries(d).get(gamma, field.zero) for d in col_support(gamma)}
        )

    if fwd_schema is None:
        fwd_schema = lambda s: _touched(u, s, col_support)
    if bwd_schema is None:
        bwd_schema = lambda t: _touched(u, t, entries)

    return StrongLinearMap(space, space, row, col, fwd_schema, bwd_schema)


def _touched(u, s, indices):
    """The finite set of the indices that `indices(i)` names for the
    elements i of s; a set not known to be finite has no such cover here."""
    if s.is_finite() is not True:
        raise MapError("default support schema needs a finite support, got %s" % s.format())
    out = set()
    for i in s.elements():
        out.update(indices(i))
    return DescribedSet.finite(u, out)


def tensor_map(m1, m2):
    """The map on the completed tensor product: kernel rows are the pairwise
    coefficient products, certificates are set products."""
    if m1.source.field != m2.source.field:
        raise MapError("tensor across different fields")
    field = m1.source.field
    src_u = PairUniverse(m1.source.universe, m2.source.universe)
    tgt_u = PairUniverse(m1.target.universe, m2.target.universe)
    src_b = product_bornology(m1.source.bornology, m2.source.bornology, src_u)
    tgt_b = product_bornology(m1.target.bornology, m2.target.bornology, tgt_u)
    source = Space(field, src_u, src_b)
    target = Space(field, tgt_u, tgt_b)
    rows = source.dual()

    def row(delta):
        return pure_tensor(rows, m1.row(delta[0]), m2.row(delta[1]))

    def col(gamma):
        return pure_tensor(target, m1.col(gamma[0]), m2.col(gamma[1]))

    def lift_schema(s, u_out, sch1, sch2):
        atoms = []
        for a in s.atoms:
            if isinstance(a, ProductAtom):
                atoms.append(
                    ProductAtom(u_out, sch1(a.left), sch2(a.right))
                )
            elif isinstance(a, FiniteAtom):
                for (g1, g2) in a.elements():
                    atoms.append(
                        ProductAtom(
                            u_out,
                            sch1(DescribedSet.finite(s.universe.left, [g1])),
                            sch2(DescribedSet.finite(s.universe.right, [g2])),
                        )
                    )
            else:
                raise MapError("tensor schema needs product-shaped certificates")
        return DescribedSet(u_out, atoms)

    return StrongLinearMap(
        source, target, row, col,
        fwd_schema=lambda s: lift_schema(s, tgt_u, m1.fwd_schema, m2.fwd_schema),
        bwd_schema=lambda t: lift_schema(t, src_u, m1.bwd_schema, m2.bwd_schema),
    )


def pure_tensor(space, f1, f2):
    """f1 (x) f2 as a series on the pair universe of `space`."""
    if isinstance(f1, FiniteSeries) and isinstance(f2, FiniteSeries):
        return FiniteSeries(
            space,
            {
                (g1, g2): c1 * c2
                for g1, c1 in f1.terms.items()
                for g2, c2 in f2.terms.items()
            },
        )
    u = space.universe
    cert = DescribedSet(u, [ProductAtom(u, f1.certificate, f2.certificate)])
    return LazySeries(space, lambda p: f1.coeff(p[0]) * f2.coeff(p[1]), cert)


def map_family(m, fam):
    """Image of an explicit summable family under m, with certificates."""
    if not fam.is_explicit():
        raise MapError("only explicit families are mapped eagerly")
    images = {i: m.apply(fam.member(i)) for i in fam.index}
    union = m.fwd_schema(fam.union_cert)

    def pointwise(delta):
        return [i for i in fam.index if images[i].certificate.contains(delta)]

    return SummableFamily(m.target, list(fam.index), lambda i: images[i], pointwise, union)


def check_sigma_preserving(m, fam, weights, window=32):
    """Witness check: mapping the sum equals summing the mapped family,
    coefficientwise on the window."""
    from .series import family_sum

    lhs = m.apply(family_sum(fam, weights, precheck=False))
    img = map_family(m, fam)
    rhs = family_sum(img, weights, precheck=False)
    return lhs.eq_window(rhs, window)
