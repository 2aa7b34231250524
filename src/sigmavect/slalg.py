"""Strong algebras on bornological monoids, modules, and derivations.

A bornological monoid is an ordered monoid whose bornology is closed under
set products; its series algebra is its `Space`, with unit
`space.delta(u.unit)`, product `cauchy_product` and inverse `invert_unit`.  A
derivation is specified by its values on monomials plus a summability schema
(a contributor oracle and a support transform) and extended to all series as
the sum-preserving map f -> sum of f(gamma) * d(gamma).

The Euler derivation x * d/dx is diagonal: x^q is an eigenvector with
eigenvalue q.  The image of a finite series is its own table on its own
scale, each coefficient times q; any other series takes the generic rule,
one image series per monomial."""

from __future__ import annotations

from fractions import Fraction

from .bornology import Verdict
from .hahn import HahnError, _grid_atoms, cauchy_product
from .series import (
    FiniteSeries,
    LazySeries,
    SeriesError,
    Space,
    SummableFamily,
    check_summable,
)


class AlgebraError(SeriesError):
    pass


def _products_bounded(left, right, out):
    """Is s * t bounded in `out` for every s bounded in `left` and t bounded
    in `right`?  `left` and `right` are (bornology, battery) pairs.  The
    report's verdict is `rejected` on an unbounded product, else `undecided`
    when `out` abstains or a set has no grid product, else `accepted`; each
    product that is not bounded leaves a witness."""
    report = {"verdict": "accepted", "witnesses": []}
    ss, ts = ([s for s in battery if b.is_bounded(s) is Verdict.BOUNDED]
              for b, battery in (left, right))
    for s in ss:
        for t in ts:
            try:
                _grid_atoms(s)
                _grid_atoms(t)
            except HahnError as exc:  # a non-grid atom has no product here
                v, why = Verdict.UNDECIDED, str(exc)
            else:
                prod = s.minkowski(t)
                v, why = out.is_bounded(prod), prod.format()
            if v is Verdict.BOUNDED:
                continue
            if v is Verdict.UNBOUNDED:
                report["verdict"] = "rejected"
            elif report["verdict"] == "accepted":
                report["verdict"] = "undecided"
            report["witnesses"].append((s.format(), t.format(), why))
    return report


def _refuse_rejected(report, what, detail):
    if report["verdict"] == "rejected":
        raise AlgebraError("%s: %s" % (what, detail))


class BornologicalMonoid:
    def __init__(self, universe, bornology):
        if not universe.has_monoid:
            raise AlgebraError("a bornological monoid needs a monoid universe")
        self.universe = universe
        self.bornology = bornology

    def check_product_closed(self, battery):
        """Verify F0 * F1 stays bounded for bounded battery sets; returns a
        report with any witness pair that fails."""
        b = (self.bornology, battery)
        return _products_bounded(b, b, self.bornology)


def monoid_algebra(monoid, field, battery=None):
    """The series algebra of `monoid` over `field`: its space, refused when
    the battery shows the bornology is not product-closed."""
    space = Space(field, monoid.universe, monoid.bornology)
    if battery:
        report = monoid.check_product_closed(battery)
        _refuse_rejected(report, "bornology is not product-closed", report["witnesses"])
    return space


class Derivation:
    """action(gamma) -> Series (the value on the monomial gamma);
    contributors(delta) -> finite list of gammas whose value may be supported
    at delta; cert_transform(S) -> bounded cover of the image supports."""

    def __init__(self, space, action, contributors, cert_transform):
        self.space = space
        self.action = action
        self.contributors = contributors
        self.cert_transform = cert_transform

    def image_family(self, support):
        """The family (d gamma)_{gamma in support} with its certificates."""
        return SummableFamily(self.space, support, self.action, self.contributors,
                              self.cert_transform(support))

    def apply(self, f):
        """The image of f, a series of this derivation's space: at delta, the
        sum of f(gamma) * action(gamma)(delta) over the contributors gamma
        of delta, on the transformed certificate, a finite series when f is
        finite and that certificate is finite.  The Euler derivation
        (`euler_derivation`) scales a finite f's table on its own scale
        instead, with no image series per monomial."""
        if not self.space.contains(f):
            raise AlgebraError("argument outside the algebra")
        return self._image(f)

    def _image(self, f):
        sp = self.space
        cert = self.cert_transform(f.certificate)

        def oracle(delta):
            return sp.field.dot([(f.coeff(gamma), self.action(gamma).coeff(delta))
                                 for gamma in self.contributors(delta)])

        if isinstance(f, FiniteSeries) and cert.is_finite() is True:
            return FiniteSeries._of_elements(sp, ((d, oracle(d)) for d in cert.elements()))
        return LazySeries(sp, oracle, cert)


class _Euler(Derivation):
    """x * d/dx on a one-generator universe: x^q is an eigenvector with
    eigenvalue q, in the field (an exponent whose denominator the prime
    divides raises there).  The image of a finite series is its table on
    its own scale, the coefficient at key k on scale s times q = k / s (k
    itself on the naturals and the integers, whose keys are the elements).
    Any other series takes the generic rule."""

    def _image(self, f):
        if not isinstance(f, FiniteSeries):
            return super()._image(f)
        sp = self.space
        field, s, framed = sp.field, f.scale, sp.universe.framed
        return FiniteSeries._derived(
            sp, s, ((k, c * field.of(Fraction(k[0] if framed else k, s)))
                    for k, c in f.table.items()))


def extend_derivation(space, action, contributors, cert_transform, battery=()):
    """Build the derivation, verifying the summability schema on the battery
    of bounded supports: every image family must pass check_summable.  Kept
    for the strong Kähler differentials of ROADMAP item 13."""
    d = Derivation(space, action, contributors, cert_transform)
    for support in battery:
        report = check_summable(d.image_family(support))
        _refuse_rejected(report, "image family over %s rejected" % support.format(),
                         "; ".join(report["failures"]))
    return d


def euler_derivation(space):
    """x * d/dx on a one-generator monomial algebra: the monomial x^q is an
    eigenvector with eigenvalue q (`_Euler`)."""
    u = space.universe
    if u.dim != 1:
        raise AlgebraError("the Euler operator needs a one-generator universe")

    field = space.field

    def action(gamma):
        # gamma is a checked monomial; field.of raises for an exponent whose
        # denominator the prime divides
        return FiniteSeries._of_elements(space, [(gamma, field.of(u.vectorize(gamma)[0]))])

    # x^q is the only monomial whose image meets x^q, and supports stay put
    return _Euler(space, action, lambda delta: [delta], lambda s: s)


class ModuleAction:
    """A translation module: the scalar algebra's monoid acts on the carrier
    indices by the shared monoid operation, so the action is convolution with
    the carrier's bornology on the output."""

    def __init__(self, space, carrier):
        if space.universe != carrier.universe:
            raise AlgebraError(
                "translation module needs the carrier indexed by the acting monoid"
            )
        if space.field != carrier.field:
            raise AlgebraError("field mismatch")
        self.space = space
        self.carrier = carrier

    def act(self, r, m):
        if not self.carrier.contains(m):
            raise AlgebraError("module element outside the carrier")
        return cauchy_product(r, m, space=self.carrier)

    def check_compatible(self, scalar_battery, carrier_battery):
        """F * H must stay carrier-bounded for bounded F, H on the battery."""
        cb = self.carrier.bornology
        return _products_bounded((self.space.bornology, scalar_battery), (cb, carrier_battery), cb)


def module_action(space, carrier, scalar_battery=(), carrier_battery=()):
    """The translation module of `carrier` over `space`, checked on the
    batteries; kept for the Kähler differentials of ROADMAP item 13."""
    act = ModuleAction(space, carrier)
    if scalar_battery and carrier_battery:
        report = act.check_compatible(scalar_battery, carrier_battery)
        _refuse_rejected(report, "incompatible action", report["witnesses"])
    return act
