"""Strong algebras on bornological monoids, modules, and derivations.

A bornological monoid is an ordered monoid whose bornology is closed under
set products; its series space then carries the convolution product.  A
derivation is specified by its values on monomials plus a summability schema
(a contributor oracle and a support transform) and extended to all series as
the sum-preserving map f -> sum of f(gamma) * d(gamma)."""

from __future__ import annotations

from .bornology import Verdict
from .hahn import _grid_atoms, _minkowski_product, cauchy_product, invert_unit
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


class BornologicalMonoid:
    def __init__(self, universe, bornology):
        if not (universe.is_ordered and universe.has_monoid):
            raise AlgebraError("a bornological monoid needs an ordered monoid universe")
        if bornology.universe != universe:
            raise AlgebraError("bornology universe mismatch")
        self.universe = universe
        self.bornology = bornology

    def check_product_closed(self, battery):
        """Verify F0 * F1 stays bounded for bounded battery sets; returns a
        report with any witness pair that fails."""
        report = {"verdict": "accepted", "witnesses": []}
        u = self.universe
        bounded = [
            s for s in battery if self.bornology.is_bounded(s) is Verdict.BOUNDED
        ]
        for s in bounded:
            for t in bounded:
                try:
                    prod = _minkowski_product(u, _grid_atoms(u, s), _grid_atoms(u, t))
                except Exception as exc:  # non-grid atoms cannot be multiplied
                    report["verdict"] = "undecided"
                    report["witnesses"].append((s.format(), t.format(), str(exc)))
                    continue
                v = self.bornology.is_bounded(prod)
                if v is Verdict.UNBOUNDED:
                    report["verdict"] = "rejected"
                    report["witnesses"].append((s.format(), t.format(), prod.format()))
                elif v is Verdict.UNDECIDED and report["verdict"] == "accepted":
                    report["verdict"] = "undecided"
                    report["witnesses"].append((s.format(), t.format(), prod.format()))
        return report


class AlgebraHandle:
    """The series algebra of a bornological monoid: convolution, unit,
    inversion, bound to one space."""

    def __init__(self, monoid, field, battery=None):
        self.monoid = monoid
        self.space = Space(field, monoid.universe, monoid.bornology)
        if battery:
            report = monoid.check_product_closed(battery)
            if report["verdict"] == "rejected":
                raise AlgebraError(
                    "bornology is not product-closed: %r" % report["witnesses"]
                )

    def unit(self):
        return self.space.delta(self.space.universe.unit)

    def product(self, f, g):
        return cauchy_product(f, g)

    def invert(self, f, window=32):
        return invert_unit(f, window)


def monoid_algebra(monoid, field, battery=None):
    return AlgebraHandle(monoid, field, battery)


class Derivation:
    """action(gamma) -> Series (the value on the monomial gamma);
    contributors(delta) -> finite list of gammas whose value may be supported
    at delta; cert_transform(S) -> bounded cover of the image supports."""

    def __init__(self, algebra, action, contributors, cert_transform):
        self.algebra = algebra
        self.action = action
        self.contributors = contributors
        self.cert_transform = cert_transform

    def image_family(self, support):
        """The family (d gamma)_{gamma in support} with its certificates."""
        return SummableFamily(self.algebra.space, support, self.action, self.contributors,
                              self.cert_transform(support))

    def apply(self, f):
        sp = self.algebra.space
        if f.universe != sp.universe or f.field != sp.field:
            raise AlgebraError("argument outside the algebra")
        cert = self.cert_transform(f.certificate)

        def oracle(delta):
            total = sp.field.zero
            for gamma in self.contributors(delta):
                total = total + f.coeff(gamma) * self.action(gamma).coeff(delta)
            return total

        if isinstance(f, FiniteSeries) and cert.is_finite() is True:
            return FiniteSeries(sp, {d: oracle(d) for d in cert.elements()})
        return LazySeries(sp, oracle, cert)


def extend_derivation(algebra, action, contributors, cert_transform, battery=(), window=32):
    """Build the derivation, verifying the summability schema on the battery
    of bounded supports: every image family must pass check_summable."""
    d = Derivation(algebra, action, contributors, cert_transform)
    for support in battery:
        fam = d.image_family(support)
        report = check_summable(fam, window)
        if report["verdict"] == "rejected":
            raise AlgebraError(
                "image family over %s rejected: %s"
                % (support.format(), "; ".join(report["failures"]))
            )
    return d


def apply_derivation(d, f):
    return d.apply(f)


def euler_derivation(algebra):
    """x * d/dx on a one-generator monomial algebra: the monomial x^q is an
    eigenvector with eigenvalue q."""
    sp = algebra.space
    u = sp.universe
    if u.dim != 1:
        raise AlgebraError("the Euler operator needs a one-generator universe")

    def action(gamma):
        return sp.delta(gamma, u.vectorize(gamma)[0])

    def contributors(delta):
        return [delta]

    def cert_transform(s):
        return s

    return Derivation(algebra, action, contributors, cert_transform)


class ModuleAction:
    """A translation module: the scalar algebra's monoid acts on the carrier
    indices by the shared monoid operation, so the action is convolution with
    the carrier's bornology on the output."""

    def __init__(self, algebra, carrier):
        if algebra.space.universe != carrier.universe:
            raise AlgebraError(
                "translation module needs the carrier indexed by the acting monoid"
            )
        if algebra.space.field != carrier.field:
            raise AlgebraError("field mismatch")
        self.algebra = algebra
        self.carrier = carrier

    def act(self, r, m):
        if not self.carrier.contains(m):
            raise AlgebraError("module element outside the carrier")
        return cauchy_product(r, m, space=self.carrier)

    def check_compatible(self, scalar_battery, carrier_battery):
        """F * H must stay carrier-bounded for bounded F, H on the battery."""
        report = {"verdict": "accepted", "witnesses": []}
        u = self.carrier.universe
        for s in scalar_battery:
            if self.algebra.space.bornology.is_bounded(s) is not Verdict.BOUNDED:
                continue
            for h in carrier_battery:
                if self.carrier.bornology.is_bounded(h) is not Verdict.BOUNDED:
                    continue
                prod = _minkowski_product(u, _grid_atoms(u, s), _grid_atoms(u, h))
                v = self.carrier.bornology.is_bounded(prod)
                if v is Verdict.UNBOUNDED:
                    report["verdict"] = "rejected"
                    report["witnesses"].append((s.format(), h.format()))
        return report


def module_action(algebra, carrier, scalar_battery=(), carrier_battery=()):
    act = ModuleAction(algebra, carrier)
    if scalar_battery and carrier_battery:
        report = act.check_compatible(scalar_battery, carrier_battery)
        if report["verdict"] == "rejected":
            raise AlgebraError("incompatible action: %r" % report["witnesses"])
    return act
