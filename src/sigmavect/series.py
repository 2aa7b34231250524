"""Series with bounded support, the duality pairing, and summable families.

A series is a coefficient function on a universe whose support is bounded in
a chosen bornology.  Finite series store their terms; lazy series carry a
coefficient oracle plus a described support certificate.  All assertions
about lazy values are window-relative and exact on the window.
"""

from __future__ import annotations

from functools import cached_property

from .bornology import Verdict, perp
from .sets import DescribedSet, described_intersection
from .scalars import QQ
from .universe import MonomialUniverse, Naturals, Value


class SeriesError(ValueError):
    pass


class Space(Value):
    """A based space handle: field + universe + bornology."""

    def __init__(self, field, universe, bornology):
        if bornology.universe != universe:
            raise SeriesError("bornology universe mismatch")
        self.field = field
        self.universe = universe
        self.bornology = bornology

    def dual(self):
        return Space(self.field, self.universe, perp(self.bornology))

    def zero(self):
        return FiniteSeries(self.field, self.universe, self.bornology, {})

    def delta(self, gamma, scale=1):
        return FiniteSeries(self.field, self.universe, self.bornology, {gamma: scale})

    def series(self, terms):
        return FiniteSeries(self.field, self.universe, self.bornology, terms)

    def lazy(self, oracle, certificate, check_certificate=True):
        return LazySeries(self.field, self.universe, self.bornology, oracle,
                          certificate, check_certificate)

    def contains(self, f):
        return (
            f.field == self.field
            and f.universe == self.universe
            and f.bornology == self.bornology
        )

    def to_record(self):
        return {
            "field": self.field.name,
            "universe": self.universe.to_record(),
            "bornology": self.bornology.to_record(),
        }

    def __repr__(self):
        return "Space(%r, %s on %r)" % (self.field, self.bornology.kind, self.universe)


class PairingUndecided(SeriesError):
    """Raised when intersection-finiteness of supports cannot be certified;
    never silently truncated."""


class Series:
    def __init__(self, field, universe, bornology):
        if bornology.universe != universe:
            raise SeriesError("bornology universe mismatch")
        self.field = field
        self.universe = universe
        self.bornology = bornology

    def same_space(self, other):
        return (
            self.field == other.field
            and self.universe == other.universe
            and self.bornology == other.bornology
        )

    def coeff(self, gamma):
        raise NotImplementedError

    @property
    def certificate(self):
        raise NotImplementedError

    def support_window(self, n):
        """Nonzero-coefficient elements among the first n certificate
        positions, in increasing order.  Window-relative by design: a lazy
        series may have coefficients beyond the scanned prefix."""
        out = []
        scanned = 0
        for gamma in self.certificate.iter_increasing():
            if scanned == n:
                break
            scanned += 1
            if not self.field.is_zero(self.coeff(gamma)):
                out.append(gamma)
        return out

    def eq_window(self, other, window=32):
        """Exact coefficient equality on the union of both support windows."""
        if self.universe != other.universe:
            return False
        probes = set(self.support_window(window)) | set(other.support_window(window))
        return all(self.coeff(g) == other.coeff(g) for g in probes)

    def to_record(self, window=32):
        sup = self.support_window(window)
        return {
            "universe": self.universe.to_record(),
            "bornology": self.bornology.to_record(),
            "kind": "finite" if isinstance(self, FiniteSeries) else "lazy",
            "terms": [[self.universe.format(g), self.field.format(self.coeff(g))] for g in sup],
            "certificate": self.certificate.to_record(),
        }

    def format(self, window=32, var=None):
        """Terms in the expression grammar: a term on the naturals is
        written c*e<n>, the unit monomial of a monomial universe (and the
        one point of POINT) is its bare coefficient c."""
        u = self.universe
        unit = u.unit if isinstance(u, MonomialUniverse) else None
        parts = []
        for g in self.support_window(window):
            c = self.coeff(g)
            mono = "e" + u.format(g) if isinstance(u, Naturals) else u.format(g)
            if g == unit or mono == "*":
                parts.append(self.field.format(c))
            elif c == self.field.one:
                parts.append(mono)
            else:
                parts.append("%s*%s" % (self.field.format(c), mono))
        if not parts:
            return "0"
        body = " + ".join(parts)
        if isinstance(self, LazySeries) and self.certificate.is_finite() is not True:
            body += " + ..."
        return body

    def __repr__(self):
        return self.format(8)


class FiniteSeries(Series):
    def __init__(self, field, universe, bornology, terms):
        super().__init__(field, universe, bornology)
        clean = {}
        for g, c in dict(terms).items():
            g = universe.check(g)
            c = field.of(c)
            if not field.is_zero(c):
                clean[g] = c
        self.terms = clean

    def coeff(self, gamma):
        return self.terms.get(gamma, self.field.zero)

    @cached_property
    def certificate(self):
        # terms is never changed after construction
        return DescribedSet.finite(self.universe, list(self.terms))

    def support_window(self, n):
        if self.universe.is_ordered:
            return sorted(self.terms, key=self.universe.key)[:n]
        return list(self.terms)[:n]

    def is_zero(self):
        return not self.terms


class LazySeries(Series):
    def __init__(self, field, universe, bornology, oracle, certificate, check_certificate=True):
        super().__init__(field, universe, bornology)
        if certificate.universe != universe:
            raise SeriesError("certificate universe mismatch")
        if check_certificate and bornology.is_bounded(certificate) is Verdict.UNBOUNDED:
            raise SeriesError("support certificate is unbounded in the bornology")
        self._oracle = oracle
        self._cert = certificate
        self._memo = {}

    def coeff(self, gamma):
        gamma = self.universe.check(gamma)
        if gamma in self._memo:
            return self._memo[gamma]
        if not self._cert.contains(gamma):
            val = self.field.zero
        else:
            val = self.field.of(self._oracle(gamma))
        self._memo[gamma] = val
        return val

    @property
    def certificate(self):
        return self._cert


def delta(field, universe, bornology, gamma, scale=1):
    return FiniteSeries(field, universe, bornology, {gamma: scale})


def series_from_record(rec, field=QQ):
    from .bornology import bornology_from_record
    from .universe import universe_from_record

    u = universe_from_record(rec["universe"])
    b = bornology_from_record(rec["bornology"], u)
    if rec["kind"] != "finite":
        raise SeriesError("only finite series can be rebuilt from a record")
    terms = {u.parse(m): field.parse(c) for m, c in rec["terms"]}
    return FiniteSeries(field, u, b, terms)


def linear_combination(terms):
    """Pointwise sum of scalar multiples; finite inputs give a finite output."""
    terms = [(c, f) for c, f in terms]
    if not terms:
        raise SeriesError("empty linear combination needs an explicit space")
    _, first = terms[0]
    for _, f in terms[1:]:
        if not first.same_space(f):
            raise SeriesError("linear combination across different spaces")
    field = first.field
    coeffs = [field.of(c) for c, _ in terms]
    if all(isinstance(f, FiniteSeries) for _, f in terms):
        acc = {}
        for c, (_, f) in zip(coeffs, terms):
            for g, v in f.terms.items():
                acc[g] = acc.get(g, field.zero) + c * v
        return FiniteSeries(field, first.universe, first.bornology, acc)
    cert = DescribedSet(first.universe, sum((f.certificate.atoms for _, f in terms), ()))

    def oracle(gamma, _terms=tuple(zip(coeffs, [f for _, f in terms]))):
        return sum((c * f.coeff(gamma) for c, f in _terms), field.zero)

    return LazySeries(field, first.universe, first.bornology, oracle, cert,
                      check_certificate=False)


def scale(c, f):
    return linear_combination([(c, f)])


def add(f, g):
    return linear_combination([(1, f), (1, g)])


def sub(f, g):
    return linear_combination([(1, f), (-1, g)])


def pairing(f, g, declared_dual=False):
    """<f, g> = sum of f(gamma) g(gamma); defined because the supports meet
    finitely (f bounded in F, g bounded in F-perp)."""
    if f.universe != g.universe or f.field != g.field:
        raise SeriesError("pairing across different universes or fields")
    if not declared_dual:
        pf = perp(f.bornology)
        pg = perp(g.bornology)
        if g.bornology != pf and f.bornology != pg:
            raise SeriesError(
                "bornologies are not mutually dual; pass declared_dual=True to override"
            )
    fin, els = described_intersection(f.certificate, g.certificate)
    if fin is None:
        raise PairingUndecided(
            "support intersection finiteness undecided for %s and %s"
            % (f.certificate.format(), g.certificate.format())
        )
    if fin is False:
        raise PairingUndecided(
            "support certificates meet infinitely: %s vs %s"
            % (f.certificate.format(), g.certificate.format())
        )
    total = f.field.zero
    for gamma in els:
        total = total + f.coeff(gamma) * g.coeff(gamma)
    return total


class SummableFamily:
    """Indexed family of series with explicit summability certificates.

    `index` is either an explicit list of indices or a DescribedSet (with its
    universe's codec naming the indices); `member` maps an index to a Series;
    `pointwise` maps gamma to the finite list of indices whose member may be
    supported at gamma; `union_cert` bounds the union of all supports.
    """

    def __init__(self, field, universe, bornology, index, member, pointwise, union_cert):
        self.field = field
        self.universe = universe
        self.bornology = bornology
        self.index = index
        self.member = member
        self.pointwise = pointwise
        self.union_cert = union_cert

    def indices_window(self, n=32):
        if isinstance(self.index, DescribedSet):
            return self.index.first_n(n)
        return list(self.index)[:n]

    def is_explicit(self):
        return not isinstance(self.index, DescribedSet)


def finite_family(members, field=None):
    """Wrap an explicit finite list of series as a summable family."""
    members = list(members)
    if not members:
        raise SeriesError("empty family needs an explicit space; use SummableFamily")
    first = members[0]
    for f in members[1:]:
        if not first.same_space(f):
            raise SeriesError("family members live in different spaces")
    cert = DescribedSet(first.universe, sum((f.certificate.atoms for f in members), ()))
    index = list(range(len(members)))

    def pointwise(gamma):
        return [i for i in index if members[i].certificate.contains(gamma)]

    return SummableFamily(
        first.field, first.universe, first.bornology, index,
        lambda i: members[i], pointwise, cert,
    )


def check_summable(fam, window=32):
    """Verify the certificates; returns a report dict with a verdict in
    {'accepted', 'rejected', 'undecided'} and the reasons."""
    report = {"verdict": "accepted", "failures": [], "checked": 0}
    v = fam.bornology.is_bounded(fam.union_cert)
    if v is Verdict.UNBOUNDED:
        report["verdict"] = "rejected"
        report["failures"].append("union support certificate is unbounded")
        return report
    if v is Verdict.UNDECIDED:
        report["verdict"] = "undecided"
        report["failures"].append("union support certificate boundedness undecided")
    probes = fam.union_cert.first_n(window) if fam.union_cert.universe.is_ordered else []
    idx_window = fam.indices_window(window)
    for gamma in probes:
        contributing = fam.pointwise(gamma)
        if contributing is None:
            report["verdict"] = "undecided"
            report["failures"].append(
                "pointwise certificate missing at %s" % fam.universe.format(gamma)
            )
            continue
        report["checked"] += 1
        allowed = set(contributing)
        for i in idx_window:
            f = fam.member(i)
            if not fam.field.is_zero(f.coeff(gamma)) and i not in allowed:
                report["verdict"] = "rejected"
                report["failures"].append(
                    "index %r contributes at %s outside the pointwise certificate"
                    % (i, fam.universe.format(gamma))
                )
                return report
        for i in allowed:
            f = fam.member(i)
            if not f.certificate.contains(gamma) and not fam.field.is_zero(f.coeff(gamma)):
                report["verdict"] = "rejected"
                report["failures"].append("member %r support escapes its certificate" % (i,))
                return report
    # member supports (on the window) must sit inside the union certificate
    check_indices = fam.index if fam.is_explicit() else idx_window
    for i in check_indices:
        f = fam.member(i)
        for g in f.support_window(window):
            if not fam.union_cert.contains(g):
                report["verdict"] = "rejected"
                report["failures"].append(
                    "member %r supported at %s outside the union certificate"
                    % (i, fam.universe.format(g))
                )
                return report
    return report


def family_sum(fam, weights=None, precheck=True, window=32):
    """The sum series: coefficient at gamma adds the finitely many
    contributions named by the pointwise certificate."""
    if precheck:
        report = check_summable(fam, window)
        if report["verdict"] == "rejected":
            raise SeriesError("family rejected: %s" % "; ".join(report["failures"]))
    field = fam.field
    if weights is None:
        weights = lambda i: field.one

    def oracle(gamma):
        idx = fam.pointwise(gamma)
        if idx is None:
            raise SeriesError(
                "no pointwise certificate at %s" % fam.universe.format(gamma)
            )
        total = field.zero
        for i in idx:
            total = total + field.of(weights(i)) * fam.member(i).coeff(gamma)
        return total

    return LazySeries(field, fam.universe, fam.bornology, oracle, fam.union_cert,
                      check_certificate=False)


def monomial_expansion(f, depth=32):
    """f = sum over its support of f(gamma) * delta_gamma, as a family plus
    weights keyed by the support element itself."""
    if isinstance(f, FiniteSeries):
        index = f.support_window(len(f.terms))
    else:
        index = f.certificate

    def member(gamma):
        return delta(f.field, f.universe, f.bornology, gamma)

    def pointwise(gamma):
        if isinstance(index, DescribedSet):
            return [gamma] if index.contains(gamma) else []
        return [gamma] if gamma in index else []

    fam = SummableFamily(
        f.field, f.universe, f.bornology, index, member, pointwise, f.certificate
    )
    return fam, f.coeff
