"""Series with bounded support, the duality pairing, and summable families.

A series is a coefficient function on a universe whose support is bounded in
a chosen bornology; the field, universe and bornology together are its
`Space`, which every series and every summable family holds as one value.
Finite series store their terms; lazy series carry a coefficient oracle plus
a described support certificate.  `Space.lazy`, the entry for a caller's
oracle, is the one place a certificate is checked against the bornology;
the operations here and in `hahn`, `strmap` and `slalg` build their lazy
results on certificates they derive.  A monomial is checked once, where it
enters: by the public constructors (`FiniteSeries(space, terms)`,
`Space.series`, `Space.delta`, `DescribedSet.finite`), by `Space.lazy`'s
certificate and by the parsers.  A finite series the package derives from
checked ones (a finite product or linear combination, a truncation, the
certificate of a finite series) is built by `FiniteSeries._derived`, which
checks nothing again.  Every sum of products here (a linear combination, a
family sum, the pairing) is one `Field.dot`, normalized once; two finite
series pair over the keys their term tables share, with no certificate
and no meet.  All assertions about lazy values are window-relative and
exact on the window.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice

from .bornology import Verdict, perp
from .sets import DescribedSet, FiniteAtom, described_intersection
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
        return FiniteSeries(self, {})

    def delta(self, gamma, scale=1):
        return FiniteSeries(self, {gamma: scale})

    def series(self, terms):
        return FiniteSeries(self, terms)

    def lazy(self, oracle, certificate):
        """A caller's oracle on a caller's certificate, which must not be
        unbounded in the bornology."""
        f = LazySeries(self, oracle, certificate)
        if self.bornology.is_bounded(certificate) is Verdict.UNBOUNDED:
            raise SeriesError("support certificate is unbounded in the bornology")
        return f

    def contains(self, f):
        return f.space == self

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
    frame = None  # the integer coordinates a framed lazy series is kept on

    def __init__(self, space):
        self.space = space
        self.field = space.field
        self.universe = space.universe
        self.bornology = space.bornology

    def coeff(self, gamma):
        raise NotImplementedError

    @property
    def certificate(self):
        raise NotImplementedError

    def window_terms(self, n):
        """(gamma, coefficient) for the nonzero coefficients among the first
        n certificate positions, in increasing order.  Window-relative by
        design: a lazy series may have coefficients beyond the scanned
        prefix."""
        for gamma in islice(self.certificate.iter_increasing(), n):
            c = self.coeff(gamma)
            if not self.field.is_zero(c):
                yield gamma, c

    def support_window(self, n):
        return [g for g, _ in self.window_terms(n)]

    def eq_window(self, other, window=32):
        """Exact coefficient equality on the union of both support windows."""
        if self.universe != other.universe:
            return False
        probes = set(self.support_window(window)) | set(other.support_window(window))
        return all(self.coeff(g) == other.coeff(g) for g in probes)

    def to_record(self, window=32):
        terms = list(self.window_terms(window))
        return {
            "universe": self.universe.to_record(),
            "bornology": self.bornology.to_record(),
            "kind": "finite" if isinstance(self, FiniteSeries) else "lazy",
            "terms": [[self.universe.format(g), self.field.format(c)] for g, c in terms],
            "certificate": self.certificate.to_record(),
        }

    def format(self, window=32):
        """Terms in the expression grammar: a term on the naturals is
        written c*e<n>, the unit monomial of a monomial universe (and the
        one point of POINT) is its bare coefficient c."""
        u = self.universe
        unit = u.unit if isinstance(u, MonomialUniverse) else None
        parts = []
        # every coefficient is computed before any is printed, so an oracle's
        # error comes before a printing one
        for g, c in list(self.window_terms(window)):
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
    def __init__(self, space, terms):
        super().__init__(space)
        universe, field = self.universe, self.field
        clean = {}
        for g, c in dict(terms).items():
            g = universe.check(g)
            c = field.of(c)
            if not field.is_zero(c):
                clean[g] = c
        self.terms = clean

    @classmethod
    def _derived(cls, space, items):
        """The series of (key, value) pairs whose keys are already in the
        universe's normal form and whose values are already in the field,
        such as the package derives from checked series; zeros are
        dropped."""
        f = cls.__new__(cls)
        Series.__init__(f, space)
        is_zero = space.field.is_zero
        f.terms = {g: c for g, c in items if not is_zero(c)}
        return f

    def coeff(self, gamma):
        return self.terms.get(gamma, self.field.zero)

    @cached_property
    def certificate(self):
        # terms is never changed after construction, and its keys are checked
        return DescribedSet(self.universe, [FiniteAtom._derived(self.universe, self.terms)])

    def window_terms(self, n):
        for g in islice(sorted(self.terms, key=self.universe.key), n):
            yield g, self.terms[g]

    def is_zero(self):
        return not self.terms


class LazySeries(Series):
    """A coefficient oracle on a support certificate, taken as given: a
    caller's certificate enters through `Space.lazy`, which checks it.

    A series built on a `frame` (a Hahn product or inverse) has an oracle
    on the frame's int coordinates (`frame.encode(gamma)`, None off the
    frame) that is zero off the certificate by construction; it answers
    `coeff` by one check and one encoding, and `at` on coordinates.
    """

    def __init__(self, space, oracle, certificate, frame=None):
        super().__init__(space)
        if certificate.universe != self.universe:
            raise SeriesError("certificate universe mismatch")
        self._oracle = oracle
        self._cert = certificate
        self.frame = frame
        self._memo = {}

    def coeff(self, gamma):
        # the check comes first, so a bad key raises even after a memo hit
        gamma = self.universe.check(gamma)
        if self.frame is not None:
            return self.at(self.frame.encode(gamma))
        val = self._memo.get(gamma)
        if val is None:
            if self._cert.contains(gamma):
                val = self.field.of(self._oracle(gamma))
            else:
                val = self.field.zero
            self._memo[gamma] = val
        return val

    def at(self, t):
        """The coefficient at frame coordinates t, memoized by t; zero off
        the frame (t None)."""
        if t is None:
            return self.field.zero
        val = self._memo.get(t)
        if val is None:
            val = self._memo[t] = self._oracle(t)
        return val

    @property
    def certificate(self):
        return self._cert


def series_from_record(rec, field=QQ):
    from .bornology import bornology_from_record
    from .universe import universe_from_record

    u = universe_from_record(rec["universe"])
    b = bornology_from_record(rec["bornology"], u)
    if rec["kind"] != "finite":
        raise SeriesError("only finite series can be rebuilt from a record")
    terms = {u.parse(m): field.parse(c) for m, c in rec["terms"]}
    return FiniteSeries(Space(field, u, b), terms)


def linear_combination(terms):
    """Pointwise sum of scalar multiples; finite inputs give a finite output."""
    terms = [(c, f) for c, f in terms]
    if not terms:
        raise SeriesError("empty linear combination needs an explicit space")
    space = terms[0][1].space
    if any(f.space != space for _, f in terms[1:]):
        raise SeriesError("linear combination across different spaces")
    field = space.field
    coeffs = [field.of(c) for c, _ in terms]
    if all(isinstance(f, FiniteSeries) for _, f in terms):
        acc = {}
        for c, (_, f) in zip(coeffs, terms):
            for g, v in f.terms.items():
                acc.setdefault(g, []).append((c, v))
        return FiniteSeries._derived(space, ((g, field.dot(p)) for g, p in acc.items()))
    cert = DescribedSet(space.universe,
                        dict.fromkeys(a for _, f in terms for a in f.certificate.atoms))

    def oracle(gamma, _terms=tuple(zip(coeffs, [f for _, f in terms]))):
        return field.dot([(c, f.coeff(gamma)) for c, f in _terms])

    return LazySeries(space, oracle, cert)


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
    if isinstance(f, FiniteSeries) and isinstance(g, FiniteSeries):
        # finite supports meet finitely, and a finite series is zero off its
        # terms: probe the smaller table against the larger
        small, large = sorted((f.terms, g.terms), key=len)
        return f.field.dot([(c, large[k]) for k, c in small.items() if k in large])
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
    return f.field.dot([(f.coeff(gamma), g.coeff(gamma)) for gamma in els])


class SummableFamily:
    """Indexed family of series with explicit summability certificates.

    `index` is either an explicit list of indices or a DescribedSet (with its
    universe's codec naming the indices); `member` maps an index to a Series;
    `pointwise` maps gamma to the finite list of indices whose member may be
    supported at gamma; `union_cert` bounds the union of all supports.
    """

    def __init__(self, space, index, member, pointwise, union_cert):
        self.space = space
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


def finite_family(members):
    """Wrap an explicit finite list of series as a summable family."""
    members = list(members)
    if not members:
        raise SeriesError("empty family needs an explicit space; use SummableFamily")
    space = members[0].space
    if any(f.space != space for f in members[1:]):
        raise SeriesError("family members live in different spaces")
    cert = DescribedSet(space.universe, sum((f.certificate.atoms for f in members), ()))
    index = list(range(len(members)))

    def pointwise(gamma):
        return [i for i in index if members[i].certificate.contains(gamma)]

    return SummableFamily(space, index, lambda i: members[i], pointwise, cert)


def check_summable(fam, window=32):
    """Verify the certificates on a window; returns a report dict with a
    verdict in {'accepted', 'rejected', 'undecided'}, the reasons and the
    `window`: the probes cover the first `window` elements of the union
    certificate and the first `window` indices (all members of an explicit
    family), so 'accepted' holds on that window."""
    report = {"verdict": "accepted", "failures": [], "checked": 0, "window": window}
    field, u = fam.space.field, fam.space.universe
    v = fam.space.bornology.is_bounded(fam.union_cert)
    if v is Verdict.UNBOUNDED:
        report["verdict"] = "rejected"
        report["failures"].append("union support certificate is unbounded")
        return report
    if v is Verdict.UNDECIDED:
        report["verdict"] = "undecided"
        report["failures"].append("union support certificate boundedness undecided")
    probes = fam.union_cert.first_n(window)
    idx_window = fam.indices_window(window)
    for gamma in probes:
        contributing = fam.pointwise(gamma)
        if contributing is None:
            report["verdict"] = "undecided"
            report["failures"].append(
                "pointwise certificate missing at %s" % u.format(gamma)
            )
            continue
        report["checked"] += 1
        allowed = set(contributing)
        for i in idx_window:
            f = fam.member(i)
            if not field.is_zero(f.coeff(gamma)) and i not in allowed:
                report["verdict"] = "rejected"
                report["failures"].append(
                    "index %r contributes at %s outside the pointwise certificate"
                    % (i, u.format(gamma))
                )
                return report
        for i in allowed:
            f = fam.member(i)
            if not f.certificate.contains(gamma) and not field.is_zero(f.coeff(gamma)):
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
                    % (i, u.format(g))
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
    field = fam.space.field
    if weights is None:
        weights = lambda i: field.one

    def oracle(gamma):
        idx = fam.pointwise(gamma)
        if idx is None:
            raise SeriesError(
                "no pointwise certificate at %s" % fam.space.universe.format(gamma)
            )
        return field.dot([(field.of(weights(i)), fam.member(i).coeff(gamma))
                          for i in idx])

    return LazySeries(fam.space, oracle, fam.union_cert)


def monomial_expansion(f):
    """f = sum over its support of f(gamma) * delta_gamma, as a family plus
    weights keyed by the support element itself."""
    if isinstance(f, FiniteSeries):
        index = f.support_window(len(f.terms))
    else:
        index = f.certificate

    def pointwise(gamma):
        if isinstance(index, DescribedSet):
            return [gamma] if index.contains(gamma) else []
        return [gamma] if gamma in index else []

    fam = SummableFamily(f.space, index, f.space.delta, pointwise, f.certificate)
    return fam, f.coeff
