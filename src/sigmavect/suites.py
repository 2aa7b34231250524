"""Named invariant suites, deterministic given a seed.

Each suite returns a machine-readable report: the case count, the failures
(with counterexample dumps), and a PASS/FAIL verdict.  These drive the
`sigma check` subcommand.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import bornology as bo
from .bornology import Verdict
from .closure import (
    FunctionalFamily,
    PatternGenerator,
    dual_basis_construction,
    idempotence_check,
    rank,
)
from .hahn import cauchy_product, invert_unit, leading_term
from .scalars import QQ
from .series import (
    Space,
    add,
    check_summable,
    family_sum,
    finite_family,
    linear_combination,
    pairing,
    scale,
    sub,
)
from .sets import DescribedSet
from .slalg import euler_derivation
from .strmap import (
    functional_to_series,
    matrix_map,
    pure_tensor,
    series_to_functional,
)
from .universe import Integers, MonomialUniverse, Naturals, PairUniverse


class SuiteError(ValueError):
    pass


def _report(name, seed, window, cases, failures):
    return {
        "suite": name,
        "seed": seed,
        "window": window,
        "cases": cases,
        "failures": failures,
        "verdict": "PASS" if not failures else "FAIL",
    }


def _hahn_space():
    X = MonomialUniverse(["x"])
    return Space(QQ, X, bo.well_ordered(X))


def _random_poly(rng, sp, max_terms=4, denom=4, lo=-3, hi=6):
    u = sp.universe
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        q = Fraction(rng.randint(lo, hi), rng.randint(1, denom))
        terms[u.check((q,))] = rng.randint(-5, 5)
    return sp.series(terms)


def _random_unit(rng, sp):
    f = _random_poly(rng, sp)
    while leading_term(f) is None:
        f = _random_poly(rng, sp)
    return f


def suite_bornology_galois(seed=0, window=16):
    Z = Integers()
    battery = [
        DescribedSet.finite(Z, [0, 1, 2]),
        DescribedSet.finite(Z, [-5, 7]),
        DescribedSet.progression(Z, 0, 1),
        DescribedSet.progression(Z, 0, -1),
        DescribedSet.progression(Z, 0, 2),
        DescribedSet.progression(Z, 1, 2),
        DescribedSet.progression(Z, -3, 3),
        DescribedSet.progression(Z, 5, -2),
        DescribedSet.grid(Z, 0, [1]),
        DescribedSet.grid(Z, -4, [2]),
        DescribedSet.progression(Z, 0, 1).union(DescribedSet.finite(Z, [-9])),
        DescribedSet.progression(Z, 0, -1).union(DescribedSet.progression(Z, 0, -3)),
    ]
    woo = bo.order_type_omega(Z)
    wo = bo.well_ordered(Z)
    rwo = bo.reverse_well_ordered(Z)
    failures = []
    cases = 0
    for s in battery:
        cases += 1
        if bo.perp(woo).is_bounded(s) is not rwo.is_bounded(s):
            failures.append(("perp(wo_omega) != rwo", s.format()))
        if bo.perp(bo.perp(woo)).is_bounded(s) is not wo.is_bounded(s):
            failures.append(("biperp(wo_omega) != wo", s.format()))
        # Galois embedding: bounded in f implies bounded in f-perp-perp
        for f in (woo, wo, rwo, bo.finite_subsets(Z)):
            if f.is_bounded(s) is Verdict.BOUNDED:
                v = bo.perp(bo.perp(f)).is_bounded(s)
                if v is Verdict.UNBOUNDED:
                    failures.append(("f not within biperp(f)", f.kind, s.format()))
        # antitone: finite within all, so perp(all) within perp(finite)
        if bo.perp(bo.all_subsets(Z)).is_bounded(s) is Verdict.BOUNDED:
            if bo.perp(bo.finite_subsets(Z)).is_bounded(s) is Verdict.UNBOUNDED:
                failures.append(("perp not antitone", s.format()))
    return _report("bornology-galois", seed, window, cases, failures)


def _random_banded_map(rng, space, size):
    """A random map whose row d has its entries on d - 3, ..., d + 3."""
    entries = {
        d: {
            g: rng.randint(-4, 4)
            for g in range(max(0, d - 3), d + 4)
        }
        for d in range(size + 4)
    }
    return matrix_map(
        space,
        lambda d: entries.get(d, {}),
        lambda g: [d for d, row in entries.items() if row.get(g)],
    )


def suite_duality(seed=0, window=16):
    rng = random.Random(seed)
    N = Naturals()
    V = Space(QQ, N, bo.all_subsets(N))
    Vd = Space(QQ, N, bo.finite_subsets(N))
    failures = []
    for case in range(200):
        m = _random_banded_map(rng, V, window)
        f = V.series({i: rng.randint(-5, 5) for i in range(window)})
        g = Vd.series({i: rng.randint(-5, 5) for i in range(window)})
        lhs = pairing(m.apply(f), g, declared_dual=True)
        rhs = pairing(f, m.dual().apply(g), declared_dual=True)
        if lhs != rhs:
            failures.append(("adjunction", case))
        dd = m.dual().dual()
        if not dd.apply(f).eq_window(m.apply(f), window):
            failures.append(("dual-dual", case))
    return _report("duality", seed, window, 200, failures)


def suite_functional_roundtrip(seed=0, window=16):
    rng = random.Random(seed)
    N = Naturals()
    V = Space(QQ, N, bo.all_subsets(N))
    Vd = Space(QQ, N, bo.finite_subsets(N))
    failures = []
    for case in range(100):
        g = Vd.series({rng.randint(0, window): rng.randint(-6, 6) for _ in range(4)})
        xi = series_to_functional(g)
        back = functional_to_series(xi)
        if not back.eq_window(g, window):
            failures.append(("series-functional-series", case))
        f = V.series({i: rng.randint(-4, 4) for i in range(window)})
        if xi.apply(f).coeff("*") != pairing(f, g, declared_dual=True):
            failures.append(("functional value", case))
    return _report("functional-roundtrip", seed, window, 100, failures)


def suite_hahn_ring(seed=0, window=16):
    rng = random.Random(seed)
    sp = _hahn_space()
    failures = []
    for case in range(300):
        f, g, h = (_random_poly(rng, sp) for _ in range(3))
        if not cauchy_product(cauchy_product(f, g), h).eq_window(
            cauchy_product(f, cauchy_product(g, h)), window
        ):
            failures.append(("associativity", case))
        if not cauchy_product(f, g).eq_window(cauchy_product(g, f), window):
            failures.append(("commutativity", case))
        if not cauchy_product(f, add(g, h)).eq_window(
            add(cauchy_product(f, g), cauchy_product(f, h)), window
        ):
            failures.append(("distributivity", case))
    for case in range(100):
        f = _random_unit(rng, sp)
        g = _random_unit(rng, sp)
        (gf, cf) = leading_term(f)
        (gg, cg) = leading_term(g)
        lt = leading_term(cauchy_product(f, g))
        if lt is None or lt[0] != sp.universe.op(gf, gg) or lt[1] != cf * cg:
            failures.append(("valuation additivity", case))
    return _report("hahn-ring", seed, window, 400, failures)


def _random_eps(rng, sp):
    """A grid series with support strictly above the unit."""
    u = sp.universe
    gens = []
    for _ in range(rng.randint(1, 2)):
        q = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        gens.append(u.check((q,)))
    terms = {}
    base = gens[rng.randrange(len(gens))]
    terms[base] = rng.randint(1, 3)
    for g in gens:
        terms[u.op(base, g)] = rng.randint(-3, 3)
    return sp.series(terms)


def suite_neumann(seed=0, window=24):
    rng = random.Random(seed)
    sp = _hahn_space()
    one = sp.delta(sp.universe.unit)
    failures = []
    for case in range(50):
        eps = _random_eps(rng, sp)
        N = rng.randint(0, 8)
        partial = one
        power = one
        for _ in range(N):
            power = cauchy_product(power, eps)
            partial = add(partial, power)
        lhs = cauchy_product(sub(one, eps), partial)
        rhs = sub(one, cauchy_product(power, eps))
        if not lhs.eq_window(rhs, window):
            failures.append(("partial-sum identity", case, N))
    for case in range(50):
        f = _random_unit(rng, sp)
        if not cauchy_product(f, invert_unit(f)).eq_window(one, window):
            failures.append(("inverse round-trip", case))
    fib = invert_unit(sp.series({sp.universe.unit: 1,
                                 sp.universe.check((Fraction(1),)): -1,
                                 sp.universe.check((Fraction(2),)): -1}))
    got = [fib.coeff(sp.universe.check((Fraction(n),))) for n in range(6)]
    if got != [1, 1, 2, 3, 5, 8]:
        failures.append(("fibonacci", got))
    return _report("neumann", seed, window, 101, failures)


def _random_grid_family(rng, sp, size=4):
    members = []
    for _ in range(size):
        members.append(_random_poly(rng, sp, max_terms=3, denom=2, lo=0, hi=5))
    return finite_family(members)


def suite_summability(seed=0, window=16):
    rng = random.Random(seed)
    sp = _hahn_space()
    failures = []
    for case in range(100):
        fam = _random_grid_family(rng, sp)
        if check_summable(fam, window)["verdict"] == "rejected":
            failures.append(("family rejected", case))
            continue
        w = [QQ.of(rng.randint(-3, 3)) for _ in fam.index]
        total = family_sum(fam, lambda i: w[i], precheck=False)
        # (a) the finite family sums to the ordinary sum
        direct = sp.zero()
        for i in fam.index:
            direct = add(direct, sp.series({g: w[i] * c
                                            for g, c in fam.member(i).terms.items()}))
        if not total.eq_window(direct, window):
            failures.append(("finite sum", case))
        # (b) permutation invariance
        perm = list(fam.index)
        rng.shuffle(perm)
        pf = finite_family([fam.member(i) for i in perm])
        if not family_sum(pf, lambda j: w[perm[j]], precheck=False).eq_window(total, window):
            failures.append(("permutation", case))
        # (c) zero padding
        zf = finite_family([fam.member(i) for i in fam.index] + [sp.zero(), sp.zero()])
        wz = w + [QQ.of(7), QQ.of(-7)]
        if not family_sum(zf, lambda j: wz[j], precheck=False).eq_window(total, window):
            failures.append(("zero padding", case))
        # (d) rescaling keeps summability and scales the sum
        c = QQ.of(rng.randint(1, 5))
        if not family_sum(fam, lambda i: c * w[i], precheck=False).eq_window(
            scale(c, total), window
        ):
            failures.append(("rescaling", case))
        # (B2)-style regrouping: a column-finite reindexing with injective
        # source bookkeeping sums to the same series
        k = len(fam.index)
        matrix = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        regrouped = finite_family([
            linear_combination([(matrix[i][j], fam.member(j)) for j in range(k)])
            for i in range(k)
        ])
        wr = [QQ.of(rng.randint(-2, 2)) for _ in range(k)]
        lhs = family_sum(regrouped, lambda i: wr[i], precheck=False)
        direct2 = linear_combination([
            (sum(wr[i] * matrix[i][j] for i in range(k)), fam.member(j))
            for j in range(k)
        ])
        if not lhs.eq_window(direct2, window):
            failures.append(("regrouping", case))
    return _report("summability", seed, window, 100, failures)


def suite_basis(seed=0, window=12):
    rng = random.Random(seed)
    failures = []
    for case in range(20):
        nrows = rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            rows.append({rng.randint(0, 7): Fraction(rng.randint(-4, 4))
                         for _ in range(rng.randint(1, 4))})
        fam = FunctionalFamily(rows)
        cb = dual_basis_construction(fam, window)
        width = max(len(v) for v in cb.vectors)
        mat = [v + [Fraction(0)] * (width - len(v)) for v in cb.vectors]
        if rank(mat) != len(cb.vectors):
            failures.append(("independence", case))
        lists = fam.as_lists()
        for m, row in enumerate(lists):
            for n in range(cb.bounds[m], len(cb.vectors)):
                v = cb.vectors[n]
                if sum(row[i] * v[i] for i in range(min(len(row), len(v)))) != 0:
                    failures.append(("annihilation", case, m, n))
            cmap = dict(cb.recovery[m])
            for i, v in enumerate(cb.vectors):
                val = sum(row[k] * v[k] for k in range(min(len(row), len(v))))
                if val != cmap.get(i, Fraction(0)):
                    failures.append(("recovery", case, m, i))
    return _report("basis", seed, window, 20, failures)


def suite_idempotence(seed=0, window=16):
    batteries = [
        [PatternGenerator({0: 1, 1: -1}, 1)],
        [PatternGenerator({0: 1, 2: 1}, 2)],
        [PatternGenerator({0: 1, 1: 1, 2: 1}, 3),
         PatternGenerator({0: 2, 1: -1}, 1)],
        [PatternGenerator({1: 1, 3: -2}, 2)],
    ]
    failures = []
    cases = 0
    for gens in batteries:
        cases += 1
        report = idempotence_check(gens, window)  # raises with witness on FAIL
        if report["verdict"] != "PASS":
            failures.append(("idempotence", cases))
    return _report("idempotence", seed, window, cases, failures)


def _random_pair_set(rng, NN):
    """Returns (set, left_proj_finite, right_proj_finite); the flags are
    ground truth known at construction time."""
    N = NN.left
    kind = rng.randrange(5)
    if kind == 0:
        pts = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(4)]
        return DescribedSet.finite(NN, pts), True, True
    if kind == 1:
        a = DescribedSet.finite(N, list(range(rng.randint(1, 5))))
        b = DescribedSet.progression(N, rng.randint(0, 3), rng.randint(1, 2))
        return DescribedSet.product(NN, a, b), True, False
    if kind == 2:
        start = (rng.randint(0, 3), rng.randint(0, 3))
        step = rng.choice([(1, 1), (1, 2), (2, 1)])
        return DescribedSet.progression(NN, start, step), False, False
    if kind == 3:
        return DescribedSet.progression(NN, (rng.randint(0, 2), 0), (1, 0)), False, True
    a = DescribedSet.progression(N, 0, 1)
    b = DescribedSet.finite(N, [rng.randint(0, 4)])
    return DescribedSet.product(NN, a, b), False, True


def suite_tensor_hom(seed=0, window=12):
    rng = random.Random(seed)
    N = Naturals()
    NN = PairUniverse(N, N)
    kinds = {
        "finite": bo.finite_subsets(N),
        "all": bo.all_subsets(N),
    }
    failures = []
    cases = 0
    for case in range(100):
        s, left_fin, right_fin = _random_pair_set(rng, NN)
        fk = rng.choice(list(kinds))
        gk = rng.choice(list(kinds))
        f, g = kinds[fk], kinds[gk]
        # ground truth for the product bornology: bounded iff each projection
        # is finite or the corresponding factor bornology is the full one
        truth = (left_fin or fk == "all") and (right_fin or gk == "all")
        cases += 1
        v = bo.product_bornology(f, g, NN).is_bounded(s)
        if v is Verdict.BOUNDED and not truth:
            failures.append(("product false bounded", case, s.format(), fk, gk))
        if v is Verdict.UNBOUNDED and truth:
            failures.append(("product false unbounded", case, s.format(), fk, gk))
        # ground truth for the hom bornology on rectangles: the left factor
        # must be bounded in perp(f) (always for f=finite, finite for f=all)
        # and the right factor bounded in g
        if s.atoms and type(s.atoms[0]).__name__ == "ProductAtom":
            truth_h = (fk == "finite" or left_fin) and (gk == "all" or right_fin)
            cases += 1
            vh = bo.hom_bornology(f, g, NN).is_bounded(s)
            if vh is Verdict.BOUNDED and not truth_h:
                failures.append(("hom false bounded", case, s.format(), fk, gk))
            if vh is Verdict.UNBOUNDED and truth_h:
                failures.append(("hom false unbounded", case, s.format(), fk, gk))
    # interchange on certified family pairs
    V = Space(QQ, N, bo.all_subsets(N))
    for case in range(30):
        fams = []
        for _ in range(2):
            fams.append(finite_family(
                [V.series({rng.randint(0, 6): rng.randint(-3, 3)}) for _ in range(3)]
            ))
        f1, f2 = fams
        s1 = family_sum(f1, precheck=False)
        s2 = family_sum(f2, precheck=False)
        u = PairUniverse(N, N)
        space = Space(QQ, u, bo.product_bornology(V.bornology, V.bornology, u))
        lhs = pure_tensor(space, s1, s2)
        rhs = space.zero()
        for i in f1.index:
            for j in f2.index:
                rhs = add(rhs, pure_tensor(space, f1.member(i), f2.member(j)))
        ok = all(
            lhs.coeff((a, b)) == rhs.coeff((a, b))
            for a in range(window) for b in range(window)
        )
        cases += 1
        if not ok:
            failures.append(("interchange", case))
    return _report("tensor-hom", seed, window, cases, failures)


def suite_derivation(seed=0, window=16):
    rng = random.Random(seed)
    sp = _hahn_space()
    D = euler_derivation(sp)
    failures = []
    for case in range(100):
        f = _random_poly(rng, sp, lo=0)
        g = _random_poly(rng, sp, lo=0)
        lhs = D.apply(cauchy_product(f, g))
        rhs = add(cauchy_product(f, D.apply(g)), cauchy_product(g, D.apply(f)))
        if not lhs.eq_window(rhs, window):
            failures.append(("leibniz", case))
    for case in range(30):
        fam = _random_grid_family(rng, sp, size=3)
        w = [QQ.of(rng.randint(-3, 3)) for _ in fam.index]
        lhs = D.apply(family_sum(fam, lambda i: w[i], precheck=False))
        rhs = sp.zero()
        for i in fam.index:
            rhs = add(rhs, scale(w[i], D.apply(fam.member(i))))
        if not lhs.eq_window(rhs, window):
            failures.append(("strong linearity", case))
    return _report("derivation", seed, window, 130, failures)


SUITES = {
    "bornology-galois": suite_bornology_galois,
    "duality": suite_duality,
    "functional-roundtrip": suite_functional_roundtrip,
    "hahn-ring": suite_hahn_ring,
    "neumann": suite_neumann,
    "summability": suite_summability,
    "basis": suite_basis,
    "idempotence": suite_idempotence,
    "tensor-hom": suite_tensor_hom,
    "derivation": suite_derivation,
}


def run_suite(name, seed=0, window=None):
    if name not in SUITES:
        raise SuiteError(
            "unknown suite %r; available: %s" % (name, ", ".join(sorted(SUITES)))
        )
    fn = SUITES[name]
    if window is None:
        return fn(seed=seed)
    return fn(seed=seed, window=window)
