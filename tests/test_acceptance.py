"""Acceptance gate: eleven go/no-go criteria with pinned time budgets.

Run with `pytest -v tests/test_acceptance.py`; each criterion is one test,
so the verbose listing gives one pass/fail line per criterion.  Every check
is exact (rational arithmetic); the budgets below are wall-clock seconds.

Oracle notes: criteria delegate to the deterministic check suites where the
suite IS the property (algebraic identities verified exactly), and to
independent in-test oracles where an external answer exists: box-enumeration
projections for criterion 9, the Fibonacci recurrence for criterion 5
[DERIVED], byte comparison across runs for criterion 11.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import invoke
from sigmavect.bornology import Verdict, perp, product_bornology
from sigmavect.closure import (
    IdempotenceFailure,
    PatternGenerator,
    idempotence_check,
)
from sigmavect.expr import Binary, Name, Num, Unary, parse, print_expr
from sigmavect.suites import run_suite
from sigmavect.universe import Naturals, PairUniverse
from sigmavect.sets import DescribedSet


def _finish(num, label, t0, budget):
    elapsed = time.monotonic() - t0
    print("[criterion %02d] PASS %s (%.2fs < %ds)" % (num, label, elapsed, budget))
    assert elapsed < budget, "%s exceeded its %ds budget (%.2fs)" % (label, budget, elapsed)


def _suite(num, label, name, budget, **kw):
    t0 = time.monotonic()
    report = run_suite(name, **kw)
    assert report["verdict"] == "PASS", (label, report["failures"][:5])
    _finish(num, label, t0, budget)
    return report


def test_criterion_01_bornology_galois_battery():
    t0 = time.monotonic()
    report = run_suite("bornology-galois", seed=0, window=16)
    assert report["verdict"] == "PASS", report["failures"][:5]
    _finish(1, "bornology Galois battery", t0, 1)


def test_criterion_02_duality_adjunction_200_maps():
    report = _suite(2, "duality adjunction, 200 maps", "duality", 5,
                    seed=0, window=16)
    assert report["cases"] == 200


def test_criterion_03_functional_roundtrip_100():
    report = _suite(3, "functional round-trips, 100 duals", "functional-roundtrip",
                    1, seed=0, window=16)
    assert report["cases"] == 100


def test_criterion_04_hahn_ring_axioms():
    report = _suite(4, "ring axioms 300 + valuation 100", "hahn-ring", 5,
                    seed=0, window=16)
    assert report["cases"] == 400


def test_criterion_05_neumann_inversion_fibonacci():
    report = _suite(5, "geometric sums, 50+50 cases, Fibonacci", "neumann", 10,
                    seed=0, window=24)
    assert report["cases"] == 101  # 50 partial sums + 50 inversions + Fibonacci


def test_criterion_06_summability_axioms_100_seeds():
    report = _suite(6, "summability axioms + regrouping, 100 seeds",
                    "summability", 10, seed=0, window=16)
    assert report["cases"] == 100


def test_criterion_07_dual_basis_20_instances():
    report = _suite(7, "constructive dual bases, 20 instances", "basis", 5,
                    seed=0, window=12)
    assert report["cases"] == 20


def test_criterion_08_idempotence_pass_and_abort():
    t0 = time.monotonic()
    report = run_suite("idempotence", seed=0, window=16)
    assert report["verdict"] == "PASS", report["failures"][:5]
    # a failing closure must abort with a witness dump, never pass silently
    with pytest.raises(IdempotenceFailure) as exc:
        idempotence_check([PatternGenerator({0: 1, 1: -1}, 1)], 16, weaken_first=2)
    assert exc.value.witness["new_vectors"]
    assert exc.value.witness["window"] == 16
    _finish(8, "one-step span closure idempotence", t0, 10)


def _box_projection_oracle(s, box=40, cutoff=15):
    """Brute-force membership enumeration on [0,box)^2; a projection is
    infinite iff it reaches past `cutoff` (exact for the shapes generated by
    the suite: starts <= 8, steps <= 2)."""
    left, right = set(), set()
    for a in range(box):
        for b in range(box):
            if s.contains((a, b)):
                left.add(a)
                right.add(b)
    return max(left, default=0) < cutoff, max(right, default=0) < cutoff


def test_criterion_09_tensor_hom_verdicts_and_interchange():
    t0 = time.monotonic()
    report = run_suite("tensor-hom", seed=0, window=12)
    assert report["verdict"] == "PASS", report["failures"][:5]

    # independent projection oracle: re-derive ground truth by brute force
    # and confirm the product-bornology verdicts against it on 100 sets
    from sigmavect.bornology import all_subsets, finite_subsets
    from sigmavect.suites import _random_pair_set

    rng = random.Random(0)
    N = Naturals()
    NN = PairUniverse(N, N)
    kinds = {"finite": finite_subsets(N), "all": all_subsets(N)}
    for _ in range(100):
        s, lf, rf = _random_pair_set(rng, NN)
        blf, brf = _box_projection_oracle(s)
        assert (blf, brf) == (lf, rf), s.format()
        fk = rng.choice(list(kinds))
        gk = rng.choice(list(kinds))
        truth = (blf or fk == "all") and (brf or gk == "all")
        v = product_bornology(kinds[fk], kinds[gk], NN).is_bounded(s)
        assert not (v is Verdict.BOUNDED and not truth)
        assert not (v is Verdict.UNBOUNDED and truth)
    _finish(9, "tensor/hom verdicts + interchange", t0, 10)


def test_criterion_10_euler_derivation():
    report = _suite(10, "Leibniz 100 products + 30 families", "derivation", 5,
                    seed=0, window=16)
    assert report["cases"] == 130


def _random_expr(rng, depth):
    if depth == 0:
        if rng.random() < 0.5:
            return Num(rng.randint(0, 9))
        return Name(rng.choice(["x", "ones", "e0", "e1", "e2", "wo", "finite"]))
    op = rng.choice(["+", "-", "*", "/", "^", "neg", "leaf"])
    if op == "leaf":
        return _random_expr(rng, 0)
    if op == "neg":
        return Unary("-", _random_expr(rng, depth - 1))
    return Binary(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


GOLDEN_EXPRS = [
    "truncate((1 - x - x^2)^-1, x^5)",
    "truncate((1 - x)^-1, x^6)",
    "pair(e0 - 2*e3, ones)",
    "pair(e1 + e2, ones)",
    "perp(perp(wo_omega))",
    "perp(wo)",
    "perp(finite)",
    "lead(3*x^2 + x^3)",
    "truncate(sum(grid(1; x), n -> 1), x^4)",
    "truncate(sum(grid(x; x), n -> 1), x^4)",
    "x^(1/2) * x^(3/2)",
    "(1 + x) * (1 + x) * (1 + x)",
    "derive(euler, x^2 + x^5)",
    "shift(1 + x, x^3)",
    "sigmaspan(pattern(e0 - e1, 1); e0)",
    "sigmaspan(e0; e1)",
    "1/2 + 1/3",
    "2^10",
    "truncate((2*x + 2*x^(3/2))^-1, x^0)",
    "pair(e0, ones) + pair(e1, ones)",
]


def test_criterion_11_parser_roundtrip_and_golden_cli():
    t0 = time.monotonic()
    rng = random.Random(0)
    for _ in range(200):
        ast = _random_expr(rng, rng.randint(0, 4))
        printed = print_expr(ast)
        assert print_expr(parse(printed)) == printed
    assert len(GOLDEN_EXPRS) == 20

    def run_all():
        outs = []
        for e in GOLDEN_EXPRS:
            r = invoke(["eval", "-e", e])
            assert r.exit_code == 0, (e, r.output)
            outs.append(r.output)
        return outs

    first, second = run_all(), run_all()
    assert first == second  # byte-identical across runs
    _finish(11, "parser round-trip + golden CLI evals", t0, 5)
