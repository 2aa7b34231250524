"""Expression language: tokens, parsing, printing, evaluation, diagnostics.

Oracle notes: golden evaluation strings are frozen from independent facts
(Fibonacci recurrence, geometric series, hand-computed pairings) [DERIVED];
the printer is checked by parse/print round-trips.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmavect.expr import (
    Binary,
    Call,
    Diagnostic,
    Env,
    EvalError,
    Evaluator,
    Lambda,
    Name,
    Num,
    Unary,
    evaluate,
    parse,
    print_expr,
    render,
)
from sigmavect.scalars import GF, QQ
from sigmavect.series import FiniteSeries


def test_tokenizer_reports_position():
    with pytest.raises(Diagnostic) as exc:
        parse("x + $")
    assert exc.value.line == 1
    assert exc.value.col == 5


def test_parse_precedence():
    # a + b * c parses as a + (b * c)
    ast = parse("1 + 2 * 3")
    assert isinstance(ast, Binary) and ast.op == "+"
    assert isinstance(ast.right, Binary) and ast.right.op == "*"


def test_parse_power_binds_tighter_than_unary():
    ast = parse("-x^2")
    assert isinstance(ast, Unary)
    assert isinstance(ast.arg, Binary) and ast.arg.op == "^"


def test_parse_tensor_lowest():
    ast = parse("e0 + e1 (x) e2")
    assert isinstance(ast, Binary) and ast.op == "(x)"


def test_call_groups_split_on_semicolons():
    ast = parse("grid(1; x, x^2)")
    assert isinstance(ast, Call)
    assert len(ast.groups) == 2
    assert len(ast.groups[1]) == 2


def test_lambda_only_as_argument():
    ast = parse("sum(grid(1; x), n -> n)")
    lam = ast.groups[0][1]
    assert isinstance(lam, Lambda) and lam.var == "n"
    with pytest.raises(Diagnostic):
        parse("n -> n")


def test_print_parse_roundtrip_examples():
    for text in [
        "1 + 2*x",
        "-(x + 1)*x^2",
        "pair(e0 - 2*e3, ones)",
        "sum(grid(1; x), n -> 1/(n + 1))",
        "truncate((1 - x - x^2)^-1, x^5)",
        "e0 (x) e1 + e2 (x) e3",
        "perp(perp(wo_omega))",
    ]:
        ast = parse(text)
        printed = print_expr(ast)
        assert print_expr(parse(printed)) == printed


# random AST generator for the round-trip property
names = st.sampled_from(["x", "ones", "e0", "e1", "wo"])
nums = st.integers(0, 9).map(Num)


def asts(depth):
    if depth == 0:
        return st.one_of(nums, names.map(Name))
    sub = asts(depth - 1)
    return st.one_of(
        nums,
        names.map(Name),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
            lambda t: Binary(t[0], t[1], t[2])
        ),
        sub.map(lambda a: Unary("-", a)),
    )


@settings(max_examples=100, deadline=None)
@given(asts(3))
def test_print_parse_roundtrip_random(ast):
    printed = print_expr(ast)
    assert print_expr(parse(printed)) == printed


GOLDEN = [
    # independent facts: Fibonacci recurrence, geometric sums, dot products
    ("truncate((1 - x - x^2)^-1, x^5)", "1 + x + 2*x^2 + 3*x^3 + 5*x^4 + 8*x^5"),
    ("truncate((1 - x)^-1, x^4)", "1 + x + x^2 + x^3 + x^4"),
    ("pair(e0 - 2*e3, ones)", "-1"),
    ("pair(e1, ones)", "1"),
    ("perp(perp(wo_omega))", "wo"),
    ("perp(finite)", "all"),
    ("lead(3*x^2 + x^3)", "3*x^2"),
    ("truncate(sum(grid(1; x), n -> 1), x^3)", "1 + x + x^2 + x^3"),
    ("truncate(sum(grid(x; x), n -> 1), x^3)", "x + x^2 + x^3"),
    ("x^(1/2) * x^(3/2)", "x^2"),
    ("(1 + x) * (1 - x)", "1 + -1*x^2"),
]


def test_golden_evaluations():
    env = Env()
    for text, want in GOLDEN:
        got = evaluate(text, env=env)
        assert got == want, (text, got, want)


def test_env_builds_each_name_on_its_first_lookup():
    env = Env()
    assert env.names == {} and "seq_space" not in vars(env)
    assert evaluate("1 + 2", env=env) == "3" and env.names == {}
    ones = env.lookup("ones")
    assert env.lookup("ones") is ones and sorted(env.names) == ["ones"]
    assert evaluate("perp(finite)", env=env) == "all"
    assert evaluate("pair(e1 + e3, ones)", env=env) == "2"
    assert sorted(env.names) == ["finite", "ones"]
    with pytest.raises(EvalError, match="unknown name 'y'"):
        env.lookup("y")
    # another context builds its own values
    assert Env().lookup("ones") is not ones


def test_eval_scalar_arithmetic():
    assert evaluate("1/2 + 1/3") == "5/6"
    assert evaluate("2^10") == "1024"


def test_eval_in_prime_field():
    env = Env(field=GF(7))
    assert evaluate("truncate((1 - 3*x)^-1, x^3)", env=env) == "1 + 3*x + 2*x^2 + 6*x^3"


def test_eval_derive():
    out = evaluate("derive(euler, x^2 + x^5)", env=Env())
    assert out == "2*x^2 + 5*x^5"


def test_eval_shift():
    assert evaluate("shift(1 + x, x^2)") == "x^2 + x^3"
    # a shift is the product with its monomial, under one certificate
    ev = Evaluator(Env())
    product, shifted = (ev.eval(parse(e)) for e in ("e3 * ones", "shift(ones, e3)"))
    assert product.certificate == shifted.certificate
    assert shifted.certificate.format() == "prog(3; 1)"


def test_repeated_terms_certify_each_atom_once():
    triple = Evaluator(Env()).eval(parse("ones + ones + ones"))
    assert triple.certificate.format() == "prog(0; 1)"
    assert triple.coeff(5) == 3


def test_eval_sigmaspan():
    out = evaluate("sigmaspan(pattern(e0 - e1, 1); e0)")
    assert out == "accepted"
    out = evaluate("sigmaspan(e0; e1)")
    assert out == "rejected"


def test_eval_basis():
    out = evaluate("basis([e0 + e1], 3)")
    assert ";" in out  # several basis vectors rendered


def test_unknown_name_is_eval_error():
    with pytest.raises(EvalError):
        evaluate("nosuchname + 1")


def test_type_error_mentions_operator():
    with pytest.raises(EvalError):
        evaluate("wo + 1")


def test_diagnostic_expected_set():
    with pytest.raises(Diagnostic) as exc:
        parse("pair(e0,")
    assert exc.value.expected


# a nonzero finite series on x or on the naturals; the zero series prints as
# the scalar 0, and a constant series c on x as the scalar c, which the
# language reads as c times the unit monomial
exponents = st.fractions(-3, 3, max_denominator=3)
coefficients = st.fractions(-5, 5, max_denominator=4).filter(bool)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.booleans(),
       st.dictionaries(exponents, coefficients, min_size=1, max_size=5),
       st.dictionaries(st.integers(0, 40), coefficients, min_size=1, max_size=5))
def test_rendering_of_a_finite_series_evaluates_to_it(field, on_x, x_terms, nat_terms):
    env = Env(field=field)
    if on_x:
        terms = {env.X.monomial(x=e): c for e, c in x_terms.items()}
        space = env.hahn_space
    else:
        terms, space = nat_terms, env.seq_space
    terms = {g: field.of(c) for g, c in terms.items() if field.of(c)}
    if not terms:
        return
    value = space.series(terms)
    back = Evaluator(env).eval(parse(render(value)))
    if list(terms) == [env.X.unit]:
        back = space.series({env.X.unit: back})
    assert isinstance(back, FiniteSeries) and back.universe == value.universe
    assert back.terms == value.terms


def test_sum_weights_follow_the_position_past_4096_elements():
    env = Env()
    value = Evaluator(env).eval(parse("truncate(sum(grid(1; x), n -> n), x^4100)"))
    for n in (5, 4096, 4097, 4100):
        assert value.terms[env.X.monomial(x=n)] == n
