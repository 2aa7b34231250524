"""The `sigma` command: eval, check, repl, flags, output formats."""

import contextlib
import gc
import io
import json
import math
import sys
import weakref
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import invoke, time_limit
from sigmavect import expr
from sigmavect.cli import main
from test_acceptance import GOLDEN_EXPRS


def run(*args, input=None):
    return invoke(args, input=input)


def test_eval_expression():
    r = run("eval", "-e", "truncate((1 - x - x^2)^-1, x^5)")
    assert r.exit_code == 0
    assert r.output.strip() == "1 + x + 2*x^2 + 3*x^3 + 5*x^4 + 8*x^5"


def test_eval_multiple_expressions():
    r = run("eval", "-e", "1 + 1", "-e", "pair(e1, ones)")
    assert r.exit_code == 0
    assert r.output.splitlines() == ["2", "1"]


def test_eval_from_file(tmp_path):
    p = tmp_path / "exprs.txt"
    p.write_text("# comment\n\nx * x\npair(e0, ones)\n")
    r = run("eval", "-f", str(p))
    assert r.exit_code == 0
    assert r.output.splitlines() == ["x^2", "1"]


def test_eval_requires_input():
    r = run("eval")
    assert r.exit_code != 0
    assert "nothing to evaluate" in r.output


def test_golden_outputs_are_pinned():
    # the text and JSON output of the golden expressions, byte for byte
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))
    assert sorted(golden) == ["fp:7", "rational"]
    for field, formats in golden.items():
        assert sorted(formats) == ["json", "text"]
        for fmt, outputs in formats.items():
            assert list(outputs) == GOLDEN_EXPRS
            for text, want in outputs.items():
                r = run("--field", field, "--format", fmt, "eval", "-e", text)
                assert (r.exit_code, r.output) == (0, want), (field, fmt, text)


def test_eval_json_format():
    r = run("--format", "json", "eval", "-e", "x + x")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload["schema"] == "sigma.v1"
    assert payload["kind"] == "eval"
    assert payload["result"]["type"] == "series"
    assert payload["result"]["value"]["terms"] == [["x", "2"]]


def test_eval_window_flag():
    long = run("--window", "8", "eval", "-e", "truncate((1-x)^-1, x^20)").output
    assert "x^7" in long and "x^8" not in long


def test_window_must_be_positive():
    # a window of 0 printed 0 for x + 1 and passed the ring laws on empty
    # windows; a negative one ended in a traceback
    for window in ("0", "-1"):
        for args in (["eval", "-e", "x + 1"], ["--format", "json", "eval", "-e", "x"],
                     ["check", "--suite", "hahn-ring"]):
            r = run("--window", window, *args)
            assert r.exit_code == 2, (window, args)
            assert isinstance(r.exception, SystemExit)
            assert "Invalid value for '--window'" in r.output
    assert run("--window", "1", "eval", "-e", "x + 1").output.strip() == "1"


def test_eval_field_flag():
    r = run("--field", "fp:5", "eval", "-e", "truncate((1 - x)^-1, x^2) * 4")
    assert r.exit_code == 0
    assert r.output.strip() == "4 + 4*x + 4*x^2"


def test_eval_bad_field():
    r = run("--field", "real", "eval", "-e", "1")
    assert r.exit_code != 0


def test_eval_parse_error_sets_exit_code():
    r = run("eval", "-e", "1 +")
    assert r.exit_code == 1
    assert "line 1" in r.output


def assert_one_line_error(r, text):
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)  # no traceback escaped
    assert r.output.splitlines() == [r.output.strip()]
    assert r.output.startswith("error: ") and text in r.output


def test_eval_zero_exponent_denominator_is_a_diagnostic():
    r = run("eval", "-e", "truncate(x^(1/0), x)")
    assert_one_line_error(r, "division by zero")


def test_eval_grid_generator_below_unit_is_a_diagnostic():
    r = run("eval", "-e", "grid(x; x^-1)")
    assert_one_line_error(r, "not above the unit")


def test_eval_division_by_p_in_fp_is_a_diagnostic():
    r = run("--field", "fp:7", "eval", "-e", "x/7")
    assert_one_line_error(r, "inverse of 0 in GF(7)")


def test_scalar_powers_under_fp():
    # 2^-2 = 1/4 = 2 and 3^3 = 27 = 6 in GF(7)
    assert run("--field", "fp:7", "eval", "-e", "2^-2").output.strip() == "2"
    assert run("--field", "fp:7", "eval", "-e", "3^3").output.strip() == "6"
    assert run("eval", "-e", "2^-2").output.strip() == "1/4"


def test_negative_power_of_zero_under_fp_is_a_diagnostic():
    r = run("--field", "fp:7", "eval", "-e", "0^-1")
    assert_one_line_error(r, "division by zero")


def test_composite_fp_modulus_is_a_usage_error():
    # 1065023 = 1031 * 1033: there 1/1031 has no inverse to print
    r = run("--field", "fp:1065023", "eval", "-e", "1/1031")
    assert r.exit_code == 2
    assert "1065023 is not prime" in r.output
    assert "Traceback" not in r.output and isinstance(r.exception, SystemExit)
    assert "466012" not in r.output


def test_sigmaspan_under_fp_reduces_coefficients_mod_p():
    r = run("--field", "fp:7", "eval", "-e", "sigmaspan(e0 + e1; 8*e0 + 8*e1)")
    assert r.exit_code == 0 and r.output.strip() == "accepted"
    # 8 = 1 in GF(7), so e0 + 8*e1 is e0 + e1 there but not over Q
    r = run("--field", "fp:7", "eval", "-e", "sigmaspan(e0 + e1; e0 + 8*e1)")
    assert r.exit_code == 0 and r.output.strip() == "accepted"
    r = run("eval", "-e", "sigmaspan(e0 + e1; e0 + 8*e1)")
    assert r.exit_code == 0 and r.output.strip() == "rejected"


def test_sigmaspan_of_vectors_is_exact_past_the_window():
    # no vector e_n with n >= the window was ever dropped: the vectors and the
    # candidate are compared on every coordinate they touch
    for field in ("rational", "fp:7"):
        for e in ("sigmaspan(e0; e40)", "sigmaspan(e0 + e40; e0)", "sigmaspan(e0; e100000)"):
            with time_limit(5):
                r = run("--field", field, "eval", "-e", e)
            assert r.exit_code == 0 and r.output.strip() == "rejected", e
        r = run("--field", field, "eval", "-e", "sigmaspan(e40 - e7, e7; 2*e40)")
        assert r.exit_code == 0 and r.output.strip() == "accepted"


def test_sigmaspan_with_a_pattern_needs_a_window_that_holds_it():
    # no summable sum of the members e_80k + e_(80k+40) is e0: coordinate 40
    # would get the coefficient of e0
    for field in ("rational", "fp:7"):
        r = run("--field", field, "eval", "-e", "sigmaspan(pattern(e0 + e40, 80); e0)")
        assert_one_line_error(r, "it needs --window 41 or more")
        r = run("--field", field, "--window", "48", "eval", "-e",
                "sigmaspan(pattern(e0 + e40, 80); e0)")
        assert r.exit_code == 0 and r.output.strip() == "rejected"
        r = run("--field", field, "--window", "1", "eval", "-e",
                "sigmaspan(pattern(e0 + e1, 2); e0)")
        assert_one_line_error(r, "it needs --window 2 or more")
        # a vector beside a pattern, and the candidate, must fit too
        for e in ("sigmaspan(pattern(e0, 2), e1 + e41; e1)", "sigmaspan(pattern(e0, 2); e41)"):
            assert_one_line_error(run("--field", field, "eval", "-e", e),
                                  "it needs --window 42 or more")
        # a window rejected is exact: the refuting functional lies inside
        # the window, so no window has to hold the list
        r = run("--field", field, "eval", "-e", "sigmaspan(pattern(e0 + e40, 80); e1)")
        assert r.exit_code == 0 and r.output.strip() == "rejected"


def test_basis_under_fp_matches_the_rational_basis_of_the_reduced_row():
    r = run("--field", "fp:7", "eval", "-e", "basis([e0 + 7*e1], 2)")
    assert r.exit_code == 0 and r.output.strip() == "(1); (0, 1)"
    assert run("eval", "-e", "basis([e0], 2)").output.strip() == "(1); (0, 1)"


def test_basis_depth_is_limited():
    # a basis of depth d prints about d^2/2 entries
    limit = expr.BASIS_DEPTH_LIMIT
    r = run("eval", "-e", "basis([e0], %d)" % limit)
    assert r.exit_code == 0 and r.output.count(";") == limit - 1
    for field in ("rational", "fp:7"):
        for depth in (str(limit + 1), "5000", "(9^3)^2"):
            with time_limit(5):
                r = run("--field", field, "eval", "-e", "basis([e0], %s)" % depth)
            assert_one_line_error(r, "above the limit %d" % limit)


def test_pattern_step_under_fp_is_read_as_an_integer():
    # a step of 9 mod 7 = 2 would leave e0 outside the span
    r = run("--field", "fp:7", "eval", "-e", "sigmaspan(pattern(e0 - e9, 9); e0)")
    assert r.exit_code == 0 and r.output.strip() == "accepted"
    r = run("--field", "fp:7", "eval", "-e", "pattern(e0, 1/2)")
    assert_one_line_error(r, "pattern step must be an integer")


def test_closure_error_is_a_diagnostic():
    for field in ("rational", "fp:7"):
        r = run("--field", field, "eval", "-e", "sigmaspan(pattern(e0 - e1, 0); e0)")
        assert_one_line_error(r, "pattern step must be positive")


def test_in_process_invocations_release_their_output_streams():
    # an embedding caller redirects stdout around each call; the CLI must
    # not keep those streams (and the text written to them) alive
    refs = []
    for _ in range(3):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main.main(args=["eval", "-e", "1 + 1"], prog_name="sigma", standalone_mode=False)
        assert buf.getvalue() == "2\n"
        refs.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_check_suite_text():
    r = run("check", "--suite", "bornology-galois")
    assert r.exit_code == 0
    assert "PASS" in r.output


def test_check_suite_json():
    r = run("--format", "json", "--seed", "3", "--window", "12",
            "check", "--suite", "basis")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload["schema"] == "sigma.v1"
    assert payload["report"]["verdict"] == "PASS"
    assert payload["report"]["seed"] == 3


def test_check_unknown_suite():
    r = run("check", "--suite", "bogus")
    assert r.exit_code != 0
    assert "unknown suite" in r.output


def test_repl_evaluates_and_exits():
    r = run("repl", input="x + x^2\nexit\n")
    assert r.exit_code == 0
    assert "x + x^2" in r.output


def test_repl_recovers_from_errors():
    r = run("repl", input="1 +\n2 * 3\nexit\n")
    assert r.exit_code == 0
    assert "6" in r.output
    assert "error" in r.output


def test_oversized_numbers_are_diagnostics():
    for text in ("2^20000", "2^14000 * 2^14000", "x^(2^(2^20))", "9^9^9", "e1" + "0" * 5000):
        with time_limit(5):
            r = run("eval", "-e", text)
        assert_one_line_error(r, "more than 4300 decimal digits")
    # exponents too long to print reach the printer, not the arithmetic
    for text in ("x^(2^14000 * 2^14000)", "x^(1/(2^14000 * 2^14000))"):
        with time_limit(5):
            r = run("eval", "-e", text)
            assert_one_line_error(r, "more than 4300 decimal digits")
            r = run("--format", "json", "eval", "-e", text)
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert json.loads(r.output)["message"] == "error: number too large: more than 4300 decimal digits"
    # 2^14000 has 4215 digits; in GF(7) every power is a residue
    assert len(run("eval", "-e", "2^14000").output.strip()) == 4215
    assert run("--field", "fp:7", "eval", "-e", "2^20000").output.strip() == str(pow(2, 20000, 7))


def test_sequence_vectors_print_in_the_input_grammar():
    assert run("eval", "-e", "e0 + 7*e1").output.strip() == "e0 + 7*e1"
    assert run("eval", "-e", "e0 + e7").output.strip() == "e0 + e7"
    assert run("eval", "-e", "3*e1 + e100").output.strip() == "3*e1 + e100"
    r = run("--format", "json", "eval", "-e", "e0 + 7*e1")
    assert json.loads(r.output)["result"]["value"]["terms"] == [["0", "1"], ["1", "7"]]


def test_patterns_print_as_their_call():
    for _ in range(2):  # the same text on every run, no memory address
        assert run("eval", "-e", "pattern(e0 - e1, 2)").output.strip() == "pattern(e0 + -1*e1, 2)"
    r = run("--format", "json", "eval", "-e", "pattern(e0 - e1, 2)")
    assert json.loads(r.output)["result"] == {"type": "pattern", "value": "pattern(e0 + -1*e1, 2)"}


def test_wrong_universe_names_both_universes():
    r = run("eval", "-e", "truncate(e1, x^(2/3))")
    assert_one_line_error(r, "truncate bound must be a monomial")
    assert "in naturals" in r.output and "in monomials" in r.output


def test_series_powers_take_logarithmically_many_products(monkeypatch):
    calls, product = [], expr.cauchy_product
    monkeypatch.setattr(expr, "cauchy_product",
                        lambda f, g, b=None: calls.append(1) or product(f, g, b))
    for n in (0, 1, 2, 5, 64, 300):
        calls.clear()
        value = expr.Evaluator().eval(expr.parse("(1 + x)^%d" % n))
        assert len(calls) <= 2 * n.bit_length()
        coeffs = {g[0]: c for g, c in value.terms.items()}
        assert coeffs == {k: math.comb(n, k) for k in range(n + 1)}
    env = expr.Env()
    env.names["p"] = expr.Evaluator(env).eval(expr.parse("1 + x"))  # f^1 is f itself
    assert expr.Evaluator(env).eval(expr.parse("p^1")) is env.names["p"]


def test_power_of_an_inverse():
    # ((1 - x)^-1)^3 = sum C(n + 2, 2) x^n
    out = run("eval", "-e", "truncate(((1 - x)^-1)^3, x^12)").output.strip()
    assert out == " + ".join(["1", "3*x"] + ["%d*x^%d" % (math.comb(n + 2, 2), n)
                                             for n in range(2, 13)])


# -- argv -----------------------------------------------------------------------

HERE = str(Path(__file__))

# (argv, exit status, output, or None where only the status is pinned);
# the cases the click-era command line answered this way
ARGV_CASES = [
    (["eval", "-e", "-x"], 0, "-1*x\n"),
    (["eval", "--expr=-x"], 0, "-1*x\n"),
    (["eval", "-ex"], 0, "x\n"),
    (["eval", "-e", "1", "--expr", "-1"], 0, "1\n-1\n"),
    (["--window=8", "eval", "-e", "x"], 0, "x\n"),
    (["--window", "8", "--window", "9", "--format=json", "--seed=-3", "--field=fp:7",
      "eval", "-e", "2"], 0, None),
    (["--wind", "8", "eval", "-e", "1"], 2, None),
    (["--window", "abc", "eval", "-e", "1"], 2, None),
    (["--format", "xml", "eval", "-e", "1"], 2, None),
    (["eval", "-e"], 2, None),
    (["eval", "--window", "8", "-e", "1"], 2, None),
    (["eval", "-f", "/missing"], 2, None),
    (["eval", "-e", "1", "-f", "/missing"], 2, None),
    (["eval", "-f", sys.executable], 2, None),  # a binary, not text in UTF-8
    (["eval", "-e", "1", "extra"], 2, None),
    (["eval", "--", "-e", "1"], 2, None),
    (["--window", "8"], 2, None),
    (["bogus"], 2, None),
    ([], 2, None),
    (["eval", "-e", "1 +"], 1, None),
]


def test_argv_contract():
    for args, status, output in ARGV_CASES:
        r = run(*args)
        assert r.exit_code == status, (args, r.output)
        assert (r.exception is None) == (status == 0), args
        assert "Traceback" not in r.output
        if output is not None:
            assert r.output == output, args


def test_help_lists_options_and_commands():
    for args, names in ((["--help"], ["--field", "--window", "--seed", "--format", "--help",
                                      "check", "eval", "repl"]),
                        (["eval", "--help"], ["-e, --expr", "-f, --file", "--help"]),
                        (["check", "--help"], ["--suite", "--help"]),
                        (["eval", "-e", "1", "--help"], ["-e, --expr"])):
        r = run(*args)
        assert r.exit_code == 0 and r.exception is None, args
        for name in names:
            assert name in r.output, (args, name)


def test_a_file_that_is_not_text_is_a_usage_error(tmp_path):
    p = tmp_path / "bytes.txt"
    p.write_bytes(b"x\xff\n")
    r = run("eval", "-f", str(p))
    assert r.exit_code == 2
    assert "Traceback" not in r.output
    # one error line, naming the file
    errors = [line for line in r.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert errors[0].startswith("Error: Invalid value for '-f' / '--file': %r cannot be read "
                                "as text: " % str(p))


def test_expressions_run_in_order_before_the_file(tmp_path):
    p = tmp_path / "exprs.txt"
    p.write_text("3\n4\n")
    r = run("eval", "-f", str(p), "-e", "1", "-e", "2")
    assert r.exit_code == 0
    assert r.output.splitlines() == ["1", "2", "3", "4"]


ARGV_TOKENS = ["--field", "--window", "--seed", "--format", "-e", "--expr", "-f", "--file",
               "--suite", "--help", "--", "-", "--wind", "-x", "--window=8", "--help=1",
               "--format=json", "--field=fp:7", "--expr=1", "-ex", "-e-x",
               "eval", "check", "repl", "bogus",
               "rational", "fp:7", "fp:4", "real", "1", "8", "0", "-1", "abc", "",
               "text", "json", "xml", "basis", "bornology-galois",
               "x", "-x", "1 +", "x/0", "pair(ones, ones)", "truncate((1-x)^-1, x^5)",
               HERE, "/missing"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=8))
def test_every_argv_ends_in_an_exit_status(args):
    with time_limit(10):
        r = run(*args)
    assert r.exit_code in (0, 1, 2), (args, r.output)
    assert r.exception is None or isinstance(r.exception, SystemExit), (args, r.exception)
    assert "Traceback" not in r.output


# -- grammar fuzzer ---------------------------------------------------------------

LEAVES = [str(d) for d in range(10)] + ["x", "x^(1/2)", "e0", "e1", "e7", "ones",
                                         "finite", "all", "wo", "rwo", "wo_omega"]


def _operand(text):
    """text as an operand: a number or a name as it is, all else in
    parentheses (a bare "(x)" would read as the tensor operator)."""
    return text if text.isidentifier() or text.isdigit() else "(%s)" % text


@st.composite
def _calls(draw, sub):
    """A builtin call in the group shape of its signature."""
    name = draw(st.sampled_from(sorted(expr.BUILTINS)))
    groups = []
    for group in expr.BUILTINS[name].split("; "):
        args = []
        for spec in group.split(", "):
            kind = spec.split(": ")[1]
            if kind == "name":
                args.append("euler")
            elif kind == "weight":
                args.append("n -> " + draw(st.one_of(st.just("n"), sub)))
            else:
                count = draw(st.integers(1, 2)) if kind.endswith("...") else 1
                args.extend(draw(sub) for _ in range(count))
        groups.append(", ".join(args))
    return "%s(%s)" % (name, "; ".join(groups))


def _exprs(depth):
    """Expressions of depth <= depth: leaves, every operator, unary minus,
    lists and every builtin in its group shape."""
    leaf = st.sampled_from(LEAVES)
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    operand = sub.map(_operand)
    return st.one_of(
        leaf,
        st.tuples(operand, st.sampled_from(["+", "-", "*", "/", "(x)"]), operand).map(" ".join),
        operand.map("-".__add__),
        st.tuples(operand, st.sampled_from(["-1", "0", "(1/2)", "2", "3"])).map("^".join),
        st.lists(sub, min_size=1, max_size=2).map(lambda items: "[%s]" % ", ".join(items)),
        _calls(sub),
    )


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_exprs(3))
@example("truncate(2, x)")
@example("lead(finite)")
@example("pair(2, e1)")
@example("derive(euler, 2)")
@example("derive(euler, e0)")
@example("basis([e0], 5000)")
@example("shift(2, x)")
@example("grid(x^(1/2); e0)")
@example("shift(e0, x^-1)")
@example("truncate(e1, x^(2/3))")
@example("e1^(1/2)")
@example("sum(grid(1; x), n -> x)")
@example("9^9^9")
def test_every_expression_ends_in_a_value_or_one_error_line(text):
    for field in ("rational", "fp:7"):
        with time_limit(10):
            r = run("--field", field, "eval", "-e", text)
        if r.exit_code != 0:
            assert_one_line_error(r, "")
