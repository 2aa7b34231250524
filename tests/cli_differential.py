"""A seeded `sigma eval` corpus, run in-process, to compare two source trees.

    python3 tests/cli_differential.py run --src src --out new.json
    python3 tests/cli_differential.py run --src ../parent/src --out old.json
    python3 tests/cli_differential.py diff old.json new.json

`run` imports `sigmavect` from the `--src` directory (and refuses to run if
the import came from anywhere else), evaluates every corpus expression
through `cli.main(..., standalone_mode=False)` under the fields `rational`,
`fp:7` and `fp:5`, in text and JSON, and writes one JSON object mapping
"field|format|expression" to (exit status, output with stderr interleaved).
It exits 1 if any run ended in a traceback.  `diff` prints the number of
keys whose outputs differ, then the first few of them, and exits 1 if
there are any.

The corpus holds hand-picked cases, among them finite Puiseux arithmetic
whose terms have mixed exponent denominators and quotients (a finite
factor times an inverse, printed and truncated), a finite factor times a
product of two inverses, pairings of pure tensors, and then a draw from a
fixed seed: products either way round of finite
series, inverses and `sum` families, inverses, shifts, `(1 - x^(1/q))^-1`,
pairings, `lead`, truncations at bounds on and off the support, weights
that raise partway along a family, sequence products on the naturals, and
kind errors.  The standard library alone runs it, and pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import sys
import traceback
from pathlib import Path

FIELDS = ("rational", "fp:7", "fp:5")
FORMATS = ("text", "json")
WINDOW = 12  # keeps the corpus fast; a family weight that raises does so within it
SIZE = 400  # drawn expressions, after the hand-picked ones
# a finite factor times an inverse, either way round, a shift of an
# inverse and a division are each one quotient; a lazy finite factor
# (here a scalar multiple) or a second inverse keeps the product
QUOTIENTS = (
    "(1 + x) * (1 - x)^-1", "(1 - x)^-1 * (x^(1/2) + 2)",
    "(1 - x) * (1 - x)^-1", "0 * (1 - x)^-1", "(x - x) * (1 - x)^-1", "7 * (1 - x)^-1",
    "x^(1/2) * ((2 + x) * (1 - x^(1/3))^-1)",
    "shift((1 - x - x^2)^-1, x^(1/2))", "(1 + x) / (1 - x - x^2)",
    "(1 + x) * (1 - x * (1 - x)^-1)^-1",
    "(1 - x)^-1 * (1 - x^2)^-1",
)
# a finite factor times a product of two inverses, and a shift of one: a
# product whose other factor is itself a product, read point by point
PRODUCTS_OF_QUOTIENTS = (
    "(2 + x) * ((1 - x)^-1 * (1 - x^2)^-1)",
    "x^(1/2) * ((1 - x^(1/3))^-1 * (1 + x)^-1)",
    "shift((1 - x)^-1 * (1 - x^(1/2))^-1, x^(1/3))",
)


def _mono(num, den):
    if num == 0:
        return "1"
    if den == 1:
        return "x" if num == 1 else "x^%d" % num
    return "x^(%d/%d)" % (num, den)


def _poly(rng, den, lowest=0, terms=3):
    """A polynomial in x^(1/den) with nonzero coefficients, from x^(lowest/den)."""
    ks = sorted(rng.sample(range(lowest, lowest + 5), terms))
    parts = []
    for k in ks:
        c = rng.choice([-3, -2, -1, 1, 2, 3, 4, 6])
        mono = _mono(k, den)
        parts.append(str(c) if mono == "1" else mono if c == 1 else "%d*%s" % (c, mono))
    return "(" + " + ".join(parts) + ")"


def _unit(rng, den):
    return _poly(rng, den, 0, rng.randint(2, 3))


def _family(rng):
    """A `sum` over a grid of monomials of x, with a weight that may raise
    (a division by zero at one index, or a series where a scalar is due)."""
    den = rng.choice([1, 2, 3])
    base = _mono(rng.randint(0, 2), den)
    gens = ", ".join(_mono(k, den) for k in sorted(rng.sample(range(1, 4), rng.randint(1, 2))))
    weight = rng.choice(["1", "n", "n^2 - 2", "1/(n + 1)", "1/(n - 2)", "1/(n - 5)", "x",
                         "2*n + 1"])
    return "sum(grid(%s; %s), n -> %s)" % (base, gens, weight)


def _operand(rng):
    """A series: finite, an inverse, a family sum or a sum of a finite series and
    a family."""
    den = rng.choice([1, 2, 3])
    kind = rng.randrange(5)
    if kind == 0:
        return _poly(rng, den, rng.randint(-1, 2))
    if kind == 1:
        return "%s^-1" % _unit(rng, den)
    if kind == 2:
        return _family(rng)
    if kind == 3:
        return "(1 - %s)^-1" % _mono(1, rng.choice([1, 2, 3]))
    return "(%s + %s)" % (_poly(rng, den, 0, 2), _family(rng))


def corpus():
    """The fixed expression list: hand-picked cases, then SIZE drawn ones."""
    out = [
        "truncate(2, x)", "shift(x, 2*x)", "lead(grid(1; x))", "pair(x, grid(1; x))",
        "truncate((1 - x)^-1, x + x^2)", "sum(x, n -> n)", "truncate(ones, x)",
        "(e0 - e1)^-1", "truncate(sum(grid(x; x^(1/2)), n -> 1/(n - 2)) * x, x^2)",
        "truncate(x * sum(grid(x; x^(1/2)), n -> 1/(n - 2)), x^(5/2))",
        "e2 * ones", "ones * e3", "ones * ones", "truncate(e2 * ones, e5)",
        "truncate(ones * (e1 + 2*e4), e6)", "lead(ones * e3)", "pair(e2 * ones, e5 + e7)",
        "shift(ones, e2)", "pair(ones, e3 + 2*e5)", "pair(ones, ones)", "lead(x - x)",
        "pair(x^(1/2) + x, 2*x)", "pair(x^(1/2), (1 - x)^-1)",
        "derive(euler, (1 - x^(1/2))^-1)", "x^-1 * (1 - x)^-1",
        # finite Puiseux arithmetic whose terms have mixed denominators, so
        # that series on different integer frames meet
        "(x^(1/2) + x^(1/3)) * (1 - x^(1/6))", "(1 - x^(1/6)) * (x^(1/2) + x^(1/3))",
        "x^(1/2) - x^(1/2)", "x^(1/2) + x^(1/3) - x^(1/2)", "lead(x^(2/3) - x^(2/3) + x^(5/4))",
        "(2*x^(2/3) + x^(1/2))^-1", "truncate((2*x^(2/3) + x^(1/2))^-1, x^2)",
        "truncate((2*x^(2/3) + x^(1/2))^-1, x^(7/12))",
        "truncate(2*x^(2/3) + x^(1/2), x^(1/2))", "truncate(2*x^(2/3) + x^(1/2), x^(3/5))",
        "truncate(2*x^(2/3) + x^(1/2), x^-1)",
        "truncate((x^(1/2) + x^(1/3)) * (1 - x^(1/6)), x^(2/3))",
        "(x^(1/2) + 2*x^(2/3)) * (x^(1/3) - x^(3/4)) - 7*x^(5/6)",
        "3*(x^(1/4) + x^(1/6)) + 2*x^(1/4) - x^(5/4) * x^-1",
        "pair(x^(1/2) + x^(1/3), x^(1/3) - 2*x^(5/6))", "pair(x^(1/2) + x^(1/4), 5*x^(2/4))",
        "derive(euler, x^(1/2) + 2*x^(2/3) - x^(5/6))", "shift(x^(1/2) + x^(1/3), x^(1/6))",
        "(x^(1/2) + x^(1/3))^-1 * (x^(1/2) + x^(1/3))",
        "truncate((1 + x^(1/2) + x^(1/3))^-1 * (1 - x^(1/6)), x^(3/2))",
        "(e1 + 2*e3) * (e2 - e1)", "truncate(e1 + 3*e4 - e1, e3)",
        # pairings of pure tensors, whose product certificates meet side by
        # side: finite by finite, empty on one side, infinite on both
        "pair((e1 + e2) (x) ones, ones (x) (e3 + 2*e4))",
        "pair((e1 + e2) (x) ones, (e3 + e4) (x) ones)",
        "pair(ones (x) (e0 + e5), (e0 + e5) (x) ones)", "pair(ones (x) ones, ones (x) ones)",
        # the Euler derivation of products, inverses, shifts and sums with
        # exponent denominators 3, 5 and 7, whose exponents raise under fp:5
        # or fp:7, also where the coefficient is zero
        "derive(euler, (1 - x^(1/3))^-1)",
        "truncate(derive(euler, (1 + x^(1/5) - 2*x^(2/5))^-1), x^2)",
        "derive(euler, (1 - x^(1/7))^-1 * (x^(2/7) + 3*x))",
        "truncate(derive(euler, (x^(1/3) + 2*x^(2/5)) * (1 - x^(1/5))^-1), x^(7/5))",
        "derive(euler, shift((1 - x^(1/5))^-1, x^(2/3)))",
        "derive(euler, x^(3/7) + 2*x^(5/7) - x)",
        "truncate(derive(euler, (1 - x^(2/7) - x^(3/7))^-1), x^2)",
        "truncate(derive(euler, (1 - x^(1/7))^-1 * (1 - x^(1/7))), x^2)",
        "truncate(derive(euler, (1 - x^(1/5))^-1 * (1 - x^(1/5))), x)",
        "derive(euler, derive(euler, (2 + x^(1/3))^-1 * (1 - x^(1/3))))",
        "pair(derive(euler, (1 - x^(1/5))^-1), x^(3/5) + x^2)",
        "derive(euler, x^(1/5) + 3*x^(2/5))^-1",
        "truncate(derive(euler, sum(grid(x^(1/7); x^(2/7)), n -> n)), x^2)",
        # quotients and products of them, printed lazily (in JSON with their
        # certificate records) and truncated
        *(e for q in QUOTIENTS + PRODUCTS_OF_QUOTIENTS for e in (q, "truncate(%s, x^3)" % q)),
    ]
    rng = random.Random("cli-differential:0")
    for _ in range(SIZE):
        shape = rng.randrange(9)
        f, g = _operand(rng), _operand(rng)
        bound = _mono(rng.randint(-2, 12), rng.choice([1, 2, 3, 6]))
        if shape == 0:
            out.append("%s * %s" % (f, g))
        elif shape == 1:
            out.append("truncate(%s * %s, %s)" % (f, g, bound))
        elif shape == 2:
            out.append("%s^-1" % _unit(rng, rng.choice([1, 2, 3])))
        elif shape == 3:
            out.append("shift(%s, %s)" % (f, _mono(rng.randint(-3, 3), rng.choice([1, 2]))))
        elif shape == 4:
            out.append("truncate(%s, %s)" % (f, bound))
        elif shape == 5:
            out.append("lead(%s * %s)" % (f, g))
        elif shape == 6:
            out.append("pair(%s, %s)" % (f, g))
        elif shape == 7:
            out.append("(%s * %s)^-1" % (_unit(rng, rng.choice([1, 2])), f))
        else:
            q = rng.choice([1, 2, 3])
            out.append("truncate((1 - %s)^-1 * %s, %s)" % (_mono(1, q), f, bound))
    return out


def _import_from(src):
    """`sigmavect.cli`, imported from the directory src; raises unless the
    package came from there."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("sigmavect.cli")
    origin = Path(sys.modules["sigmavect"].__file__).resolve()
    if src not in origin.parents:
        raise SystemExit("sigmavect was imported from %s, not from %s" % (origin, src))
    return cli


def run(src, out_path):
    cli = _import_from(src)
    results, tracebacks = {}, 0
    for field in FIELDS:
        for fmt in FORMATS:
            for text in corpus():
                buf = io.StringIO()
                argv = ["--field", field, "--window", str(WINDOW), "--format", fmt,
                        "eval", "-e", text]
                try:
                    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                        status = cli.main(argv, prog_name="sigma", standalone_mode=False)
                except Exception:
                    status, tracebacks = "traceback", tracebacks + 1
                    buf.write(traceback.format_exc())
                results["%s|%s|%s" % (field, fmt, text)] = [status, buf.getvalue()]
    Path(out_path).write_text(json.dumps(results, indent=0, sort_keys=True), encoding="utf-8")
    print("%d outputs, %d tracebacks" % (len(results), tracebacks))
    return 1 if tracebacks else 0


def diff(old_path, new_path, show=5):
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    keys = sorted(set(old) | set(new))
    differing = [k for k in keys if old.get(k) != new.get(k)]
    print("%d differing outputs of %d" % (len(differing), len(keys)))
    for k in differing[:show]:
        print("- %s\n  old: %r\n  new: %r" % (k, old.get(k), new.get(k)))
    return 1 if differing else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="evaluate the corpus on one source tree")
    p.add_argument("--src", required=True, help="the directory that holds sigmavect/")
    p.add_argument("--out", required=True, help="the JSON file to write")
    p = sub.add_parser("diff", help="compare two run outputs")
    p.add_argument("old")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        return run(args.src, args.out)
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
