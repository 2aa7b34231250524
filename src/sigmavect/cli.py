"""Command line entry points: evaluate expressions, run check suites, REPL."""

from __future__ import annotations

import json
import sys

import click

from .closure import ClosureError
from .expr import Diagnostic, Env, EvalError, Evaluator, parse, render, _type_of
from .scalars import NumberTooLarge, field_from_spec
from .series import PairingUndecided, SeriesError
from .sets import SetError
from .suites import SuiteError, run_suite

SCHEMA = "sigma.v1"

# library errors an expression can raise; each ends in a one-line diagnostic
_EXPR_ERRORS = (Diagnostic, EvalError, SeriesError, PairingUndecided, SetError,
                ClosureError, NumberTooLarge, ZeroDivisionError)


def _value_record(value, window):
    ty = _type_of(value)
    rec = {"type": ty}
    if ty == "series":
        rec["value"] = value.to_record(window)
    elif ty == "set":
        rec["value"] = value.to_record()
    elif ty == "bornology":
        rec["value"] = value.to_record()
    elif ty == "list":
        rec["value"] = [_value_record(v, window) for v in value]
    else:
        rec["value"] = render(value, window)
    return rec


class _Jsonable(json.JSONEncoder):
    def default(self, o):
        return str(o)


def _echo(text, err=False):
    """click.echo to the current sys.stdout (or sys.stderr).  Naming the
    stream keeps it out of click's default-stream cache, whose entries hold
    their own weak keys alive: every stream a caller swaps in around an
    in-process invocation would otherwise stay in memory with its text."""
    click.echo(text, file=sys.stderr if err else sys.stdout)


def _emit_json(payload):
    _echo(json.dumps(payload, cls=_Jsonable, sort_keys=True))


def _diag_message(exc):
    if isinstance(exc, Diagnostic):
        msg = "error: %s at line %d, column %d" % (exc.message, exc.line, exc.col)
        if exc.expected:
            msg += " (expected %s)" % ", ".join(exc.expected)
        return msg
    if isinstance(exc, ZeroDivisionError):
        return "error: division by zero: %s" % exc
    return "error: %s" % exc


@click.group()
@click.option("--field", default="rational", show_default=True,
              help="Scalar field: 'rational' or 'fp:<prime>'.")
@click.option("--window", default=32, show_default=True, type=click.IntRange(min=1),
              help="Window for lazy-series assertions and rendering.")
@click.option("--seed", default=0, show_default=True, type=int,
              help="Seed for randomized check suites.")
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "json"]), help="Output format.")
@click.pass_context
def main(ctx, field, window, seed, fmt):
    """Exact arithmetic for series with bounded support."""
    try:
        fld = field_from_spec(field)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    ctx.obj = {"field": fld, "window": window, "seed": seed, "fmt": fmt}


def _eval_one(text, env, window, fmt):
    ast = parse(text)
    value = Evaluator(env).eval(ast)
    if fmt == "json":
        _emit_json({"schema": SCHEMA, "kind": "eval", "input": text,
                    "result": _value_record(value, window)})
    else:
        _echo(render(value, window))


@main.command("eval")
@click.option("-e", "--expr", "exprs", multiple=True, help="Expression to evaluate.")
@click.option("-f", "--file", "path", type=click.Path(exists=True, dir_okay=False),
              help="File of expressions, one per line; blank lines and # comments skipped.")
@click.pass_context
def eval_cmd(ctx, exprs, path):
    """Evaluate expressions in the standard environment."""
    if not exprs and not path:
        raise click.UsageError("nothing to evaluate: pass -e EXPR or -f FILE")
    texts = list(exprs)
    if path:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    texts.append(line)
    obj = ctx.obj
    env = Env(field=obj["field"], window=obj["window"])
    for text in texts:
        try:
            _eval_one(text, env, obj["window"], obj["fmt"])
        except _EXPR_ERRORS as exc:
            if obj["fmt"] == "json":
                _emit_json({"schema": SCHEMA, "kind": "error", "input": text,
                            "message": _diag_message(exc)})
            else:
                _echo(_diag_message(exc), err=True)
            ctx.exit(1)


@main.command("check")
@click.option("--suite", required=True, help="Suite name; see the README for the list.")
@click.pass_context
def check_cmd(ctx, suite):
    """Run a named invariant suite and report PASS/FAIL."""
    obj = ctx.obj
    try:
        report = run_suite(suite, seed=obj["seed"], window=obj["window"])
    except SuiteError as exc:
        raise click.UsageError(str(exc))
    if obj["fmt"] == "json":
        _emit_json({"schema": SCHEMA, "kind": "check", "report": report})
    else:
        _echo("suite %s: %s (%d cases, %d failures)"
              % (report["suite"], report["verdict"], report["cases"],
                 len(report["failures"])))
        for f in report["failures"]:
            _echo("  failure: %r" % (f,))
    if report["verdict"] != "PASS":
        ctx.exit(1)


@main.command("repl")
@click.pass_context
def repl_cmd(ctx):
    """Interactive loop; 'exit' or end-of-input quits."""
    obj = ctx.obj
    env = Env(field=obj["field"], window=obj["window"])
    while True:
        try:
            line = input("sigma> ")
        except EOFError:
            _echo("")
            break
        line = line.strip()
        if not line:
            continue
        if line in ("exit", "quit"):
            break
        try:
            _eval_one(line, env, obj["window"], obj["fmt"])
        except _EXPR_ERRORS as exc:
            _echo(_diag_message(exc), err=True)


if __name__ == "__main__":
    main()
