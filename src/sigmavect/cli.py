"""Command line entry points: evaluate expressions, run check suites, REPL.

The command line is declared once, in `GLOBAL_OPTIONS` and `COMMANDS`: argv
is read from those tables in one pass, and `--help` prints them.  Exit
status 0 is success, 1 an expression error or a failed suite (one `error:`
line), 2 a usage error.
"""

from __future__ import annotations

import json
import os
import sys
from typing import NamedTuple

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
    """Write one line to the current sys.stdout (or sys.stderr) and flush
    it, so stdout and stderr sharing one file interleave in the order
    written.  The stream is looked up at each call and never kept, so a
    stream a caller swaps in around an in-process invocation is freed
    with its text."""
    stream = sys.stderr if err else sys.stdout
    stream.write(text + "\n")
    stream.flush()


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


class UsageError(Exception):
    """A bad command line: printed under the usage line, exit status 2."""

    def __init__(self, message, command=None):
        super().__init__(message)
        self.command = command


# -- commands -----------------------------------------------------------------


def _eval_one(text, env, window, fmt):
    ast = parse(text)
    value = Evaluator(env).eval(ast)
    if fmt == "json":
        _emit_json({"schema": SCHEMA, "kind": "eval", "input": text,
                    "result": _value_record(value, window)})
    else:
        _echo(render(value, window))


def eval_cmd(opts, exprs, path):
    if not exprs and not path:
        raise UsageError("nothing to evaluate: pass -e EXPR or -f FILE", "eval")
    texts = list(exprs)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = [line.strip() for line in fh]
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError("Invalid value for '-f' / '--file': %r cannot be read as text: %s."
                             % (path, exc), "eval") from None
        texts += [line for line in lines if line and not line.startswith("#")]
    window, fmt = opts["window"], opts["fmt"]
    env = Env(field=opts["field"], window=window)
    for text in texts:
        try:
            _eval_one(text, env, window, fmt)
        except _EXPR_ERRORS as exc:
            if fmt == "json":
                _emit_json({"schema": SCHEMA, "kind": "error", "input": text,
                            "message": _diag_message(exc)})
            else:
                _echo(_diag_message(exc), err=True)
            return 1
    return 0


def check_cmd(opts, suite):
    if suite is None:
        raise UsageError("Missing option '--suite'.", "check")
    try:
        report = run_suite(suite, seed=opts["seed"], window=opts["window"])
    except SuiteError as exc:
        raise UsageError(str(exc), "check")
    if opts["fmt"] == "json":
        _emit_json({"schema": SCHEMA, "kind": "check", "report": report})
    else:
        _echo("suite %s: %s (%d cases, %d failures)"
              % (report["suite"], report["verdict"], report["cases"],
                 len(report["failures"])))
        for f in report["failures"]:
            _echo("  failure: %r" % (f,))
    return 0 if report["verdict"] == "PASS" else 1


def repl_cmd(opts):
    env = Env(field=opts["field"], window=opts["window"])
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
            _eval_one(line, env, opts["window"], opts["fmt"])
        except _EXPR_ERRORS as exc:
            _echo(_diag_message(exc), err=True)
    return 0


# -- the option table -----------------------------------------------------------


def _integer(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError("%r is not a valid integer." % text) from None


def _window(text):
    n = _integer(text)
    if n < 1:
        raise ValueError("%d is not in the range x>=1." % n)
    return n


def _output_format(text):
    if text not in ("text", "json"):
        raise ValueError("%r is not one of 'text', 'json'." % text)
    return text


def _existing_file(path):
    if not os.path.exists(path):
        raise ValueError("File %r does not exist." % path)
    if os.path.isdir(path):
        raise ValueError("File %r is a directory." % path)
    return path


class Option(NamedTuple):
    """One option: its spellings, the keyword its value is passed as, the
    default (a text, read like a given value; `()` collects every use in
    order), the reader of its text (ValueError on a bad value) and help."""

    names: tuple
    dest: str
    metavar: str
    default: object
    convert: object
    help: str


GLOBAL_OPTIONS = (
    Option(("--field",), "field", "TEXT", "rational", field_from_spec,
           "Scalar field: 'rational' or 'fp:<prime>'."),
    Option(("--window",), "window", "INTEGER", "32", _window,
           "Window for lazy-series assertions and rendering (at least 1)."),
    Option(("--seed",), "seed", "INTEGER", "0", _integer, "Seed for randomized check suites."),
    Option(("--format",), "fmt", "[text|json]", "text", _output_format, "Output format."),
)

# name: (run, summary, options); run(global values, **command values) -> exit status
COMMANDS = {
    "check": (check_cmd, "Run a named invariant suite and report PASS/FAIL.", (
        Option(("--suite",), "suite", "TEXT", None, None,
               "Suite name; see the README for the list.  [required]"),
    )),
    "eval": (eval_cmd, "Evaluate expressions in the standard environment.", (
        Option(("-e", "--expr"), "exprs", "TEXT", (), None, "Expression to evaluate."),
        Option(("-f", "--file"), "path", "FILE", None, _existing_file,
               "File of expressions, one per line; blank lines and # comments skipped."),
    )),
    "repl": (repl_cmd, "Interactive loop; 'exit' or end-of-input quits.", ()),
}
SUMMARY = "Exact arithmetic for series with bounded support."


def _read(args, options, command):
    """Read `options` from args in one pass: ({dest: text or [texts]},
    --help given?, positional tokens).  An option's value is the next token
    even when it begins with '-'; `--name=value` and `-nVALUE` also give it,
    and a name must be spelled out in full.  The global options (command
    None) end at the first positional token, the command name; a command
    takes no positional token, and '--' makes every later token one."""
    raw, help_, rest = {}, False, []
    i, n = 0, len(args)
    while i < n:
        tok = args[i]
        i += 1
        if tok == "--":
            rest.extend(args[i:])
            break
        if tok[:1] != "-" or tok == "-":
            if command is None:
                rest.extend(args[i - 1:])
                break
            rest.append(tok)
            continue
        if tok[1] == "-":
            name, inline, value = tok.partition("=")
        else:
            name, value = tok[:2], tok[2:]
            inline = value
        if name == "--help":
            if inline:
                raise UsageError("Option '--help' does not take a value.", command)
            help_ = True
            continue
        for opt in options:
            if name in opt.names:
                break
        else:
            raise UsageError("No such option %r." % name, command)
        if not inline:
            if i == n:
                raise UsageError("Option %r requires an argument." % name, command)
            value = args[i]
            i += 1
        if opt.default == ():
            raw.setdefault(opt.dest, []).append(value)
        else:
            raw[opt.dest] = value
    return raw, help_, rest


def _values(raw, options, command):
    """{dest: value}: each given text, else the default, through its reader."""
    out = {}
    for opt in options:
        text = raw.get(opt.dest, opt.default)
        if opt.convert is not None and text is not None:
            try:
                text = opt.convert(text)
            except ValueError as exc:
                raise UsageError("Invalid value for %s: %s"
                                 % (" / ".join("'%s'" % s for s in opt.names), exc), command)
        out[opt.dest] = text
    return out


def _usage(prog_name, command):
    if command is None:
        return "Usage: %s [OPTIONS] COMMAND [ARGS]..." % prog_name
    return "Usage: %s %s [OPTIONS]" % (prog_name, command)


def _help(prog_name, command):
    if command is None:
        summary, options = SUMMARY, GLOBAL_OPTIONS
    else:
        _, summary, options = COMMANDS[command]
    rows = []
    for opt in options:
        text = opt.help
        if command is None:
            text += "  [default: %s]" % opt.default
        rows.append(("%s %s" % (", ".join(opt.names), opt.metavar), text))
    rows.append(("--help", "Show this message and exit."))
    width = max(len(spec) for spec, _ in rows)
    lines = [_usage(prog_name, command), "", "  " + summary, "", "Options:"]
    lines += ["  %s  %s" % (spec.ljust(width), text) for spec, text in rows]
    if command is None:
        lines += ["", "Commands:"]
        lines += ["  %s  %s" % (name.ljust(5), COMMANDS[name][1]) for name in COMMANDS]
    return "\n".join(lines)


def _run(args, prog_name):
    raw, help_, rest = _read(args, GLOBAL_OPTIONS, None)
    if help_:
        _echo(_help(prog_name, None))
        return 0
    if not rest:
        if not args:
            _echo(_help(prog_name, None), err=True)
            return 2
        raise UsageError("Missing command.")
    opts = _values(raw, GLOBAL_OPTIONS, None)
    command = rest[0]
    if command not in COMMANDS:
        raise UsageError("No such command %r." % command)
    run, _, options = COMMANDS[command]
    raw, help_, extra = _read(rest[1:], options, command)
    if help_:
        _echo(_help(prog_name, command))
        return 0
    if extra:
        raise UsageError("Got unexpected extra argument%s (%s)"
                         % ("s" if len(extra) > 1 else "", " ".join(extra)), command)
    return run(opts, **_values(raw, options, command))


def main(args=None, prog_name="sigma", standalone_mode=True):
    """Run one `sigma` command line (sys.argv[1:] by default) and exit with
    its status; with standalone_mode=False, return the status instead."""
    try:
        status = _run(sys.argv[1:] if args is None else list(args), prog_name)
    except UsageError as exc:
        cmd = prog_name if exc.command is None else "%s %s" % (prog_name, exc.command)
        _echo("%s\nTry '%s --help' for help.\n\nError: %s"
              % (_usage(prog_name, exc.command), cmd, exc), err=True)
        status = 2
    except KeyboardInterrupt:
        if not standalone_mode:
            raise
        _echo("\nAborted!", err=True)
        status = 1
    except BrokenPipeError:
        if not standalone_mode:
            raise
        # the reader went away (`sigma ... | head`): stop quietly, and let
        # the exit not flush into the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    if standalone_mode:
        sys.exit(status)
    return status


# embedding callers (the benchmark, the tests) run `main.main(args=...,
# prog_name=..., standalone_mode=False)`
main.main = main


if __name__ == "__main__":
    main()
