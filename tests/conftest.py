"""Shared test helpers."""

import contextlib
import io
import signal
import sys
from typing import NamedTuple

from sigmavect.cli import main


class Result(NamedTuple):
    exit_code: int
    output: str
    exception: BaseException | None


def invoke(args, input=None):
    """Run `sigma args` in-process with `input` as stdin.  The result holds
    the exit status, the output with stderr interleaved as written, and the
    exception that ended the run: the SystemExit of a nonzero exit, or any
    other exception, which then counts as exit status 1."""
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(input or "")
    code, exception = 0, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            main.main(args=list(args), prog_name="sigma")
    except SystemExit as exc:
        code = exc.code
        if code:
            exception = exc
    except Exception as exc:
        code, exception = 1, exc
    finally:
        sys.stdin = stdin
    return Result(code, out.getvalue(), exception)


def outcome(fn, catch=Exception):
    """("ok", value) of fn(), or ("raised", type, text) of the `catch`
    exception it raises, so two ways to the same result compare raise and
    all."""
    try:
        return ("ok", fn())
    except catch as exc:
        return ("raised", type(exc), str(exc))


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time pass, so a
    runaway loop fails its test at once instead of holding the whole run.
    POSIX only; the block must run in the main thread."""

    def expire(signum, frame):
        raise TimeoutError("time limit of %s s exceeded" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
