"""Shared test helpers."""

import contextlib
import signal


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
