"""Reference growth curves for the README.

    python3 bench/curves.py

Prints the time of `truncate((1 - x - x^2)^-1, x^n)` through the CLI for
n = 20, 40, 80, 160, and the median `SigmaSpanOracle.decide` time at
windows 16, 24 and 32 on the span-closure generator sets of seed 0.  Each
point is the median of REPEATS runs (one run for n = 160, which alone takes
seconds).  Every result is checked against the same oracles the workloads
use.
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import _import_package  # noqa: E402

REPEATS = 3


def fibonacci_curve():
    import hahn_deep
    from oracles import Rat, series_quotient

    for n in (20, 40, 80, 160):
        argv = ["--window", "200", "--format", "json", "eval", "-e",
                "truncate((1 - x - x^2)^-1, x^%d)" % n]
        times = []
        for _ in range(1 if n >= 160 else REPEATS):
            t0 = time.perf_counter()
            raw = hahn_deep.invoke_cli(argv)
            times.append(time.perf_counter() - t0)
        got = hahn_deep.series_terms(raw)
        want = {Fraction(m): c for m, c in enumerate(series_quotient([1], [1, -1, -1], n, Rat()))}
        status = "ok" if got == want else "WRONG"
        print("truncate fibonacci n=%-4d %9.3f s  (%s)" % (n, statistics.median(times), status))


def decide_curve():
    import span_closure

    ops = span_closure.generate(0)
    for window in (16, 24, 32):
        times, bad = [], 0
        for _ in range(REPEATS):
            for op in ops:
                if op.kind != "decide" or op.gset.window != window:
                    continue
                t0 = time.perf_counter()
                raw = op.run()
                times.append(time.perf_counter() - t0)
                bad += not op.check(op.observe(raw))
        print("decide window=%-3d %11.2f ms median over %d calls  (%s)"
              % (window, statistics.median(times) * 1e3, len(times),
                 "ok" if not bad else "%d WRONG" % bad))


if __name__ == "__main__":
    _import_package()
    fibonacci_curve()
    decide_curve()
