"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

For each workload, runs one short benchmark run with --plant-fault, which
changes one value in the benchmark's own copy of the first result of every
round before it is checked.  The run must report exactly one failed
operation per round and `correct: false`; otherwise the checks are not live
and this script exits nonzero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import ROOT, WORKLOADS  # noqa: E402


def planted(workload, seed=0):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0", "--plant-fault"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit("%s: run failed\n%s" % (workload, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    bad = 0
    for workload, module in sorted(WORKLOADS.items()):
        per_round = len(importlib.import_module(module).generate(0))
        res = planted(workload)
        rounds = res["attempted"] // per_round
        ok = res["failed"] == rounds and res["correct"] is False
        bad += not ok
        print("%-13s %s: %d attempted in %d rounds, %d failed, correct=%s"
              % (workload, "flagged" if ok else "NOT FLAGGED", res["attempted"], rounds,
                 res["failed"], res["correct"]))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
