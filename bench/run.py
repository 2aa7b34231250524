"""Benchmark for sigmavect: one workload per run, checked against oracles.

    python3 bench/run.py --workload hahn-deep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from `src/`, and
nothing is installed.  A run repeats whole rounds of the workload's seeded
operation list until `--seconds` have passed (and at least MIN_OPS
operations were made), checks every output against the benchmark's own
oracles, and prints one JSON object as its last line.  Operation times
are scaled to a reference machine speed (speed.py).  With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it wraps the package's
public functions (tracing.py) and reports the per-layer metrics instead.
Results, and with `--trace 1` the spans, are written to bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = {
    "hahn-deep": "hahn_deep",
    "span-closure": "span_closure",
    "library-mix": "library_mix",
}
MIN_OPS = 100          # timed operations per run, at the least
SETUP_PROBES = 7       # fresh interpreters timed for setup_s


def _import_package():
    """Import sigmavect from this checkout's src/, or exit without a result."""
    if not (SRC / "sigmavect" / "__init__.py").is_file():
        sys.exit("bench: no src/sigmavect in %s; run from the root of a checkout" % ROOT)
    sys.path.insert(0, str(SRC))
    import sigmavect
    import sigmavect.cli  # noqa: F401

    if Path(sigmavect.__file__).resolve().parent != SRC / "sigmavect":
        sys.exit("bench: imported sigmavect from %s, not %s" % (sigmavect.__file__, SRC))
    return sigmavect


def _workload(name):
    import importlib

    return importlib.import_module(WORKLOADS[name])


def setup_probe(name, seed):
    """Child side of a setup_s probe: import, generate, report ready."""
    _import_package()
    _workload(name).generate(seed)
    print("ready", flush=True)


def measure_setup(name, seed):
    """Median wall time over fresh interpreters from launch until the package
    and its CLI are imported and the workload's inputs are generated.

    Not scaled by the speed kernel: start-up is mostly reading and
    unmarshalling modules, whose time the kernel does not follow."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait()
        if line.strip() != "ready" or rc != 0:
            sys.exit("bench: setup probe failed (exit %s)" % rc)
        times.append(t1 - t0)
    return statistics.median(times)


def perturb(data):
    """A copy of an observed result with one value changed (self-test)."""
    if isinstance(data, bool):
        return not data
    if isinstance(data, (int, float, Fraction)):
        return data + 1
    if isinstance(data, str):
        return data + "?"
    if isinstance(data, dict):
        if not data:
            return {"planted": 1}
        key = next(iter(data))
        return {**data, key: perturb(data[key])}
    if isinstance(data, (list, tuple)):
        for i, x in enumerate(data):
            if x is not None:
                out = list(data)
                out[i] = perturb(x)
                return type(data)(out)
    return "planted"


def warm_up(ops):
    """Run the first operation of each kind once, untimed, so that lazy
    imports inside the package are done before measuring."""
    for _ in range(5):
        speed.kernel()
    kinds = set()
    for op in ops:
        if op.kind not in kinds:
            kinds.add(op.kind)
            op.run()


def run_rounds(ops, seconds, tracer=None, plant=False):
    """Whole rounds of ops until `seconds` have passed and MIN_OPS were made.

    The speed kernel is timed before every operation.  Returns (latencies,
    kernels, rounds, attempted, failed, wrong), where latencies[i] lists
    operation i's successful timings, one per round, scaled to the
    reference speed, and kernels lists every kernel timing."""
    timings = []   # (operation, raw timing, index of its kernel timing)
    kernels = []
    rounds, attempted, failed, wrong = 0, 0, 0, 0
    start = time.perf_counter()
    while rounds == 0 or attempted < MIN_OPS or time.perf_counter() - start < seconds:
        gc.collect()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = attempted
            attempted += 1
            kernels.append(speed.timed_kernel())
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                failed += 1
                print("bench: op %d (%s) raised %r" % (i, op.kind, exc), file=sys.stderr)
                continue
            timings.append((i, time.perf_counter() - t0, len(kernels) - 1))
            data = op.observe(raw)
            if plant and i == 0:
                data = perturb(data)
            if not op.check(data):
                failed += 1
                wrong += 1
                if wrong <= 3:
                    print("bench: op %d (%s) disagrees with its oracle: %r"
                          % (i, op.kind, data), file=sys.stderr)
        rounds += 1
    local = speed.local_times(kernels)
    latencies = [[] for _ in ops]
    for i, t, k in timings:
        latencies[i].append(speed.scale(t, local[k]))
    return latencies, kernels, rounds, attempted, failed, wrong


def per_op_latency(latencies):
    """Each operation's median scaled timing over the rounds."""
    return [statistics.median(t) for t in latencies if t]


def end_to_end(per_op, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "ops/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(per_op, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-fault", action="store_true",
                    help="self-test: corrupt the benchmark's copy of one result per round")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return

    _import_package()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    module = _workload(args.workload)
    ops = module.generate(args.seed)
    warm_up(ops)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        if hasattr(module, "invoke_cli"):
            tracer.patch(module, "invoke_cli", "cli.invoke")

    latencies, kernels, rounds, attempted, failed, wrong = run_rounds(
        ops, args.seconds, tracer, args.plant_fault)
    per_op = per_op_latency(latencies)
    if tracer is None:
        metrics = end_to_end(per_op, setup_s)
    else:
        tracer.uninstall()
        factor = speed.scale(1.0, statistics.median(kernels))
        metrics = {k: (v * factor if u == "s" else v, u)
                   for k, (v, u) in tracer.metrics(rounds).items()}
        metrics["traced.ops_per_s"] = (len(per_op) / sum(per_op), "ops/s")

    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    RESULTS.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.dump(RESULTS / (stem + ".spans"))
    with open(RESULTS / (stem + ".json"), "w") as fh:
        json.dump(dict(result, rounds=rounds, seconds=args.seconds,
                       kernel_ms=statistics.median(kernels) * 1e3), fh, indent=1)
    print("bench: %s seed %d: %d rounds, %d ops, %d failed"
          % (args.workload, args.seed, rounds, attempted, failed), file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
