"""Span tracing from outside the package.

`Tracer.install()` wraps public functions and methods of sigmavect where
callers look them up: a module-level function is replaced in every
sigmavect module that bound it by name (so `nonneg_solutions` is wrapped in
`sigmavect.gridsolve`, `sigmavect.hahn`, `sigmavect.sets`, ...), a method
on the class that defines it.  Nothing inside `src/` changes.

Each span records its name, start, end, parent span and operation id.
Spans are kept in memory in typed arrays and written out by `dump()`.
Self time (a span's duration minus the time its child spans cover) and call
counts are also accumulated as spans close, which is what `metrics()`
reports.
"""

from __future__ import annotations

import json
import sys
import weakref
from array import array
from time import perf_counter

MAX_STORED = 500_000  # spans kept for the trace file; counts cover all


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.calls = []
        self.self_s = []
        self.counters = {}
        self.op_id = -1
        self.spans = 0
        # stored spans, one column per field
        self.col_name = array("H")
        self.col_parent = array("l")
        self.col_op = array("l")
        self.col_start = array("d")
        self.col_end = array("d")
        self._stack = []        # [stored index, child time] per open span
        self._restore = []      # (owner, attribute, original)
        self._requested = weakref.WeakKeyDictionary()

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.ids[name]

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; after(result, args) runs on success."""
        nid = self._id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = self.spans if self.spans < MAX_STORED else -1
            if idx >= 0:
                self.col_name.append(nid)
                self.col_parent.append(stack[-1][0] if stack else -1)
                self.col_op.append(self.op_id)
                self.col_start.append(0.0)
                self.col_end.append(0.0)
            self.spans += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    self.col_start[idx] = t0
                    self.col_end[idx] = t1
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def patch(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, orig, after))
        self._restore.append((owner, attr, orig))

    def patch_function(self, module, attr, name, after=None):
        """Wrap module.attr everywhere a sigmavect module bound it by name."""
        orig = getattr(module, attr)
        wrapped = self.wrap(name, orig, after)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if (modname == "sigmavect" or modname.startswith("sigmavect.")) and \
                    getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapped)
                self._restore.append((mod, attr, orig))

    def install(self):
        import sigmavect.cli  # imports every module, so all bindings exist
        from sigmavect import (bornology, closure, expr, gridsolve, hahn, scalars, series,
                               sets, slalg, strmap, universe)

        fn = self.patch_function
        fn(gridsolve, "nonneg_solutions", "gridsolve.nonneg_solutions",
           lambda r, a: self.count("gridsolve.solutions", len(r)))
        fn(gridsolve, "grid_points_upto", "gridsolve.grid_points_upto")
        for attr in ("cauchy_product", "invert_unit", "neumann_sum", "truncate"):
            fn(hahn, attr, "hahn." + attr)
        fn(expr, "parse", "expr.parse")
        fn(expr, "render", "expr.render")
        # in JSON mode the CLI renders a result through _value_record
        fn(sigmavect.cli, "_value_record", "expr.render")
        fn(closure, "rref", "closure.rref", self._rref_cells)
        fn(closure, "idempotence_check", "closure.idempotence_check")
        fn(closure, "dual_basis_construction", "closure.dual_basis_construction")
        fn(sets, "atom_intersection", "sets.atom_intersection",
           lambda r, a: self.count("sets.decided", r[0] is not None))
        fn(series, "pairing", "series.pairing")
        fn(series, "family_sum", "series.family_sum")

        self.patch(series.LazySeries, "coeff", "series.coeff", self._coeff_repeat)
        for cls in (universe.Universe, universe.Rationals, universe.TupleUniverse,
                    universe.MonomialUniverse, universe.PairUniverse):
            self.patch(cls, "check", "universe.check")
        self.patch(universe.Universe, "__eq__", "universe.eq")
        self.patch(scalars.Field, "of", "scalars.of")
        self.patch(closure.SigmaSpanOracle, "decide", "closure.decide",
                   lambda r, a: self.count("closure.accepted", r[0] == "accepted"))
        self.patch(bornology.Bornology, "is_bounded", "bornology.is_bounded",
                   lambda r, a: self.count("bornology.decided",
                                           r is not bornology.Verdict.UNDECIDED))
        self.patch(strmap.StrongLinearMap, "apply", "strmap.apply")
        self.patch(slalg.Derivation, "apply", "slalg.derivation_apply")
        self.patch(expr.Evaluator, "eval", "expr.eval")

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _rref_cells(self, result, args):
        rows = args[0]
        self.count("closure.rref.cells", len(rows) * (len(rows[0]) if rows else 0))

    def _coeff_repeat(self, result, args):
        series, gamma = args[0], args[1]
        seen = self._requested.setdefault(series, set())
        if gamma in seen:
            self.count("series.coeff.repeats")
        else:
            seen.add(gamma)

    # -- results ------------------------------------------------------------------

    def stat(self, name):
        i = self.ids.get(name)
        return (0, 0.0) if i is None else (self.calls[i], self.self_s[i])

    def metrics(self, rounds):
        """Per-layer metrics, {name: (value, unit)}.  Counts and self times
        are per round: every round makes the same calls, so the counts
        repeat exactly whatever the run length."""
        out = {}

        def calls(name):
            out[name + ".calls"] = (self.stat(name)[0] / rounds, "count")

        def self_s(name):
            out[name + ".self_s"] = (self.stat(name)[1] / rounds, "s")

        def ratio(metric, part, whole):
            n = self.stat(whole)[0]
            out[metric] = (self.counters.get(part, 0) / n if n else 0.0, "ratio")

        for name in ("gridsolve.nonneg_solutions", "series.coeff", "closure.rref",
                     "closure.decide", "universe.check", "universe.eq", "scalars.of",
                     "sets.atom_intersection", "bornology.is_bounded", "series.pairing",
                     "strmap.apply", "hahn.cauchy_product", "hahn.invert_unit",
                     "hahn.neumann_sum"):
            calls(name)
        for name in ("gridsolve.nonneg_solutions", "gridsolve.grid_points_upto",
                     "series.coeff", "hahn.truncate", "expr.parse", "expr.eval",
                     "expr.render", "cli.invoke", "closure.rref", "closure.decide",
                     "closure.idempotence_check", "closure.dual_basis_construction",
                     "universe.check", "universe.eq", "scalars.of",
                     "sets.atom_intersection", "bornology.is_bounded", "series.pairing",
                     "series.family_sum", "strmap.apply", "slalg.derivation_apply"):
            self_s(name)
        ratio("gridsolve.solutions_per_call", "gridsolve.solutions",
              "gridsolve.nonneg_solutions")
        ratio("series.coeff.repeat_ratio", "series.coeff.repeats", "series.coeff")
        ratio("closure.decide.accept_ratio", "closure.accepted", "closure.decide")
        ratio("sets.decided_ratio", "sets.decided", "sets.atom_intersection")
        ratio("bornology.decided_ratio", "bornology.decided", "bornology.is_bounded")
        out["closure.rref.cells"] = (self.counters.get("closure.rref.cells", 0) / rounds, "count")
        return out

    def dump(self, path):
        """Write the stored spans: one JSON header line, then the columns as
        raw little-endian arrays in header order (see load_spans)."""
        n = len(self.col_name)
        header = {"names": self.names, "stored": n, "total": self.spans,
                  "columns": [["name", "H"], ["parent", "l"], ["op", "l"],
                              ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.col_name, self.col_parent, self.col_op,
                        self.col_start, self.col_end):
                col.tofile(fh)


def load_spans(path):
    """Read a trace file back: (header, list of (name, parent, op, start, end))."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["stored"]
        cols = []
        for _, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, n)
            cols.append(col)
    names = header["names"]
    return header, [(names[cols[0][i]], cols[1][i], cols[2][i], cols[3][i], cols[4][i])
                    for i in range(n)]
