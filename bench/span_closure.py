"""span-closure: window-restricted sigma-span membership.

Each operation is one `SigmaSpanOracle.decide` on a seeded rational
generator set (1-3 PatternGenerators plus 0-2 VectorGenerators) at window
16, 24 or 32, or one `idempotence_check` on a small battery.  Accepted
candidates are checked by replaying their certificate from the generator
definitions; rejected ones by the benchmark's own exact elimination
(oracles.Echelon).  Every idempotence check must return PASS with the
round-one acceptance count the elimination predicts.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import Echelon, pattern_full_sum, pattern_member, vector_window

# (window, pattern steps, vectors); every pairing of window and generator
# count appears.  The steps fix the number of columns, and so the work, of
# each set; the seed draws templates, offsets and coordinates.
SETS = [
    (16, (2,), 0), (16, (3, 4), 1), (16, (5, 6, 8), 2),
    (24, (2,), 1), (24, (3, 4), 2), (24, (3, 5, 6), 0),
    (32, (2,), 2), (32, (2, 3), 0), (32, (3, 4, 6), 1),
]
IN_SPAN, OFF_SPAN = 3, 3          # candidates per set
IDEMPOTENCE = (0, 1)              # sets that also get an idempotence check
BATTERY = 4                       # battery size of an idempotence check
REPEAT = 2                        # sets drawn per shape
TEMPLATE_LENGTHS = (2, 3, 1)      # template length of a set's i-th pattern
COMBINED = 3                      # columns in an in-span combination
PIVOT_PRIME = (1 << 61) - 1       # modulus of the set-up elimination (_pivots)


def _members_touching(template, step, window):
    lo = min(template)
    return (window - 1 - lo) // step + 1 if lo < window else 0


class GeneratorSet:
    """The generator definitions as plain data, their package objects, and
    the window columns recomputed from the definitions."""

    def __init__(self, rng, window, steps, n_vectors):
        self.window = window
        while True:
            self.defs = []
            for i, step in enumerate(steps):
                lo = rng.randrange(step)
                template = {lo + j: rng.choice([-3, -2, -1, 1, 2, 3])
                            for j in range(TEMPLATE_LENGTHS[i])}
                self.defs.append(("pattern", template, step))
            for _ in range(n_vectors):
                coords = {n: rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
                          for n in rng.sample(range(window), 3)}
                self.defs.append(("vector", coords))
            self.cols = self.columns()
            if len(self.cols) <= window - 2:
                break  # leave room for off-span probes
        self.oracle = None
        self._echelon = None

    def columns(self):
        """{certificate description: window vector} from the definitions."""
        w = self.window
        cols = {}
        for gi, d in enumerate(self.defs):
            if d[0] == "vector":
                cols[("vector", gi)] = vector_window(d[1], w)
            else:
                _, template, step = d
                for k in range(_members_touching(template, step, w)):
                    cols[("member", gi, k)] = pattern_member(template, step, k, w)
                cols[("pattern-sum", gi)] = pattern_full_sum(template, step, w)
        return cols

    def generators(self):
        from sigmavect import PatternGenerator, VectorGenerator

        return [PatternGenerator(d[1], d[2]) if d[0] == "pattern" else VectorGenerator(d[1])
                for d in self.defs]

    def echelon(self):
        if self._echelon is None:
            self._echelon = Echelon(self.window)
            for v in self.cols.values():
                self._echelon.add(v)
        return self._echelon

    def replay(self, cert, target):
        """True when the certificate's combination equals the target."""
        total = [Fraction(0)] * self.window
        for desc, c in cert:
            if desc not in self.cols:
                return False
            total = [t + c * x for t, x in zip(total, self.cols[desc])]
        return total == [Fraction(x) for x in target]


class Decide:
    """One decide call.  The first candidate of a set builds the set's
    oracle inside its timed call, so every round pays for construction once
    per set, as a caller deciding several candidates would."""

    kind = "decide"

    def __init__(self, gset, candidate, builds):
        self.gset = gset
        self.candidate = candidate
        self.builds = builds

    def run(self):
        if self.builds:
            from sigmavect import SigmaSpanOracle

            self.gset.oracle = SigmaSpanOracle(self.gset.generators(), self.gset.window)
        return self.gset.oracle.decide(self.candidate)

    def observe(self, raw):
        verdict, cert = raw
        return (verdict, tuple((tuple(d), Fraction(c)) for d, c in cert or ()))

    def check(self, data):
        verdict, cert = data
        if verdict == "accepted":
            return self.gset.replay(cert, self.candidate)
        if verdict == "rejected":
            return not self.gset.echelon().contains(self.candidate)
        return False


class Idempotence:
    kind = "idempotence"

    def __init__(self, gset, battery):
        self.gset = gset
        self.battery = battery

    def run(self):
        from sigmavect import idempotence_check

        return idempotence_check(self.gset.generators(), self.gset.window,
                                 battery=self.battery)

    def observe(self, raw):
        return (raw["verdict"], raw["battery"], raw["accepted_round1"])

    def check(self, data):
        ech = self.gset.echelon()
        in_span = sum(1 for v in self.battery if ech.contains(v))
        return data == ("PASS", len(self.battery), in_span)


def _combination(rng, cols):
    out = [0] * len(cols[0])
    for v in rng.sample(cols, min(len(cols), COMBINED)):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        out = [x + c * y for x, y in zip(out, v)]
    return out


def _pivots(cols):
    """Pivot coordinates of the echelon form of the integer columns.

    Eliminates mod PIVOT_PRIME, which gives the pivots over Q unless the
    prime divides a minor of these small-entry columns, at a fraction of the
    cost of Fraction elimination: generation is part of `setup_s`, and the
    exact echelon is built only when a check needs it."""
    rows = {}  # pivot -> row reduced mod p, 1 at the pivot
    for v in cols:
        r = [x % PIVOT_PRIME for x in v]
        for col in sorted(rows):
            if r[col]:
                c = r[col]
                r = [(x - c * y) % PIVOT_PRIME for x, y in zip(r, rows[col])]
        col = next((i for i, x in enumerate(r) if x), None)
        if col is not None:
            inv = pow(r[col], -1, PIVOT_PRIME)
            rows[col] = [x * inv % PIVOT_PRIME for x in r]
    return set(rows)


def generate(seed):
    rng = random.Random("span-closure:%d" % seed)
    ops = []
    for si, shape in enumerate(SETS * REPEAT):
        gset = GeneratorSet(rng, *shape)
        # integer copies: the columns have integer entries, and int
        # arithmetic keeps generation, which `setup_s` times, cheap
        cols = [[int(x) for x in v] for v in gset.cols.values()]
        cands = [_combination(rng, cols) for _ in range(IN_SPAN)]
        # a unit vector off the echelon pivots lies outside the span, so
        # these probes are off-span by construction
        pivots = _pivots(cols)
        free = [i for i in range(gset.window) if i not in pivots]
        for _ in range(OFF_SPAN):
            v = _combination(rng, cols)
            v[rng.choice(free)] += rng.choice([-1, 1])
            cands.append(v)
        rng.shuffle(cands)
        ops.extend(Decide(gset, c, i == 0) for i, c in enumerate(cands))
        if si in IDEMPOTENCE:
            ops.append(Idempotence(gset, cands[:BATTERY]))
    return ops
