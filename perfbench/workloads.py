"""The three benchmark workloads.

Each workload builds one pass of tasks from the run's seed, in a fixed
composition of shapes and sizes, and checks every output by a route that
does not share the timed code path.  Every entry point is called through the
module objects of `ak` (see harness.load_package) so the tracer sees it.
NOTES.md records why each workload exists and what share of its time each
layer took at the start.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction as F
from pathlib import Path

from harness import CheckFailed, Task

# Warm-up inputs come from seeds this far above the measured ones.
WARMUP_OFFSET = 1_000_000
# Instance seeds of one pass: seed * STRIDE + position, distinct across seeds.
STRIDE = 1000


def shuffled(tasks: list, seed: int) -> list:
    """Seeded order, so that the heavy tasks of a pass are spread through it."""
    random.Random(seed).shuffle(tasks)
    return tasks


def fractions_text(values) -> list[str]:
    return [str(v) for v in values]


class MpCorpus:
    """Criterion-2 corpus shape: generate, validate, 9-price oracle battery."""

    name = "mp_corpus"
    why = ("check_submodular's pairwise scan is 93% of the time; the demand "
           "oracles are at most 6% and each value table is queried 9 times")

    # (m, s, k, epsilon, instances per pass): the acceptance corpus of
    # tests/corpus.py, copied so that edits to the tests cannot change the
    # workload.  The pass of seed 0 is exactly that corpus.
    SPECS = [
        (4, 2, 1, "1/2", 12),
        (4, 2, 2, "1/2", 12),
        (6, 3, 2, "2/3", 12),
        (8, 4, 2, "3/4", 12),
        (8, 4, 2, "1/2", 12),
        (8, 4, 3, "1/2", 10),
        (9, 3, 3, "2/3", 8),
        (10, 5, 2, "3/5", 8),
        (11, 4, 2, "3/4", 6),
        (12, 6, 2, "5/6", 5),
        (12, 6, 2, "1/2", 5),
        (12, 3, 2, "2/3", 5),
        (13, 7, 1, "6/7", 3),
        (14, 7, 1, "6/7", 3),
        (14, 7, 2, "6/7", 3),
        (14, 4, 2, "1/2", 3),
    ]

    def __init__(self, ak, seed: int, root: Path, workdir: Path):
        self.ak = ak
        self.seed = seed
        self.frozen_path = root / "tests" / "data" / "multipeak_corpus.json"
        self._frozen = None

    def tasks(self) -> list[Task]:
        return shuffled([self._task(m, s, k, eps, count * self.seed + i)
                         for m, s, k, eps, count in self.SPECS for i in range(count)],
                        self.seed)

    def warmup(self) -> list[Task]:
        """One instance per spec up to m=12, from seeds no pass measures."""
        return [self._task(m, s, k, eps, count * (WARMUP_OFFSET + self.seed))
                for m, s, k, eps, count in self.SPECS if m <= 12]

    def battery(self, m: int, s: int, seed: int):
        """tests/corpus.py's nine price vectors, zero to unaffordable."""
        vector = self.ak.demand.PriceVector
        battery = [
            ("zero", vector.zero(m)),
            ("uniform-half-peak", vector((F(1, 2 * s),) * m)),
            ("uniform-peak", vector((F(1, s),) * m)),
            ("uniform-one", vector((F(1),) * m)),
        ]
        rng = random.Random(1_000_003 * seed + 101 * m + s)
        for i in range(5):
            battery.append((f"random-{i}", vector(tuple(
                F(rng.randint(0, 24), rng.choice([4, 8, 16])) for _ in range(m)))))
        return battery

    def frozen(self) -> dict:
        if self._frozen is None:
            doc = json.loads(self.frozen_path.read_text())
            self._frozen = {
                (rec["params"]["m"], rec["params"]["s"], rec["params"]["k"],
                 rec["params"]["epsilon"], rec["seed"]): rec
                for rec in doc["instances"]}
        return self._frozen

    def _task(self, m: int, s: int, k: int, eps: str, seed: int) -> Task:
        ak = self.ak
        battery = self.battery(m, s, seed)

        def run():
            v = ak.instances.gen_multipeak(m, s, k, F(eps), 1, seed=seed).bidders[0]
            monotone = ak.valuations.check_monotone(v).holds
            submodular = ak.valuations.check_submodular(v).holds
            rows = [(label, ak.demand.multipeak_demand(v, p).max_utility,
                     ak.demand.brute_force_demand(v, p).max_utility)
                    for label, p in battery]
            return monotone, submodular, rows

        def verify(out):
            monotone, submodular, rows = out
            if monotone and submodular:
                for label, fast, brute in rows:
                    if fast != brute:
                        raise CheckFailed(f"validating instance, {label} prices: "
                                          f"fast {fast} != brute {brute}")
            record = self.frozen().get((m, s, k, eps, seed))
            if record is not None:
                expected = (record["monotone"], record["submodular"],
                            [(row["label"], row["match"]) for row in record["prices"]])
                got = (monotone, submodular,
                       [(label, fast == brute) for label, fast, brute in rows])
                if got != expected:
                    raise CheckFailed(f"statuses differ from {self.frozen_path.name}")
            return [monotone, submodular,
                    [[label, str(fast), str(brute)] for label, fast, brute in rows]]

        return Task(f"m{m}-s{s}-k{k}-eps{eps}-seed{seed}", run, verify)


class UdGrid:
    """Criterion-6 shape: DGS auction checked against the minimal-envy-free
    grid, plus an English auction for additive bidders of the same size."""

    name = "ud_grid"
    why = ("the minimal_envy_free grid scan is 99.8% of the time and no value "
           "table is built; m=5 instances form the tail")

    BOUND, STEP, INCREMENT, MAX_STEPS = F(5), F(1), F(1), 1000
    # (m, n) of the pass's 107 tasks.  Criterion 6 draws m and n uniformly
    # from 1..5, so every pair is equally likely.  Here each pair with m<=3
    # appears 6 times and each pair with m=4 3 times, and m=5 appears twice,
    # with n=2 and n=4, whose mean cost is that of all five n.  The costly
    # sizes are cut so that a pass takes about 9 s and every task runs 4
    # times in a 40-s run, and the m=4 count puts p90 inside the m=4 tasks,
    # not at an edge between sizes; NOTES.md gives the measured shares.
    SHAPES = ([(m, n) for m in (1, 2, 3) for n in range(1, 6)] * 6
              + [(4, n) for n in range(1, 6)] * 3 + [(5, 2), (5, 4)])

    def __init__(self, ak, seed: int, root: Path, workdir: Path):
        self.ak = ak
        self.seed = seed

    def tasks(self) -> list[Task]:
        return shuffled([self._task(m, n, self.seed * STRIDE + i)
                         for i, (m, n) in enumerate(self.SHAPES)], self.seed)

    def warmup(self) -> list[Task]:
        base = (WARMUP_OFFSET + self.seed) * STRIDE
        return [self._task(m, n, base + i)
                for i, (m, n) in enumerate(self.SHAPES) if m <= 3][::4]

    def _task(self, m: int, n: int, seed: int) -> Task:
        ak = self.ak
        unit = ak.instances.gen_unit_demand(n, m, (0, 5), seed=seed)
        additive = ak.instances.gen_additive(n, m, (0, 5), seed=seed)

        def run():
            dgs = ak.auctions.run_ascending(unit, ak.auctions.dgs_rule(self.INCREMENT),
                                            self.MAX_STEPS)
            minimal = ak.equilibrium.minimal_envy_free(unit, self.BOUND, self.STEP)
            english = ak.auctions.run_ascending(
                additive, ak.auctions.english_additive_rule(self.INCREMENT),
                self.MAX_STEPS)
            return dgs.outcome, minimal, english.outcome

        def verify(out):
            dgs, minimal, english = out
            certified = ak.auctions.EnvyFreeOutcome
            if not isinstance(dgs, certified):
                raise CheckFailed(f"DGS ended {type(dgs).__name__}")
            if dgs.prices not in minimal:
                raise CheckFailed("DGS prices are not grid-minimal envy-free")
            if not isinstance(english, certified):
                raise CheckFailed(f"English auction ended {type(english).__name__}")
            for j in range(1, m + 1):
                values = sorted((v.values[j - 1] for v in additive.bidders),
                                reverse=True)
                second = values[1] if len(values) > 1 else F(0)
                if english.prices.price_of(j) != second:
                    raise CheckFailed(f"English price of item {j} is not {second}")
            return [fractions_text(dgs.prices.prices),
                    [fractions_text(p.prices) for p in minimal],
                    fractions_text(english.prices.prices)]

        return Task(f"m{m}-n{n}-seed{seed}", run, verify)


class ExplicitAuction:
    """The CLI path: `auctionkit auction doc --rule greedy` on explicit
    coverage-function bidders, one in-process cli.main call per task."""

    name = "explicit_auction"
    why = ("CLI greedy auctions on explicit tables: every step re-queries "
           "cached value tables, decodes a document and backtracks for an "
           "envy-free allocation")

    # (m, n) of the pass's 104 tasks.
    SHAPES = [(7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 3), (10, 2), (10, 3)] * 13
    # Coverage functions: item j covers 1..SPAN of UNIVERSE weighted elements;
    # a bundle is worth the total weight it covers (monotone, submodular).
    UNIVERSE, MAX_WEIGHT, SPAN = 20, 6, 4
    ARGS = ["--rule", "greedy", "--increment", "1/2", "--max-steps", "200"]

    def __init__(self, ak, seed: int, root: Path, workdir: Path):
        self.ak = ak
        self.seed = seed
        self.workdir = workdir

    def tasks(self) -> list[Task]:
        return shuffled([self._task(m, n, self.seed * STRIDE + i, f"doc-{i}")
                         for i, (m, n) in enumerate(self.SHAPES)], self.seed)

    def warmup(self) -> list[Task]:
        base = (WARMUP_OFFSET + self.seed) * STRIDE
        return [self._task(m, n, base + i, f"warmup-{i}")
                for i, (m, n) in enumerate(self.SHAPES[:2])]

    def coverage(self, rng: random.Random, m: int):
        weights = [rng.randint(1, self.MAX_WEIGHT) for _ in range(self.UNIVERSE)]
        covers = [sum(1 << e for e in rng.sample(range(self.UNIVERSE),
                                                 rng.randint(1, self.SPAN)))
                  for _ in range(m)]
        covered = [0] * (1 << m)
        for mask in range(1, 1 << m):
            low = mask & -mask
            covered[mask] = covered[mask ^ low] | covers[low.bit_length() - 1]
        table = tuple(F(sum(w for e, w in enumerate(weights) if c >> e & 1))
                      for c in covered)
        return self.ak.valuations.Explicit(m, table)

    def bidders(self, m: int, n: int, seed: int) -> tuple:
        rng = random.Random(seed)
        return tuple(self.coverage(rng, m) for _ in range(n))

    def _task(self, m: int, n: int, seed: int, name: str) -> Task:
        """Only the document is kept: a CLI run holds no other instance, and
        the check rebuilds the bidders from the seed."""
        ak = self.ak
        instance = ak.instances.Instance(
            m, self.bidders(m, n, seed),
            {"name": f"coverage-m{m}-n{n}-seed{seed}", "seed": seed})
        path = self.workdir / f"{name}.json"
        path.write_bytes(ak.instances.encode_instance(instance))
        argv = ["auction", str(path), *self.ARGS]

        def run():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = ak.cli.main(argv)
            return code, stdout.getvalue()

        def verify(out):
            code, text = out
            if code != 0:
                raise CheckFailed(f"auctionkit auction exited {code}")
            result = json.loads(text)["result"]
            outcome = result["trace"]["outcome"]
            if outcome["kind"] != "envy_free":
                raise CheckFailed(f"auction ended {outcome['kind']}")
            prices = ak.demand.PriceVector(tuple(
                ak.rationals.parse_rational(p) for p in outcome["prices"]))
            for b, v in enumerate(self.bidders(m, n, seed)):
                bundle = ak.itemsets.ItemSet(outcome["allocation"][b])
                best = ak.demand.brute_force_demand(v, prices).max_utility
                if ak.demand.utility(v, prices, bundle) != best:
                    raise CheckFailed(f"bidder {b}'s set misses utility {best}")
            return result

        return Task(f"m{m}-n{n}-seed{seed}", run, verify)


WORKLOADS = {w.name: w for w in (MpCorpus, UdGrid, ExplicitAuction)}
