"""Time the pairwise submodularity scan at the sizes README quotes.

    python3 tools/scan_sizes.py [--repeat N]

Prints one line per figure of the `check_submodular` row of README's
"Size limits" table, each the best of N runs (default 5) of
`submodular_by_definition` on a table built beforehand:

- one budget-additive bidder with random item values (uint16 scan) at
  m = 14, 15 and 16, and the m=20 time extrapolated from m=16 at 4x per
  item;
- the m=14 table with every value times 2**40 (uint64 scan);
- the worst non-submodular case, v(S) = sum over k <= |S| of (m - k)**2
  with v(M - {1, 2}) raised by 2, whose only violating pair is the last
  the scan compares;
- a violation at row 0 of group 1, which builds both expansions and then
  stops, at m = 12, 14 and 16;
- at m=20, that group-1 exit on uint16, uint64 and Python ints (object
  dtype), with the scan's own peak memory traced by tracemalloc, and the
  decreasing-marginals route on the budget-additive table.

The package is imported from the `src/` beside this file, so a copy of the
script in another checkout times that checkout.  The m=20 figures take
about a minute and 400 MiB.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from auctionkit.valuations import (BudgetAdditive, Explicit,  # noqa: E402
                                   _row_bits, submodular_by_definition,
                                   submodular_by_marginals, value_table)


def budget_additive(m: int) -> BudgetAdditive:
    """Random item values in 100..999 under a budget of 20,000: 2 * max_abs
    stays below 2**16 up to m = 20, so the scan runs on uint16."""
    rng = random.Random(m)
    return BudgetAdditive(tuple(Fraction(rng.randint(100, 999))
                                for _ in range(m)), Fraction(20_000))


def shifted(v, bits: int) -> Explicit:
    """v's table with every value times 2**bits."""
    kept = value_table(v)
    return Explicit.from_scaled(v.num_items,
                                [n << bits for n in kept.nums.tolist()],
                                kept.denom)


def last_pair(m: int) -> Explicit:
    """sum over k <= |S| of (m - k)**2, strictly concave in |S|, with
    v(M - {1, 2}) raised by 2: the only violating pair is
    (M - {2}, M - {1})."""
    steps = np.cumsum([0] + [(m - k) ** 2 for k in range(1, m + 1)])
    table = steps[np.bitwise_count(np.arange(1 << m))].tolist()
    table[(1 << m) - 4] += 2
    return Explicit.from_scaled(m, table, 1)


def group_one_exit(m: int, r: int) -> Explicit:
    """v(T) = 3m |T| - 3 per pair of items in T, except +1 for the pair of
    items r + 1, r + 2: the first violating pair is ({r + 1}, {r + 2}),
    row 0 of group 1 for a scan of 2**r rows per group."""
    masks = np.arange(1 << m)
    sizes = np.bitwise_count(masks).astype(np.int64)
    both = (masks >> r & 3) == 3
    table = 3 * m * sizes - 3 * (sizes * (sizes - 1) // 2) + 4 * both
    return Explicit.from_scaled(m, table.tolist(), 1)


def best(function, repeat: int) -> float:
    """The fastest of `repeat` calls, in seconds."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return min(times)


def scan_time(v, repeat: int) -> float:
    value_table(v)
    return best(lambda: submodular_by_definition(v), repeat)


def traced_peak(v) -> float:
    """The scan's own peak memory, in MiB: a first scan caches the low-bit
    tables, the second is traced."""
    submodular_by_definition(v)
    tracemalloc.start()
    try:
        submodular_by_definition(v)
        return tracemalloc.get_traced_memory()[1] / (1 << 20)
    finally:
        tracemalloc.stop()


def show(label: str, seconds: float) -> None:
    unit, scale = ("ms", 1e3) if seconds < 0.1 else ("s", 1.0)
    print(f"{label}: {seconds * scale:.3g} {unit}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per figure; the best is shown")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    repeat = args.repeat

    full = {}
    for m in (14, 15, 16):
        full[m] = scan_time(budget_additive(m), repeat)
        show(f"budget-additive m={m}, uint16", full[m])
    print(f"m=20, extrapolated at 4x per item: "
          f"{full[16] * 4 ** 4 / 60:.3g} min", flush=True)
    show("budget-additive m=14 times 2**40, uint64",
         scan_time(shifted(budget_additive(14), 40), repeat))
    show("last pair m=14", scan_time(last_pair(14), repeat))
    for m in (12, 14, 16):
        exit_m = group_one_exit(m, _row_bits(m))
        show(f"group 1 row 0 m={m}", scan_time(exit_m, repeat))
    exit20 = group_one_exit(20, _row_bits(20))
    for label, v in (("uint16", exit20), ("uint64", shifted(exit20, 40)),
                     ("Python ints", shifted(exit20, 64))):
        value_table(v)
        print(f"group 1 row 0 m=20, {label}: traced peak "
              f"{traced_peak(v):.1f} MiB", flush=True)
        show(f"group 1 row 0 m=20, {label}", scan_time(v, min(repeat, 3)))
        del v
    v = budget_additive(20)
    value_table(v)
    show("marginals route m=20", best(lambda: submodular_by_marginals(v),
                                      repeat))
    return 0


if __name__ == "__main__":
    sys.exit(main())
