"""Valuation classes over item sets, exact evaluation, and exhaustive validators.

Every value is exact: a fractions.Fraction, or in a value table an integer
over the table's one denominator (rationals.scale converts the first into
the second).  Nothing is rounded, so ties between bundles are decided
exactly.  The multi-peak family follows its defining piecewise formulas
verbatim even where those formulas violate monotonicity; check_monotone /
check_submodular are the authority on structure, and callers are expected
to consult them rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from typing import Optional, Union

import numpy as np

from .errors import GroundSetTooLargeError, MalformedSystemError
from .itemsets import ItemSet, all_masks, canonical_masks, popcounts
from .rationals import scale

# Every size limit, keyed by the name its refusal prints and read at each
# call.  README.md's "Size limits" says what each entry bounds and how long
# a run near it takes.
LIMITS = {
    "value_table": 20,
    "an explicit table": 20,
    "check_monotone": 20,
    # The pairwise scan's own peak at m=20 (tracemalloc, table built
    # beforehand), nearly all of it the two expansions, 32 times the
    # scan's copy of the table: 67 MiB on uint16, 265 MiB on uint64 and
    # 268 MiB on Python ints.  See _SCAN_ELEMENTS.
    "check_submodular": 20,
    "brute-force demand": 20,
    "demand-set enumeration": 16,
    "grid search": 6,
    "grid points": 10_000_000,
    "demand sets": 4096,
    "generation retries": 10_000,
}

# Scaled integers above this bound leave int64 headroom; fall back to
# arbitrary-precision object arrays.
_INT64_GUARD = 1 << 60

# The most subset pairs submodular_by_definition compares in one numpy
# call.  Its square root, rounded down to a power of two, caps the scan's
# R = 2**r rows per group: r <= 7 here, and a test that lowers this
# constant shrinks R with it.  Below that cap r also keeps the scan's two
# expansions, 2**(m + r + 1) entries, at 2**19 entries (1 MiB of uint16)
# up to m = 14: r = min(m, 7, max(4, 18 - m)), so r = m up to m = 7, 7 up
# to m = 11, 6 at m = 12, 5 at m = 13 and 4 from m = 14 on.  With the
# expansions stored a-major, a larger r no longer buys speed past m = 13:
# one uint16 budget-additive table scanned in, at r = 4, 5, 6, 7: m=12 8.2,
# 9.5, 8.2, 9.2 ms; m=13 41, 32, 30, 33 ms; m=14 0.10, 0.12, 0.11, 0.12 s;
# m=15 0.40, 0.47, 0.41, 0.52 s; m=16 1.6, 2.1, 1.8, 2.0 s.  So the
# smallest r costs little.  (With the earlier group-major expansions,
# r = 5 from m = 14 on ran mp_corpus about 22% faster than r = 4, which
# the benchmark harness's records for its extra passes made too costly in
# peak RSS; see ROADMAP items 1 and 12.)
# The call width, measured with the group-major expansions on the 19
# submodular corpus bidders at m=12..14, best of 3 interleaved rounds, in
# all: on their uint16 tables 1.54 s at 2**14,
# 1.19 s at 2**15, 1.07 s at 2**16 and 0.96 s at 2**17; times 4 (uint32)
# 1.93, 1.69, 1.50 and 1.48 s; times 2**40 (uint64) 2.55, 2.44, 2.36 and
# 2.79 s.  2**15 holds a quarter of 2**17's scratch arrays and keeps r <= 7
# at m <= 10 (2**17 would give r = 8 there).  All timings on a 2-CPU Xeon,
# numpy 2.4.
_SCAN_ELEMENTS = 1 << 15

# The floor of the scan's call width: a call compares up to
# max(_SCAN_ELEMENTS, _MIN_CHUNK) pairs, so this binds only when
# _SCAN_ELEMENTS is set below it.  Narrower calls cost mostly numpy's own
# overhead: with _SCAN_ELEMENTS = 16 (R = 4), the scan of an m=11
# multi-peak table took 271 ns a pair in calls of 16 pairs, 10 ns in calls
# of 2**10, 4.7 ns in calls of 2**12 and 4.3 ns in calls of 2**15 (2-CPU
# Xeon, numpy 2.4).  _expand builds rows of at least this many entries one
# call each, and shorter ones in bands.
_MIN_CHUNK = 1 << 12


def _row_bits(m: int) -> int:
    """submodular_by_definition's r for m items: R = 2**r rows per group
    (see _SCAN_ELEMENTS)."""
    return min(m, (_SCAN_ELEMENTS.bit_length() - 1) // 2, max(4, 18 - m))


def _fractions(values) -> tuple[Fraction, ...]:
    """Values as exact Fractions; a Fraction already is one and is kept."""
    return tuple([v if type(v) is Fraction else Fraction(v) for v in values])


def _check_bundle(bundle: ItemSet, num_items: int) -> None:
    if bundle.max_item() > num_items:
        raise ValueError(
            f"item {bundle.max_item()} is outside the ground set 1..{num_items}"
        )


@dataclass(frozen=True)
class SetSystem:
    """k peaks of a common size with an overlap budget of epsilon * size.

    Structural constraints (exact sizes, pairwise overlaps) are *not*
    enforced here; validate_set_system reports on them.  Keeping malformed
    systems constructible is deliberate: the uniqueness error paths need
    exercising.
    """

    peaks: tuple[ItemSet, ...]
    peak_size: int
    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(self.peaks))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if not self.peaks:
            raise ValueError("a set system needs at least one peak")
        if self.peak_size < 1:
            raise ValueError("peak_size must be a positive integer")
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie strictly between 0 and 1")


@dataclass(frozen=True)
class SystemReport:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class MonotoneReport:
    holds: bool
    # (S, x) with v(S + x) < v(S)
    counterexample: Optional[tuple[ItemSet, int]] = None


@dataclass(frozen=True)
class SubmodularReport:
    holds: bool
    # (S, T) with v(S | T) + v(S & T) > v(S) + v(T)
    counterexample: Optional[tuple[ItemSet, ItemSet]] = None


def _is_close(overlap, outside, length, pe, qe):
    """|S & T| - |S - T| > eps * |T| with eps = pe/qe, |S & T| = overlap,
    |S - T| = outside and |T| = length; on ints or numpy integer arrays."""
    return qe * (overlap - outside) > pe * length


def close_num(overlap, outside, size, pe, qe):
    """The close-region value a (2 - eps) / (2 s) + b (2 + eps) / (2 s) +
    a b / s^2 + eps^2 / 4 of a bundle S at a peak A, times 4 s^2 q^2, where
    a = |S & A| = overlap, b = |S - A| = outside, s = size and
    eps = pe/qe = p/q; on ints or numpy integer arrays."""
    return (2 * size * qe * (overlap * (2 * qe - pe) + outside * (2 * qe + pe))
            + 4 * qe * qe * overlap * outside
            + pe * pe * size * size)


def far_num(cardinality, size, qe):
    """The far-region value |S| / s - |S|^2 / (4 s^2) times 4 s^2 q^2, where
    |S| = cardinality, s = size and q = qe; on ints or numpy integer arrays."""
    return qe * qe * cardinality * (4 * size - cardinality)


def _malformed(mask: int, hits: list[int]) -> MalformedSystemError:
    return MalformedSystemError(
        f"{ItemSet.from_mask(mask)!r} is close to peaks {hits}; "
        "the system is malformed")


def eps_close(bundle: ItemSet, target: ItemSet, eps: Fraction) -> bool:
    """Whether |S & T| - |S - T| > eps * |T|.  Asymmetric in S and T."""
    eps = Fraction(eps)
    inter = len(bundle & target)
    return _is_close(inter, len(bundle) - inter, len(target),
                     eps.numerator, eps.denominator)


def find_close_peak(system: SetSystem, bundle: ItemSet) -> Optional[int]:
    """Index of the unique peak the bundle is close to, or None.

    For systems satisfying the overlap budget the close peak is provably
    unique; closeness to two peaks therefore certifies a malformed system
    and raises.
    """
    pe, qe = system.epsilon.numerator, system.epsilon.denominator
    mask = bundle.mask
    card = mask.bit_count()
    hits = []
    for i, peak in enumerate(system.peaks):
        inter = (mask & peak.mask).bit_count()
        if _is_close(inter, card - inter, len(peak), pe, qe):
            hits.append(i)
    if len(hits) > 1:
        raise _malformed(mask, hits)
    return hits[0] if hits else None


def multipeak_num(system: SetSystem, bundle: ItemSet) -> int:
    """The multi-peak value of a bundle, scaled by 4 s^2 q^2 (eps = p/q):
    the close formula for the one peak it is close to, else the far
    formula.  Raises MalformedSystemError when it is close to two."""
    idx = find_close_peak(system, bundle)
    eps, size = system.epsilon, system.peak_size
    card = len(bundle)
    if idx is None:
        return far_num(card, size, eps.denominator)
    inter = len(bundle & system.peaks[idx])
    return close_num(inter, card - inter, size, eps.numerator, eps.denominator)


@dataclass(frozen=True)
class _ItemValues:
    """The base of the classes given by one nonnegative value per item."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = _fractions(self.values)
        if any(v.numerator < 0 for v in values):
            raise ValueError("item values must be nonnegative")
        object.__setattr__(self, "values", values)

    @property
    def num_items(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Additive(_ItemValues):
    """v(S) = sum of per-item values."""

    def value(self, bundle: ItemSet) -> Fraction:
        _check_bundle(bundle, self.num_items)
        return sum((self.values[j - 1] for j in bundle), Fraction(0))


@dataclass(frozen=True)
class UnitDemand(_ItemValues):
    """v(S) = best single item in S."""

    def value(self, bundle: ItemSet) -> Fraction:
        _check_bundle(bundle, self.num_items)
        return max((self.values[j - 1] for j in bundle), default=Fraction(0))


@dataclass(frozen=True)
class BudgetAdditive(_ItemValues):
    """v(S) = min(budget, sum of per-item values)."""

    budget: Fraction

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "budget", Fraction(self.budget))
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")

    def value(self, bundle: ItemSet) -> Fraction:
        _check_bundle(bundle, self.num_items)
        return min(self.budget,
                   sum((self.values[j - 1] for j in bundle), Fraction(0)))


@dataclass(frozen=True)
class MultiPeak:
    """Piecewise valuation: elevated near each peak, quadratic elsewhere.

    The far-region formula turns negative once |S| exceeds 4 * peak_size, so
    ground sets that large are rejected outright rather than producing
    negative values.
    """

    system: SetSystem
    num_items: int

    def __post_init__(self):
        if self.num_items < 1:
            raise ValueError("num_items must be positive")
        if self.num_items > 4 * self.system.peak_size:
            raise ValueError(
                "ground sets larger than 4 * peak_size drive the far-region "
                "formula negative"
            )
        for i, peak in enumerate(self.system.peaks):
            if peak.max_item() > self.num_items:
                raise ValueError(f"peak {i} uses items beyond the ground set")

    def value(self, bundle: ItemSet) -> Fraction:
        _check_bundle(bundle, self.num_items)
        system = self.system
        qe, size = system.epsilon.denominator, system.peak_size
        return Fraction(multipeak_num(system, bundle),
                        4 * size * size * qe * qe)


@dataclass(frozen=True, init=False)
class Explicit:
    """Dense table of values, indexed by subset mask.

    The values live in the valuation's value table, integers over one
    denominator, which `value` reads.  Both constructors build that table
    at once: Explicit(m, table) from rationals, Explicit.from_scaled from
    the integers.
    """

    num_items: int
    # A field read through a cached property: the values as Fractions,
    # built from the value table on first read.  Equality, hashing and repr
    # compare and show this tuple.
    table: tuple[Fraction, ...]

    def __init__(self, num_items: int, table):
        self._hold(num_items, *scale(_fractions(table)))

    @classmethod
    def from_scaled(cls, num_items: int, nums: list[int],
                    denom: int) -> "Explicit":
        """The valuation with value(mask) = nums[mask] / denom; the checks
        and messages are the constructor's."""
        valuation = object.__new__(cls)
        valuation._hold(num_items, nums, denom)
        return valuation

    def _hold(self, num_items: int, nums, denom: int) -> None:
        _check_table(num_items, nums, denom)
        object.__setattr__(self, "num_items", num_items)
        _keep_table(self, int_table(nums), denom)

    @cached_property
    def table(self) -> tuple[Fraction, ...]:
        kept = self._value_table
        return tuple(Fraction(n, kept.denom) for n in kept.nums.tolist())

    def value(self, bundle: ItemSet) -> Fraction:
        _check_bundle(bundle, self.num_items)
        kept = self._value_table
        return Fraction(int(kept.nums[bundle.mask]), kept.denom)


def _check_table(num_items: int, entries, denom: int) -> None:
    """Explicit's checks, in order, of the table entries[mask] / denom."""
    _guard_items(num_items, "an explicit table")
    if denom < 1:
        raise ValueError(f"the denominator must be at least 1, got {denom}")
    if len(entries) != 1 << num_items:
        raise ValueError(
            f"table must have {1 << num_items} entries, got {len(entries)}")
    if min(entries) < 0:
        raise ValueError("table values must be nonnegative")
    if entries[0] != 0:
        raise ValueError("the empty set must have value 0")


Valuation = Union[Additive, UnitDemand, BudgetAdditive, MultiPeak, Explicit]


def eval_valuation(valuation: Valuation, bundle: ItemSet) -> Fraction:
    """Exact value of a bundle under any valuation class."""
    return valuation.value(bundle)


def validate_set_system(system: SetSystem) -> SystemReport:
    """Check peak sizes and pairwise overlaps; every violation is listed."""
    violations = []
    size = system.peak_size
    budget = system.epsilon * size
    for i, peak in enumerate(system.peaks):
        if len(peak) != size:
            violations.append(f"peak {i} has size {len(peak)}, expected {size}")
    for i in range(len(system.peaks)):
        for j in range(i + 1, len(system.peaks)):
            overlap = len(system.peaks[i] & system.peaks[j])
            if Fraction(overlap) > budget:
                violations.append(
                    f"peaks {i} and {j} share {overlap} items, more than "
                    f"epsilon * size = {budget}")
    return SystemReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Dense exact tables and exhaustive validators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ValueTable:
    """Exact dense values: value(mask) = nums[mask] / denom."""

    nums: np.ndarray  # int64, or object dtype when int64 would overflow
    denom: int
    num_items: int
    # The largest |nums[mask]|, taken once here for every later overflow bound.
    max_abs: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "max_abs", int(np.max(np.abs(self.nums))))

    @cached_property
    def canonical_nums(self) -> np.ndarray:
        """nums in canonical order: entry i is the value of the set
        canonical_masks(num_items)[i].  Read-only; built on first read,
        which is the first brute-force demand query, and kept as long as
        the table."""
        nums = self.nums[canonical_masks(self.num_items)]
        nums.flags.writeable = False
        return nums


def int_dtype(bound: int):
    """int64 when every integer the caller computes is proven to stay below
    bound in magnitude and bound leaves int64 headroom, else object dtype
    (exact Python ints)."""
    return np.int64 if bound < _INT64_GUARD else object


def int_table(nums, fold=None, cap: Optional[int] = None) -> np.ndarray:
    """Nonnegative integers as an array.

    Without fold the array is nums itself.  With fold (np.add or np.maximum)
    the integers are per item and entry mask folds the items of mask; the
    table is built in place by doubling, item i filling the masks that have
    it as their highest item from the masks below 2**i.
    cap, when given, clips every entry from above.  The dtype comes from
    int_dtype with a bound on every entry and partial fold.
    """
    bound = max(sum(nums) if fold is np.add else max(nums, default=0),
                cap or 0)
    dtype = int_dtype(bound)
    if fold is None:
        table = np.array(nums, dtype=dtype)
    else:
        table = np.zeros(1 << len(nums), dtype=dtype)
        for i, x in enumerate(nums):
            half = 1 << i
            fold(table[:half], x, out=table[half:2 * half])
    if cap is not None:
        np.minimum(table, cap, out=table)
    return table


def _guard_items(num_items: int, what: str) -> None:
    """Refuse a ground set above LIMITS[what], the limit of routine `what`."""
    limit = LIMITS[what]
    if num_items > limit:
        raise GroundSetTooLargeError(
            f"{what} is limited to {limit} items, got {num_items}")


def value_table(valuation: Valuation) -> ValueTable:
    """Dense table of exact scaled values over all 2**m subsets.

    An Explicit valuation's table is built by its constructor.  Any other
    valuation's is built on the first call and kept on the valuation,
    outside its dataclass fields, for as long as the valuation lives.
    Later calls return the same read-only table.
    """
    table = getattr(valuation, "_value_table", None)
    if table is None:
        _guard_items(valuation.num_items, "value_table")
        table = _keep_table(valuation, *_scaled_values(valuation))
    return table


def _keep_table(valuation: Valuation, nums: np.ndarray,
                denom: int) -> ValueTable:
    nums.flags.writeable = False
    table = ValueTable(nums, denom, valuation.num_items)
    object.__setattr__(valuation, "_value_table", table)
    return table


def _scaled_values(valuation: Valuation) -> tuple[np.ndarray, int]:
    if isinstance(valuation, Additive):
        nums, denom = scale(valuation.values)
        return int_table(nums, np.add), denom
    if isinstance(valuation, BudgetAdditive):
        (*nums, cap), denom = scale((*valuation.values, valuation.budget))
        return int_table(nums, np.add, cap), denom
    if isinstance(valuation, UnitDemand):
        nums, denom = scale(valuation.values)
        return int_table(nums, np.maximum), denom
    if isinstance(valuation, MultiPeak):
        return _multipeak_scaled(valuation)
    raise TypeError(f"unknown valuation class {type(valuation).__name__}")


def _multipeak_scaled(valuation: MultiPeak) -> tuple[np.ndarray, int]:
    """The far and close formulas over the common denominator 4 s^2 q^2,
    where epsilon = p/q; closeness is eps_close's test against each peak."""
    m = valuation.num_items
    system = valuation.system
    size = system.peak_size
    pe, qe = system.epsilon.numerator, system.epsilon.denominator
    # With 0 < p < q and a + b = |S| <= m <= 4 s, every term and partial
    # product of both formulas is nonnegative and at most
    # q^2 (6 s m + m^2 + 5 s^2), and so are |q (a - b)| and p |T| <= p m.
    dtype = int_dtype(qe * qe * (6 * size * m + m * m + 5 * size * size))
    masks = all_masks(m)
    card = popcounts(masks).astype(dtype, copy=False)
    nums = far_num(card, size, qe)
    closes = []
    for peak in system.peaks:
        a = popcounts(masks & peak.mask).astype(dtype, copy=False)
        b = card - a
        close = _is_close(a, b, len(peak), pe, qe)
        closes.append(close)
        nums = np.where(close, close_num(a, b, size, pe, qe), nums)
    clash = np.flatnonzero(np.sum(closes, axis=0) > 1)
    if len(clash):
        bad = int(clash[0])
        raise _malformed(bad, [i for i, close in enumerate(closes) if close[bad]])
    return nums, 4 * size * size * qe * qe


def _expand_bit(compressed: int, bit: int) -> int:
    """Re-insert a 0 at position `bit` of a compressed mask."""
    low = compressed & ((1 << bit) - 1)
    return ((compressed >> bit) << (bit + 1)) | low


def check_monotone(valuation: Valuation) -> MonotoneReport:
    """Exhaustively verify v(S + x) >= v(S) for every S and x not in S.

    The returned counterexample is the first violation in (mask ascending,
    item ascending) order.
    """
    m = valuation.num_items
    _guard_items(m, "check_monotone")
    table = value_table(valuation)
    tensor = table.nums.reshape((2,) * m)
    best: Optional[tuple[int, int]] = None
    for bit in range(m):
        axis = m - 1 - bit
        # An index list keeps the axis, so low and high stay arrays even when
        # m = 1 and an object-dtype table would yield bare Python ints.
        low = tensor.take([0], axis=axis)
        high = tensor.take([1], axis=axis)
        viol = high < low
        if viol.any():
            compressed = int(np.argmax(viol.reshape(-1)))
            candidate = (_expand_bit(compressed, bit), bit + 1)
            if best is None or candidate < best:
                best = candidate
    if best is None:
        return MonotoneReport(holds=True)
    return MonotoneReport(holds=False,
                          counterexample=(ItemSet.from_mask(best[0]), best[1]))


@cache
def _low_bit_tables(r: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables of a | b and of a & b at [a, b], for all r-bit masks a
    and b; built once per r.  Only submodular_by_definition reads them:
    group 0 reads its rows of a | b, a block at a time, and every later
    group reads the expansions that _expand builds from both once per
    scan.  The tables stay writeable because numpy's take copies a
    read-only index array on every call, and every call in group 0
    indexes with a | b."""
    low = np.arange(1 << r)
    return low[:, None] | low, low[:, None] & low


def _expand(vals: np.ndarray, index: np.ndarray, out: np.ndarray,
            buffer: np.ndarray) -> None:
    """out[a, u, b] = vals[u, index[a, b]], each row a of 2**m entries.  A
    row of at least _MIN_CHUNK entries is one take, straight into out[a].
    Shorter rows would cost mostly numpy's overhead per call, so they go
    in bands of as many rows as the flat buffer holds, at least two: a take
    along vals' axis 1 yields [u, a, b], and the band is copied into out
    transposed."""
    groups, size = vals.shape
    if vals.size >= _MIN_CHUNK:
        for a in range(size):
            vals.take(index[a], axis=1, out=out[a], mode="clip")
        return
    band = len(buffer) // vals.size
    for a in range(0, size, band):
        rows = index[a:a + band]
        block = buffer[:rows.size * groups].reshape(groups, len(rows), size)
        vals.take(rows, axis=1, out=block, mode="clip")
        out[a:a + band] = block.transpose(1, 0, 2)


def submodular_by_definition(valuation: Valuation) -> SubmodularReport:
    """Scan all subset pairs for v(S|T) + v(S&T) <= v(S) + v(T).

    The counterexample, if any, is the first pair in (S ascending,
    T ascending) order.  The condition is symmetric in S and T, so no row
    S needs a T before it.

    Each mask splits into a group g, its high bits, and r low bits a, with
    R = 2**r rows per group (see _SCAN_ELEMENTS for r); the table is read
    as V[g, a].  For S = (g, a) and T = (h, b), S | T = (g | h, a | b) and
    S & T = (g & h, a & b).  So one numpy call compares a block of rows a
    of group g with every b of whole groups h >= g, as
    V[g | h][a | b] + V[g & h][a & b] > V[g, a] + V[h, b].  A call compares
    at most max(_SCAN_ELEMENTS, _MIN_CHUNK) pairs, and the calls of a
    block go in ascending h.

    Row 0 of group 0 is S = {}, where S | T = T and S & T = {}, so it
    never violates and is not scanned.  Group 0 goes in the aligned row
    blocks [1, 2), [2, 4) ... [R/2, R).  There g | h = h and g & h = 0, so
    a call gathers V[h][a | b] through the R x R table of low-bit a | b
    from _low_bit_tables, and V[0][a & b] is one block for every h.
    Every later group is one block, read through the expansions
    E_or[a, u, b] = V[u, a | b] and E_and[a, u, b] = V[u, a & b], stored
    a-major: its calls copy E_or[lo:hi, g | h] and E_and[lo:hi, g & h],
    whole R-entry rows, in the layout (rows, groups, R) instead of
    gathering each pair.  The right side V[g, a] + V[h, b] is then one
    add of a value per row a to the step * R contiguous values of the
    call's groups h.  The scan builds both expansions, 2**(m + r + 1)
    entries in all, when group 1 starts (see _expand), so a scan that
    stops in group 0 builds neither.

    The first block that shows a violation is scanned again one row at a
    time (unless it is one row), in ascending a, each row in ascending T
    from the call where the block showed it; no earlier call of the block
    holds a violation in any of its rows.  A row of a later group reads
    E_or[a, g | h] and E_and[a, g & h], one R-entry row each per group h.
    A row's flags flatten in (h, b) order, so the first one is its first
    T.  The first violation a row shows is the answer.  Every row before
    it has no violation at any T in its own group or after.  A row also
    compares the pairs (S, T) with T < S in its own group, and there T is
    one of those earlier rows, so (T, S) holds and by symmetry (S, T)
    does.  So the row's first violation is at some T >= S.

    Every number the scan compares is a sum of two table entries, at most
    2 * max_abs, and no value table has a negative entry: Explicit and the
    per-item classes refuse negative values, and the multi-peak formulas
    are nonnegative on every ground set MultiPeak accepts.  So the scan
    runs, exactly, on the narrowest unsigned dtype that holds 2 * max_abs:
    uint8, uint16, uint32 or uint64, and Python ints (object dtype) past
    2**64.  Only that one dtype meets in the arithmetic; numpy would turn
    a mix of int64 and uint64 into float64.
    """
    m = valuation.num_items
    _guard_items(m, "check_submodular")
    table = value_table(valuation)
    r = _row_bits(m)
    size = 1 << r
    vals = table.nums.astype(np.min_scalar_type(2 * table.max_abs))
    vals = vals.reshape(-1, size)
    groups = np.arange(len(vals))
    ors, ands = _low_bit_tables(r)
    width = max(_SCAN_ELEMENTS, _MIN_CHUNK)
    # Every call writes into these, so the scan allocates no array per
    # call.  No call compares more than R * 2**m pairs.
    most = min(width, size << m)
    sums = np.empty((2, most), vals.dtype)
    flags = np.empty(most, bool)
    # E_or and E_and of the docstring, as expansions[0] and expansions[1].
    expansions = None

    def first_violation(g, lo, hi, start):
        """(h, viol) of the first call from group `start` on that finds a
        violation in rows lo..hi-1 of group g; None if no call does.
        viol[h' - h, a - lo, b] in group 0 and viol[a - lo, h' - h, b] in
        later groups flags the pair (g, a), (h', b), so one row's viol
        flattens in (h', b) order either way."""
        rows = hi - lo
        step = max(1, width // (rows * size))
        if g == 0:
            zero_ands = vals[0].take(ands[lo:hi])
        else:
            or_rows, and_rows = expansions[:, lo:hi]
        for h in range(start, len(groups), step):
            hs = groups[h:h + step]
            shape = (rows, len(hs), size) if g else (len(hs), rows, size)
            count = len(hs) * rows * size
            lhs = sums[0, :count].reshape(shape)
            rhs = sums[1, :count].reshape(shape)
            viol = flags[:count].reshape(shape)
            # Every index is in range, so "clip" moves none; unlike the
            # default "raise", it writes into `out` without a buffer.
            if g == 0:
                vals[h:h + step].take(ors[lo:hi], axis=1, out=lhs, mode="clip")
                np.add(lhs, zero_ands, out=lhs)
                np.add(vals[0, lo:hi, None], vals[h:h + step, None], out=rhs)
            else:
                or_rows.take(g | hs, axis=1, out=lhs, mode="clip")
                and_rows.take(g & hs, axis=1, out=rhs, mode="clip")
                np.add(lhs, rhs, out=lhs)
                # One value of S against step * R contiguous values of T.
                np.add(vals[g, lo:hi, None, None], vals[h:h + step], out=rhs)
            if np.greater(lhs, rhs, out=viol).any():
                return h, viol
        return None

    bounds = [1 << i for i in range(r + 1)]
    blocks = chain(((0, lo, hi) for lo, hi in zip(bounds, bounds[1:])),
                   ((g, 0, size) for g in range(1, len(groups))))
    for g, lo, hi in blocks:
        if g == 1:
            expansions = np.empty((2, size, len(vals), size), vals.dtype)
            _expand(vals, ors, expansions[0], sums.reshape(-1))
            _expand(vals, ands, expansions[1], sums.reshape(-1))
        found = first_violation(g, lo, hi, g)
        if found is None:
            continue
        start, a = found[0], lo
        if hi - lo > 1:
            for a in range(lo, hi):
                found = first_violation(g, a, a + 1, start)
                if found is not None:
                    break
        h, viol = found
        t_mask = h * size + int(np.argmax(viol.reshape(-1)))
        return SubmodularReport(
            holds=False,
            counterexample=(ItemSet.from_mask(g * size + a),
                            ItemSet.from_mask(t_mask)))
    return SubmodularReport(holds=True)


def submodular_by_marginals(valuation: Valuation) -> bool:
    """Decide submodularity via decreasing marginals (Lehmann, Lehmann and
    Nisan 2006): by second differences, v(S+x) + v(S+y) >= v(S+x+y) + v(S)
    for every set S and items x, y outside it.

    That is, the marginal g(S) = v(S + x) - v(S) over x-free sets S never
    rises when one more item y joins S; chained along any path from S up
    to T, g(S) >= g(T) whenever S is a subset of T.  Each item x is an axis
    of the (2,)*m tensor of values, and each pair of axes is one
    comparison of two slices of x's marginals.
    """
    m = valuation.num_items
    _guard_items(m, "check_submodular")
    tensor = value_table(valuation).nums.reshape((2,) * m)
    for x in range(m):
        # Kept as a length-1 axis, as in check_monotone, so every slice
        # below is an array and an object-dtype table stays exact.
        marg = tensor.take([1], axis=x) - tensor.take([0], axis=x)
        for y in range(x + 1, m):
            if (marg.take([1], axis=y) > marg.take([0], axis=y)).any():
                return False
    return True


def check_submodular(valuation: Valuation) -> SubmodularReport:
    """Exhaustive submodularity check, cross-validated by two routes.

    The pairwise definition is the authority for the verdict and the
    counterexample; the decreasing-marginals route must agree, and a
    disagreement means an internal bug, never a property of the input.
    """
    report = submodular_by_definition(valuation)
    if submodular_by_marginals(valuation) != report.holds:
        raise RuntimeError(
            "internal disagreement between submodularity checkers")
    return report
