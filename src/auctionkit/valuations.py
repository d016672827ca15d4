"""Valuation classes over item sets, exact evaluation, and exhaustive validators.

Every value is an exact rational (fractions.Fraction); nothing is rounded,
so ties between bundles are decided exactly.  The multi-peak family follows
its defining piecewise formulas verbatim even where those formulas violate
monotonicity; check_monotone / check_submodular are the authority on
structure, and callers are expected to consult them rather than assume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import GroundSetTooLargeError, MalformedSystemError
from .itemsets import ItemSet, all_masks, popcounts

# 2**20 subsets is about the largest table that stays in desk-scale seconds.
MAX_EXHAUSTIVE_ITEMS = 20

# Scaled integers above this bound leave int64 headroom; fall back to
# arbitrary-precision object arrays.
_INT64_GUARD = 1 << 60


def _fraction_tuple(values, *, what: str = "item values") -> tuple[Fraction, ...]:
    """Values as exact Fractions; a Fraction already is one and is kept."""
    out = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
    if any(v.numerator < 0 for v in out):
        raise ValueError(f"{what} must be nonnegative")
    return out


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


def eps_close(bundle: ItemSet, target: ItemSet, eps: Fraction) -> bool:
    """Whether |S & T| - |S - T| > eps * |T|.  Asymmetric in S and T."""
    eps = Fraction(eps)
    inter = len(bundle & target)
    outside = len(bundle) - inter
    return Fraction(inter - outside) > eps * len(target)


def find_close_peak(system: SetSystem, bundle: ItemSet) -> Optional[int]:
    """Index of the unique peak the bundle is close to, or None.

    For systems satisfying the overlap budget the close peak is provably
    unique; closeness to two peaks therefore certifies a malformed system
    and raises.
    """
    hits = [i for i, peak in enumerate(system.peaks)
            if eps_close(bundle, peak, system.epsilon)]
    if len(hits) > 1:
        raise MalformedSystemError(
            f"{bundle!r} is close to peaks {hits}; the system is malformed"
        )
    return hits[0] if hits else None


def close_region_value(overlap: int, outside: int, size: int, eps: Fraction) -> Fraction:
    """Value of a bundle close to a peak: |S&A| = overlap, |S-A| = outside."""
    pe, qe = eps.numerator, eps.denominator
    num = (2 * size * qe * (overlap * (2 * qe - pe) + outside * (2 * qe + pe))
           + 4 * qe * qe * overlap * outside
           + pe * pe * size * size)
    return Fraction(num, 4 * size * size * qe * qe)


def far_region_value(cardinality: int, size: int) -> Fraction:
    """Value of a bundle far from every peak: |S|/s - |S|^2 / (4 s^2)."""
    return Fraction(cardinality * (4 * size - cardinality), 4 * size * size)


@dataclass(frozen=True)
class Additive:
    """v(S) = sum of per-item values."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _fraction_tuple(self.values))

    @property
    def num_items(self) -> int:
        return len(self.values)

    def value(self, bundle: ItemSet) -> Fraction:
        _check_bundle(bundle, self.num_items)
        return sum((self.values[j - 1] for j in bundle), Fraction(0))


@dataclass(frozen=True)
class UnitDemand:
    """v(S) = best single item in S."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _fraction_tuple(self.values))

    @property
    def num_items(self) -> int:
        return len(self.values)

    def value(self, bundle: ItemSet) -> Fraction:
        _check_bundle(bundle, self.num_items)
        return max((self.values[j - 1] for j in bundle), default=Fraction(0))


@dataclass(frozen=True)
class BudgetAdditive:
    """v(S) = min(budget, sum of per-item values)."""

    values: tuple[Fraction, ...]
    budget: Fraction

    def __post_init__(self):
        object.__setattr__(self, "values", _fraction_tuple(self.values))
        object.__setattr__(self, "budget", Fraction(self.budget))
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")

    @property
    def num_items(self) -> int:
        return len(self.values)

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
        idx = find_close_peak(self.system, bundle)
        size = self.system.peak_size
        if idx is None:
            return far_region_value(len(bundle), size)
        overlap = len(bundle & self.system.peaks[idx])
        return close_region_value(overlap, len(bundle) - overlap, size,
                                  self.system.epsilon)


@dataclass(frozen=True)
class Explicit:
    """Dense table of values, indexed by subset mask."""

    num_items: int
    table: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "table", _fraction_tuple(self.table, what="table values"))
        _guard_items(self.num_items, "an explicit table")
        if len(self.table) != 1 << self.num_items:
            raise ValueError(
                f"table must have {1 << self.num_items} entries, "
                f"got {len(self.table)}")
        if self.table[0] != 0:
            raise ValueError("the empty set must have value 0")

    def value(self, bundle: ItemSet) -> Fraction:
        _check_bundle(bundle, self.num_items)
        return self.table[bundle.mask]


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


def int_dtype(bound: int):
    """int64 when every integer the caller computes is proven to stay below
    bound in magnitude and bound leaves int64 headroom, else object dtype
    (exact Python ints)."""
    return np.int64 if bound < _INT64_GUARD else object


def scaled_table(values, fold=None, cap: Optional[Fraction] = None
                 ) -> tuple[np.ndarray, int]:
    """Nonnegative rationals as exact integers over one common denominator.

    Returns (nums, denom) with denom the LCM of every denominator.  Without
    fold, nums[i] = values[i] * denom.  With fold (np.add or np.maximum) the
    values are per item and nums[mask] folds the items of mask; the table is
    built in place by doubling, item i filling the masks that have it as
    their highest item from the masks below 2**i.
    cap, when given, clips every entry from above.  The dtype comes from
    int_dtype with a bound on every entry and partial fold.
    """
    parts = list(values) if cap is None else [*values, cap]
    ratios = [v.as_integer_ratio() for v in parts]
    denom = math.lcm(*(d for _, d in ratios))
    nums = [n * (denom // d) for n, d in ratios]
    cap_num = None if cap is None else nums.pop()
    bound = max(sum(nums) if fold is np.add else max(nums, default=0),
                cap_num or 0)
    dtype = int_dtype(bound)
    if fold is None:
        table = np.array(nums, dtype=dtype)
    else:
        table = np.zeros(1 << len(nums), dtype=dtype)
        for i, x in enumerate(nums):
            half = 1 << i
            fold(table[:half], x, out=table[half:2 * half])
    if cap_num is not None:
        np.minimum(table, cap_num, out=table)
    return table, denom


def _guard_items(num_items: int, what: str,
                 limit: int = MAX_EXHAUSTIVE_ITEMS) -> None:
    """Refuse a ground set above the limit of the routine named by `what`."""
    if num_items > limit:
        raise GroundSetTooLargeError(
            f"{what} is limited to {limit} items, got {num_items}")


def value_table(valuation: Valuation) -> ValueTable:
    """Dense table of exact scaled values over all 2**m subsets.

    The table is built on the first call and kept on the valuation, outside
    its dataclass fields, for as long as the valuation lives; later calls
    return the same read-only table.
    """
    table = getattr(valuation, "_value_table", None)
    if table is None:
        m = valuation.num_items
        _guard_items(m, "value_table")
        nums, denom = _scaled_values(valuation)
        nums.flags.writeable = False
        table = ValueTable(nums, denom, m)
        object.__setattr__(valuation, "_value_table", table)
    return table


def _scaled_values(valuation: Valuation) -> tuple[np.ndarray, int]:
    if isinstance(valuation, Additive):
        return scaled_table(valuation.values, np.add)
    if isinstance(valuation, BudgetAdditive):
        return scaled_table(valuation.values, np.add, cap=valuation.budget)
    if isinstance(valuation, UnitDemand):
        return scaled_table(valuation.values, np.maximum)
    if isinstance(valuation, Explicit):
        return scaled_table(valuation.table)
    if isinstance(valuation, MultiPeak):
        return _multipeak_scaled(valuation)
    raise TypeError(f"unknown valuation class {type(valuation).__name__}")


def _multipeak_scaled(valuation: MultiPeak) -> tuple[np.ndarray, int]:
    """The far and close formulas over the common denominator 4 s^2 q^2,
    where epsilon = p/q."""
    m = valuation.num_items
    size = valuation.system.peak_size
    eps = valuation.system.epsilon
    pe, qe = eps.numerator, eps.denominator
    # With 0 < p < q and a + b = |S| <= m <= 4 s, every term and partial
    # product of both formulas is nonnegative and at most
    # q^2 (6 s m + m^2 + 5 s^2), and so are |q (a - b)| and p s.
    dtype = int_dtype(qe * qe * (6 * size * m + m * m + 5 * size * size))
    masks = all_masks(m)
    card = popcounts(masks).astype(dtype, copy=False)
    nums = qe * qe * card * (4 * size - card)  # far region
    close_any = np.zeros(len(masks), dtype=bool)
    for i, peak in enumerate(valuation.system.peaks):
        a = popcounts(masks & peak.mask).astype(dtype, copy=False)
        b = card - a
        close = qe * (a - b) > pe * size
        clash = close & close_any
        if clash.any():
            bad = int(np.flatnonzero(clash)[0])
            raise MalformedSystemError(
                f"{ItemSet.from_mask(bad)!r} is close to two peaks; "
                "the system is malformed")
        close_any |= close
        cnum = (2 * size * qe * (a * (2 * qe - pe) + b * (2 * qe + pe))
                + 4 * qe * qe * a * b
                + pe * pe * size * size)
        nums = np.where(close, cnum, nums)
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
        low = tensor.take(0, axis=axis)
        high = tensor.take(1, axis=axis)
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


def submodular_by_definition(valuation: Valuation) -> SubmodularReport:
    """Scan all subset pairs for v(S|T) + v(S&T) <= v(S) + v(T).

    The counterexample, if any, is the first pair in (S ascending,
    T ascending) order; by symmetry the scan may restrict to T >= S.
    """
    m = valuation.num_items
    _guard_items(m, "check_submodular")
    table = value_table(valuation)
    vals = table.nums
    masks = all_masks(m)
    for s_mask in range(1 << m):
        tail = masks[s_mask:]
        lhs = vals[tail | s_mask] + vals[tail & s_mask]
        rhs = vals[s_mask] + vals[s_mask:]
        viol = lhs > rhs
        if viol.any():
            t_mask = s_mask + int(np.argmax(viol))
            return SubmodularReport(
                holds=False,
                counterexample=(ItemSet.from_mask(s_mask),
                                ItemSet.from_mask(t_mask)))
    return SubmodularReport(holds=True)


def submodular_by_marginals(valuation: Valuation) -> bool:
    """Decide submodularity via decreasing marginals.

    For each item x the marginal g(S) = v(S + x) - v(S) over x-free sets S
    must be antitone under inclusion: g(S) >= g(T) whenever S is a subset
    of T.  That holds exactly when the min-over-subsets transform of g
    equals g itself.
    """
    m = valuation.num_items
    _guard_items(m, "check_submodular")
    table = value_table(valuation)
    tensor = table.nums.reshape((2,) * m)
    for bit in range(m):
        axis = m - 1 - bit
        marg = tensor.take(1, axis=axis) - tensor.take(0, axis=axis)
        mins = marg.copy()
        for a in range(mins.ndim):
            hi = tuple(slice(None) if k != a else 1 for k in range(mins.ndim))
            lo = tuple(slice(None) if k != a else 0 for k in range(mins.ndim))
            mins[hi] = np.minimum(mins[hi], mins[lo])
        if not bool((mins == marg).all()):
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
