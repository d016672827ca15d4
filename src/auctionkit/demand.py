"""Utility computation and demand oracles.

Four routes to a demand set coexist here:

* brute_force_demand - the exhaustive reference over all subsets, the
  oracle everything else is measured against;
* additive_demand / unit_demand_demand - closed forms;
* budget_additive_demand - delegates to brute force (the demand problem
  for this class is NP-hard, so only desk-scale evaluation is offered);
* multipeak_demand - the polynomial candidate construction: a prefix scan
  at exact price thresholds for the far regime plus one scan per peak,
  with the winner rescored under the true valuation.

demand_oracle picks the route for one bidder.  The exhaustive routes share
one memo of the last price vector queried: its table of set prices and,
per valuation, the maximizers found there.  A query at other prices
replaces it, so it holds at most one auction step's work.  Their price,
value and utility tables list the sets in canonical order
(itemsets.canonical_masks), so the maximizers are read off already sorted.

Canonical tie-break everywhere: among utility maximizers prefer the
smallest cardinality, then the lexicographically smallest item list.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DemandCapExceededError
from .itemsets import EMPTY_SET, ItemSet, canonical_less, canonical_masks
from .rationals import scale
from .valuations import (Additive, BudgetAdditive, MultiPeak, UnitDemand,
                         Valuation, _guard_items,
                         close_num, eval_valuation, int_dtype, int_table,
                         multipeak_num, value_table)


@dataclass(frozen=True, init=False, repr=False)
class PriceVector:
    """Per-item nonnegative prices; the price of a set is the sum over it.

    Price j is nums[j - 1] / denom, in canonical form: gcd(denom, *nums) is
    1, so denom is the LCM of the prices' reduced denominators, and equality
    and hashing can take the pair.  `prices`, the same values as Fractions,
    is built on first read unless the constructor was given them.
    """

    nums: tuple[int, ...]
    denom: int

    def __init__(self, prices):
        prices = tuple([p if type(p) is Fraction else Fraction(p)
                        for p in prices])
        nums, denom = scale(prices)
        if min(nums, default=0) < 0:
            raise ValueError("prices must be nonnegative")
        # Frozen: the fields are set in the instance dict directly.
        self.__dict__.update(nums=nums, denom=denom, prices=prices)

    @classmethod
    def from_scaled(cls, nums: tuple[int, ...], denom: int) -> "PriceVector":
        """The vector of nums[j] / denom, reduced to canonical form."""
        if denom < 1:
            raise ValueError(f"the denominator must be at least 1, got {denom}")
        if min(nums, default=0) < 0:
            raise ValueError("prices must be nonnegative")
        common = math.gcd(denom, *nums)
        if common > 1:
            nums, denom = tuple(n // common for n in nums), denom // common
        vector = object.__new__(cls)
        vector.__dict__.update(nums=nums, denom=denom)
        return vector

    @classmethod
    def zero(cls, num_items: int) -> "PriceVector":
        return cls.from_scaled((0,) * num_items, 1)

    @cached_property
    def prices(self) -> tuple[Fraction, ...]:
        denom = self.denom
        return tuple(Fraction(n, denom) for n in self.nums)

    def __repr__(self) -> str:
        return f"PriceVector(prices={self.prices!r})"

    @property
    def num_items(self) -> int:
        return len(self.nums)

    def _unpriced(self, item: int) -> ValueError:
        return ValueError(f"item {item} has no price (ground set has "
                          f"{self.num_items} items)")

    def price_of(self, item: int) -> Fraction:
        """The price of item 1..m; any other item is refused."""
        if not 1 <= item <= self.num_items:
            raise self._unpriced(item)
        return self.prices[item - 1]

    def total(self, bundle: ItemSet) -> Fraction:
        if bundle.max_item() > self.num_items:
            raise self._unpriced(bundle.max_item())
        nums = self.nums
        return Fraction(sum(nums[j - 1] for j in bundle), self.denom)

    def dominated_by(self, other: "PriceVector") -> bool:
        """Componentwise <=, the domination order on price vectors."""
        if self.num_items != other.num_items:
            raise ValueError("price vectors must have equal length")
        if self.denom == other.denom:
            return all(map(operator.le, self.nums, other.nums))
        mine, theirs = other.denom, self.denom
        return all(a * mine <= b * theirs
                   for a, b in zip(self.nums, other.nums))

    __le__ = dominated_by

    def raised(self, items: ItemSet, increment: Fraction) -> "PriceVector":
        """The vector with increment, anything Fraction() takes, added to
        the price of each item in items.  The work is on integers: every
        price goes over denom times the increment's denominator, and
        from_scaled's one gcd brings the result to canonical form."""
        if items.max_item() > self.num_items:
            raise ValueError("cannot raise an item outside the ground set")
        # A Fraction or an int, what the rules pass, is read as it is.
        if type(increment) not in (Fraction, int):
            increment = Fraction(increment)
        num, den = increment.numerator, increment.denominator
        step = num * self.denom
        mask = items.mask
        return PriceVector.from_scaled(tuple([
            n * den + step if mask >> j & 1 else n * den
            for j, n in enumerate(self.nums)]), self.denom * den)


@dataclass(frozen=True)
class DemandResult:
    """Maximum utility, a canonical maximizer, and optionally how many exist."""

    max_utility: Fraction
    witness_set: ItemSet
    argmax_count: Optional[int] = None


def utility(valuation: Valuation, prices: PriceVector, bundle: ItemSet) -> Fraction:
    """u(S) = v(S) - p(S), exact."""
    return eval_valuation(valuation, bundle) - prices.total(bundle)


def _price_table(prices: PriceVector) -> tuple[np.ndarray, int]:
    """Scaled prices of all 2**m sets in canonical order: table[i] / denom
    is the price of the set canonical_masks(m)[i]."""
    table = int_table(prices.nums, np.add)[canonical_masks(prices.num_items)]
    return table, prices.denom


def _utilities(valuation: Valuation, table: tuple[np.ndarray, int]
               ) -> tuple[np.ndarray, int]:
    """Scaled utilities of all sets in canonical order, utilities[i] /
    denom, from the canonical copy of the valuation's value table and a
    table built by _price_table."""
    vt = value_table(valuation)
    pnums, pden = table
    denom = math.lcm(vt.denom, pden)
    a, b = denom // vt.denom, denom // pden
    # The ground set comes last in canonical order and costs the most.
    pmax = int(pnums[-1]) if len(pnums) else 0
    # Bounds a and b themselves too: they enter int64 arithmetic even when
    # every value or every price is zero.
    dtype = int_dtype(max(vt.max_abs, 1) * a + max(pmax, 1) * b)
    values = vt.canonical_nums.astype(dtype, copy=False)
    pnums = pnums.astype(dtype, copy=False)
    # A factor of 1, common when both denominators agree, costs no pass.
    util = (values * a if a > 1 else values) - (pnums * b if b > 1 else pnums)
    return util, denom


# The last price vector queried, its price table, and per valuation (keyed
# by id; the valuation is held, so the id stays its own) the valuation, its
# maximum utility and its read-only maximizing masks.
_memo: Optional[tuple[PriceVector, tuple[np.ndarray, int],
                      dict[int, tuple[Valuation, Fraction, np.ndarray]]]] = None


def _maximizers(valuation: Valuation, prices: PriceVector
                ) -> tuple[Fraction, np.ndarray]:
    """Maximum utility and every maximizing mask, in canonical order.

    Work is kept in the module's one memo for the last price vector
    queried: a query at equal prices reuses its price table, and its
    answer for the same valuation object without building a utility
    table.  One auction step asks each bidder at one price vector twice,
    the engine's demand query and the rule's demand-set enumeration, and
    every brute-force bidder shares the step's price table.  A query at
    other prices replaces the memo.
    """
    global _memo
    if valuation.num_items != prices.num_items:
        raise ValueError("valuation and prices disagree on the ground set size")
    if _memo is None or _memo[0] != prices:
        _memo = (prices, _price_table(prices), {})
    _, table, kept = _memo
    hit = kept.get(id(valuation))
    if hit is not None:
        return hit[1], hit[2]
    util, denom = _utilities(valuation, table)
    best = util.max()
    # util is in canonical order, so the maximizers are found in it.
    masks = canonical_masks(valuation.num_items)[(util == best).nonzero()[0]]
    masks.flags.writeable = False
    top = Fraction(int(best), denom)
    kept[id(valuation)] = (valuation, top, masks)
    return top, masks


def brute_force_demand(valuation: Valuation, prices: PriceVector) -> DemandResult:
    """Exhaustive reference oracle over all 2**m subsets."""
    _guard_items(valuation.num_items, "brute-force demand")
    top, masks = _maximizers(valuation, prices)
    return DemandResult(top, ItemSet.from_mask(int(masks[0])),
                        argmax_count=len(masks))


def _check_cap(cap: int) -> None:
    """Refuse a demand-set cap below 1."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")


def _demand_masks(valuation: Valuation, prices: PriceVector,
                  cap: int) -> list[int]:
    """The masks of all utility maximizers in canonical order, as ints;
    errors if more than cap, and refuses a cap below 1."""
    _check_cap(cap)
    _guard_items(valuation.num_items, "demand-set enumeration")
    _, masks = _maximizers(valuation, prices)
    if len(masks) > cap:
        raise DemandCapExceededError(len(masks), cap)
    return masks.tolist()


def demand_sets(valuation: Valuation, prices: PriceVector,
                cap: int) -> list[ItemSet]:
    """All utility maximizers in canonical order; errors if more than cap."""
    return [ItemSet.from_mask(mask)
            for mask in _demand_masks(valuation, prices, cap)]


def _price_order(nums: tuple[int, ...]) -> list[int]:
    """Item indices 0..m-1 sorted by (nums[j], j); the sort is stable."""
    return sorted(range(len(nums)), key=nums.__getitem__)


def _far_candidate(nums: tuple[int, ...], denom: int, order: list[int],
                   size: int) -> tuple[int, int]:
    """algorithm_zero on scaled prices: (mask, scaled price) of the prefix."""
    four_s2 = 4 * size * size
    mask = spent = 0
    for rank, j in enumerate(order, start=1):
        price = nums[j]
        if price * four_s2 > (4 * size - 2 * rank + 1) * denom:
            break
        mask |= 1 << j
        spent += price
    return mask, spent


def _peak_candidate(nums: tuple[int, ...], denom: int, order: list[int],
                    peak: ItemSet, size: int, pe: int, qe: int
                    ) -> Optional[tuple[int, int]]:
    """algorithm_peak on scaled prices: (mask, scaled price) of the marked
    set, or None."""
    if len(peak) != size:
        raise ValueError(f"peak has {len(peak)} items, expected {size}")
    if peak.max_item() > len(nums):
        raise ValueError("peak uses items outside the ground set")
    inside, outside = [], []
    peak_mask = peak.mask
    for j in order:
        (inside if peak_mask >> j & 1 else outside).append(j)
    ps = pe * size
    lhs_scale = 4 * size * size * qe
    best = None
    for l in range(ps // qe + 1, size + 1):
        top_in = nums[inside[l - 1]]
        # kappa + eps s < l, that is kappa q < l q - p s.
        for kappa in range(min((l * qe - ps - 1) // qe, len(outside)), -1, -1):
            lhs = top_in + nums[outside[kappa - 1]] if kappa else top_in
            rhs = (6 * size * qe - 2 * (kappa + l) * qe + ps) * denom
            if lhs * lhs_scale <= rhs:
                marked = inside[:l] + outside[:kappa]
                spent = sum([nums[j] for j in marked])
                gain = (close_num(l, kappa, size, pe, qe) * denom
                        - spent * lhs_scale * qe)
                mask = sum([1 << j for j in marked])
                if (best is None or gain > best[0]
                        or (gain == best[0] and canonical_less(mask, best[1]))):
                    best = (gain, mask, spent)
                break
    return None if best is None else best[1:]


def algorithm_zero(prices: PriceVector, size: int) -> ItemSet:
    """Far-regime candidate: the longest cheap prefix under exact thresholds.

    Items are sorted by (nums[j], j).  Rank r passes when
    nums[j] * 4 s^2 <= (4 s - 2 r + 1) * denom, the threshold
    1/s - (2r-1)/(4 s^2) in integers.  Sorted prices ascend while the
    threshold strictly descends, so the passing ranks form a prefix and the
    maximal one meets both printed conditions.  One sort and one scan:
    O(m log m).
    """
    if size < 1:
        raise ValueError("size must be positive")
    nums = prices.nums
    return ItemSet.from_mask(
        _far_candidate(nums, prices.denom, _price_order(nums), size)[0])


def algorithm_peak(prices: PriceVector, peak: ItemSet, size: int,
                   eps: Fraction) -> Optional[ItemSet]:
    """Close-regime candidate for one peak, or None when nothing is marked.

    For each count l of peak items with eps*s < l <= s, the largest outside
    count kappa with kappa + eps*s < l satisfying the price condition marks
    the set of the l cheapest peak items plus the kappa cheapest outside
    items; kappa = 0 contributes no outside-price term.  With eps = p/q,
    prices nums/denom and lhs the scaled price of the l-th peak item plus
    that of the kappa-th outside item, both bounds are integer inequalities:
    kappa q < l q - p s, and
    lhs * 4 s^2 q <= (6 s q - 2 (kappa + l) q + p s) * denom.
    Both orders are taken from one order of all items by (nums[j], j).
    Marked sets are close to this peak by construction, so on well-formed
    systems their true value is the close-region formula, compared here
    over 4 s^2 q^2 * denom; the best marked set wins, ties broken
    canonically.  O(m log m + s m).
    """
    eps = Fraction(eps)
    found = _peak_candidate(prices.nums, prices.denom,
                            _price_order(prices.nums), peak, size,
                            eps.numerator, eps.denominator)
    return ItemSet.from_mask(found[0]) if found else None


def multipeak_demand(valuation: MultiPeak, prices: PriceVector) -> DemandResult:
    """Polynomial demand oracle: best of the empty set, the far candidate,
    and one candidate per peak, all rescored with the true valuation.

    Everything runs on integers.  The far and peak candidates share one
    price order and test algorithm_zero's and algorithm_peak's integer
    inequalities.  Each candidate's true value is multipeak_num over
    4 s^2 q^2 (eps = p/q), taken for that set alone with no table of all
    subsets, and utilities are compared over 4 s^2 q^2 * denom.  The one
    Fraction built is the returned maximum.

    Measured on a 2-CPU Xeon, Python 3.11, best of 5 runs of 50 queries at
    random sixteenths on gen_multipeak instances with k = 2: 22, 28 and
    22 us at (m, s) = (8, 4), (12, 6) and (14, 7), where a brute-force
    query on a built value table takes 40, 55 and 92 us.  At m = 60,
    s = 15, k = 4, where brute force cannot run, a query takes 0.32 ms.
    """
    if not isinstance(valuation, MultiPeak):
        raise TypeError("multipeak_demand needs a MultiPeak valuation")
    if valuation.num_items != prices.num_items:
        raise ValueError("valuation and prices disagree on the ground set size")
    system = valuation.system
    size = system.peak_size
    pe, qe = system.epsilon.numerator, system.epsilon.denominator
    nums, denom = prices.nums, prices.denom
    order = _price_order(nums)
    candidates = [(0, 0), _far_candidate(nums, denom, order, size)]
    for peak in system.peaks:
        marked = _peak_candidate(nums, denom, order, peak, size, pe, qe)
        if marked is not None:
            candidates.append(marked)
    value_denom = 4 * size * size * qe * qe
    best_mask = best_gain = 0
    for mask, spent in candidates:
        gain = (multipeak_num(system, ItemSet.from_mask(mask)) * denom
                - spent * value_denom)
        if gain > best_gain or (gain == best_gain
                                and canonical_less(mask, best_mask)):
            best_mask, best_gain = mask, gain
    return DemandResult(Fraction(best_gain, value_denom * denom),
                        ItemSet.from_mask(best_mask), argmax_count=None)


def _margins(valuation, prices: PriceVector) -> list[Fraction]:
    """Value minus price of items 1..m, for a class given by one value per
    item."""
    if valuation.num_items != prices.num_items:
        raise ValueError("valuation and prices disagree on the ground set size")
    return [value - price for value, price in zip(valuation.values, prices.prices)]


def additive_demand(valuation: Additive, prices: PriceVector) -> DemandResult:
    """Closed form: take exactly the items with positive margin."""
    if not isinstance(valuation, Additive):
        raise TypeError("additive_demand needs an Additive valuation")
    taken, gain, ties = [], Fraction(0), 0
    for j, margin in enumerate(_margins(valuation, prices), start=1):
        if margin > 0:
            taken.append(j)
            gain += margin
        elif margin == 0:
            ties += 1
    return DemandResult(gain, ItemSet(taken), argmax_count=2 ** ties)


def unit_demand_demand(valuation: UnitDemand, prices: PriceVector) -> DemandResult:
    """Closed form: the lowest-index best single item, or nothing."""
    if not isinstance(valuation, UnitDemand):
        raise TypeError("unit_demand_demand needs a UnitDemand valuation")
    best_item, best_gain = None, Fraction(0)
    for j, margin in enumerate(_margins(valuation, prices), start=1):
        if margin > best_gain:
            best_item, best_gain = j, margin
    if best_item is None:
        return DemandResult(Fraction(0), EMPTY_SET, argmax_count=None)
    return DemandResult(best_gain, ItemSet([best_item]), argmax_count=None)


def budget_additive_demand(valuation: BudgetAdditive,
                           prices: PriceVector) -> DemandResult:
    """The demand problem for this class is NP-hard; enumerate exhaustively."""
    if not isinstance(valuation, BudgetAdditive):
        raise TypeError("budget_additive_demand needs a BudgetAdditive valuation")
    return brute_force_demand(valuation, prices)


def fast_oracle(valuation: Valuation
                ) -> Optional[Callable[[Valuation, PriceVector], DemandResult]]:
    """The closed-form or polynomial oracle for the valuation's class, or
    None when the class has only brute force."""
    if isinstance(valuation, Additive):
        return additive_demand
    if isinstance(valuation, UnitDemand):
        return unit_demand_demand
    if isinstance(valuation, MultiPeak):
        return multipeak_demand
    return None


def demand_oracle(valuation: Valuation, prices: PriceVector) -> DemandResult:
    """Dispatch to the best oracle available for the valuation's class."""
    fast = fast_oracle(valuation)
    if fast is not None:
        return fast(valuation, prices)
    return brute_force_demand(valuation, prices)
