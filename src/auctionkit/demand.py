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
replaces it, so it holds at most one auction step's work.

Canonical tie-break everywhere: among utility maximizers prefer the
smallest cardinality, then the lexicographically smallest item list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import DemandCapExceededError
from .itemsets import (EMPTY_SET, ItemSet, bit_reversals, canonical_key,
                       popcounts)
from .valuations import (Additive, BudgetAdditive, MultiPeak, UnitDemand,
                         Valuation, _fraction_tuple, _guard_items,
                         close_region_value, eval_valuation, int_dtype,
                         scaled_table, value_table)

MAX_ENUMERATION_ITEMS = 16


@dataclass(frozen=True)
class PriceVector:
    """Per-item nonnegative prices; the price of a set is the sum over it."""

    prices: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "prices",
                           _fraction_tuple(self.prices, what="prices"))

    @classmethod
    def zero(cls, num_items: int) -> "PriceVector":
        return cls((Fraction(0),) * num_items)

    @property
    def num_items(self) -> int:
        return len(self.prices)

    def price_of(self, item: int) -> Fraction:
        return self.prices[item - 1]

    def total(self, bundle: ItemSet) -> Fraction:
        if bundle.max_item() > self.num_items:
            raise ValueError(
                f"item {bundle.max_item()} has no price (ground set has "
                f"{self.num_items} items)")
        return sum((self.prices[j - 1] for j in bundle), Fraction(0))

    def dominated_by(self, other: "PriceVector") -> bool:
        """Componentwise <=, the domination order on price vectors."""
        if self.num_items != other.num_items:
            raise ValueError("price vectors must have equal length")
        return all(a <= b for a, b in zip(self.prices, other.prices))

    __le__ = dominated_by

    def raised(self, items: ItemSet, increment: Fraction) -> "PriceVector":
        increment = Fraction(increment)
        if items.max_item() > self.num_items:
            raise ValueError("cannot raise an item outside the ground set")
        return PriceVector(tuple(
            p + increment if (j + 1) in items else p
            for j, p in enumerate(self.prices)))


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
    """Scaled prices of all 2**m sets: table[mask] / denom is p(mask)."""
    return scaled_table(prices.prices, np.add)


def _utilities(valuation: Valuation, table: tuple[np.ndarray, int]
               ) -> tuple[np.ndarray, int]:
    """Scaled utilities over all masks: utilities[mask] / denom, from the
    valuation's value table and a table built by _price_table."""
    vt = value_table(valuation)
    pnums, pden = table
    denom = math.lcm(vt.denom, pden)
    a, b = denom // vt.denom, denom // pden
    pmax = int(pnums[-1]) if len(pnums) else 0
    # Bounds a and b themselves too: they enter int64 arithmetic even when
    # every value or every price is zero.
    dtype = int_dtype(max(vt.max_abs, 1) * a + max(pmax, 1) * b)
    util = vt.nums.astype(dtype, copy=False) * a - pnums.astype(dtype, copy=False) * b
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
    masks = np.flatnonzero(util == best)
    if len(masks) > 1:
        rev = bit_reversals(valuation.num_items)[masks]
        masks = masks[np.lexsort((-rev, popcounts(masks)))]
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


def demand_sets(valuation: Valuation, prices: PriceVector,
                cap: int) -> list[ItemSet]:
    """All utility maximizers in canonical order; errors if more than cap."""
    _guard_items(valuation.num_items, "demand-set enumeration",
                 MAX_ENUMERATION_ITEMS)
    _, masks = _maximizers(valuation, prices)
    if len(masks) > cap:
        raise DemandCapExceededError(len(masks), cap)
    return [ItemSet.from_mask(int(mask)) for mask in masks]


def algorithm_zero(prices: PriceVector, size: int) -> ItemSet:
    """Far-regime candidate: the longest cheap prefix under exact thresholds.

    Items are sorted by (price, index).  Because sorted prices ascend while
    the threshold 1/s - (2l-1)/(4 s^2) strictly descends, the satisfying
    ranks form a prefix and the maximal one meets both printed conditions.
    """
    if size < 1:
        raise ValueError("size must be positive")
    order = sorted(range(len(prices.prices)),
                   key=lambda j: (prices.prices[j], j))
    take = 0
    for rank, j in enumerate(order, start=1):
        threshold = Fraction(4 * size - (2 * rank - 1), 4 * size * size)
        if prices.prices[j] <= threshold:
            take = rank
        else:
            break
    return ItemSet(j + 1 for j in order[:take])


def algorithm_peak(prices: PriceVector, peak: ItemSet, size: int,
                   eps: Fraction) -> Optional[ItemSet]:
    """Close-regime candidate for one peak, or None when nothing is marked.

    For each count l of peak items with eps*s < l <= s, the largest outside
    count kappa with kappa + eps*s < l satisfying the exact price condition
    marks the set of the l cheapest peak items plus the kappa cheapest
    outside items; kappa = 0 contributes no outside-price term.  Marked sets
    are close to this peak by construction, so on well-formed systems their
    true value is the close-region formula; the best marked set wins, ties
    broken canonically.
    """
    eps = Fraction(eps)
    if len(peak) != size:
        raise ValueError(f"peak has {len(peak)} items, expected {size}")
    m = prices.num_items
    if peak.max_item() > m:
        raise ValueError("peak uses items outside the ground set")
    inside = sorted(peak, key=lambda j: (prices.price_of(j), j))
    outside = sorted((j for j in range(1, m + 1) if j not in peak),
                     key=lambda j: (prices.price_of(j), j))

    best: Optional[tuple[Fraction, tuple, ItemSet]] = None
    eps_s = eps * size
    l_min = math.floor(eps_s) + 1
    for l in range(l_min, size + 1):
        gap = Fraction(l) - eps_s  # > 0
        kappa_ub = min((gap.numerator - 1) // gap.denominator, m - size)
        if kappa_ub < 0:
            continue
        for kappa in range(kappa_ub, -1, -1):
            lhs = prices.price_of(inside[l - 1])
            if kappa:
                lhs += prices.price_of(outside[kappa - 1])
            rhs = (Fraction(3, 2 * size)
                   - (Fraction(2 * (kappa + l)) - eps_s) / (4 * size * size))
            if lhs <= rhs:
                marked = ItemSet(inside[:l]) | ItemSet(outside[:kappa])
                gain = (close_region_value(l, kappa, size, eps)
                        - prices.total(marked))
                entry = (gain, canonical_key(marked), marked)
                if (best is None or gain > best[0]
                        or (gain == best[0] and entry[1] < best[1])):
                    best = entry
                break
    return best[2] if best else None


def multipeak_demand(valuation: MultiPeak, prices: PriceVector) -> DemandResult:
    """Polynomial demand oracle: best of the empty set, the far candidate,
    and one candidate per peak, all rescored with the true valuation."""
    if not isinstance(valuation, MultiPeak):
        raise TypeError("multipeak_demand needs a MultiPeak valuation")
    if valuation.num_items != prices.num_items:
        raise ValueError("valuation and prices disagree on the ground set size")
    system = valuation.system
    candidates = [EMPTY_SET, algorithm_zero(prices, system.peak_size)]
    for peak in system.peaks:
        marked = algorithm_peak(prices, peak, system.peak_size, system.epsilon)
        if marked is not None:
            candidates.append(marked)
    best_set, best_gain = EMPTY_SET, Fraction(0)
    for cand in candidates:
        gain = utility(valuation, prices, cand)
        if gain > best_gain or (gain == best_gain
                                and canonical_key(cand) < canonical_key(best_set)):
            best_set, best_gain = cand, gain
    return DemandResult(best_gain, best_set, argmax_count=None)


def additive_demand(valuation: Additive, prices: PriceVector) -> DemandResult:
    """Closed form: take exactly the items with positive margin."""
    if not isinstance(valuation, Additive):
        raise TypeError("additive_demand needs an Additive valuation")
    if valuation.num_items != prices.num_items:
        raise ValueError("valuation and prices disagree on the ground set size")
    taken, gain, ties = [], Fraction(0), 0
    for j in range(1, valuation.num_items + 1):
        margin = valuation.values[j - 1] - prices.price_of(j)
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
    if valuation.num_items != prices.num_items:
        raise ValueError("valuation and prices disagree on the ground set size")
    best_item, best_gain = None, Fraction(0)
    for j in range(1, valuation.num_items + 1):
        margin = valuation.values[j - 1] - prices.price_of(j)
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
