"""Envy-free allocation search, unit-demand matching with overdemanded-set
witnesses, minimal envy-free price search on a grid, and the Walrasian check.

An allocation is envy-free at prices p when every bidder receives one of its
demand sets and the assigned sets are pairwise disjoint.  The general route
is a backtracking search over enumerated demand sets; for all-unit-demand
instances a bipartite matching decides the same question in polynomial time
and yields a Hall-style witness on failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import GridTooLargeError
from .itemsets import EMPTY_SET, ItemSet
from .demand import PriceVector, demand_oracle, demand_sets, utility
from .valuations import UnitDemand, _guard_items, eval_valuation

DEFAULT_DEMAND_CAP = 4096
MAX_GRID_POINTS = 10_000_000
MAX_GRID_ITEMS = 6


@dataclass(frozen=True)
class Allocation:
    """One item set per bidder; sets must be pairwise disjoint."""

    assigned: tuple[ItemSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "assigned", tuple(self.assigned))
        used = 0
        for i, bundle in enumerate(self.assigned):
            if used & bundle.mask:
                raise ValueError(f"bidder {i}'s set overlaps an earlier one")
            used |= bundle.mask

    def allocated_items(self) -> ItemSet:
        mask = 0
        for bundle in self.assigned:
            mask |= bundle.mask
        return ItemSet.from_mask(mask)


@dataclass(frozen=True)
class Witness:
    """Evidence that no envy-free allocation exists at the current prices.

    kind "overdemanded-set": strictly more bidders demand only items inside
    `items` (via their minimal demand sets, i.e. their utility-maximizing
    items) than there are items in it.  kind "exhaustion-proof": the
    backtracking search ran out of combinations; the explored-node count
    lives in the surrounding report.
    """

    kind: str  # "overdemanded-set" | "exhaustion-proof"
    items: ItemSet
    demanders: tuple[int, ...]


@dataclass(frozen=True)
class EnvyFreeReport:
    envy_free: bool
    allocation: Optional[Allocation]
    witness: Optional[Witness]
    nodes_explored: int


def _check_ground_set(instance, prices: PriceVector) -> None:
    """Refuse prices of the wrong length before any per-bidder work, so an
    instance without bidders is refused too."""
    if prices.num_items != instance.num_items:
        raise ValueError("instance and prices disagree on the ground set size")


def envy_free_allocation(instance, prices: PriceVector,
                         cap: int = DEFAULT_DEMAND_CAP) -> EnvyFreeReport:
    """Backtracking search for pairwise-disjoint demand sets, one per bidder.

    Bidders are processed by descending size of their smallest demand set
    (most constrained first), sets in canonical order, so reports are
    deterministic.  nodes_explored counts attempted assignments.
    """
    _check_ground_set(instance, prices)
    options = [demand_sets(v, prices, cap) for v in instance.bidders]
    n = len(options)
    order = sorted(range(n), key=lambda i: (-len(options[i][0]), i))
    assigned: list[ItemSet] = [EMPTY_SET] * n
    nodes = 0

    def descend(pos: int, used: int) -> bool:
        nonlocal nodes
        if pos == n:
            return True
        bidder = order[pos]
        for bundle in options[bidder]:
            nodes += 1
            if bundle.mask & used == 0:
                assigned[bidder] = bundle
                if descend(pos + 1, used | bundle.mask):
                    return True
        return False

    if descend(0, 0):
        return EnvyFreeReport(True, Allocation(tuple(assigned)), None, nodes)
    return EnvyFreeReport(False, None,
                          Witness("exhaustion-proof", EMPTY_SET, ()), nodes)


def _demanded_items(instance, prices: PriceVector) -> list[list[int]]:
    """Per bidder: the utility-maximizing items, empty when max utility is 0."""
    _check_ground_set(instance, prices)
    demanded = []
    for v in instance.bidders:
        margins = [value - price for value, price in zip(v.values, prices.prices)]
        best = max(margins)
        demanded.append([j for j, margin in enumerate(margins, start=1)
                         if margin == best] if best > 0 else [])
    return demanded


def _overdemanded(demanded: list[list[int]], items: ItemSet) -> list[int]:
    """Bidders whose (nonempty) demanded items all lie inside `items`."""
    return [i for i, wants in enumerate(demanded)
            if wants and all(j in items for j in wants)]


def unit_demand_envy_free(instance, prices: PriceVector) -> Union[Allocation, Witness]:
    """Matching route for all-unit-demand instances.

    Bidders with positive maximum utility must each receive one of their
    demanded items; everyone else is content with the empty set.  A perfect
    matching on the demanders yields an allocation; otherwise an
    inclusion-minimal overdemanded item set is extracted from the
    Koenig-style deficiency set and returned as the witness.
    """
    for i, v in enumerate(instance.bidders):
        if not isinstance(v, UnitDemand):
            raise TypeError(f"bidder {i} is not unit-demand")
    demanded = _demanded_items(instance, prices)
    demanders = [i for i, wants in enumerate(demanded) if wants]

    match_of_item: dict[int, int] = {}
    match_of_bidder: dict[int, int] = {}

    def augment(bidder: int, seen: set[int]) -> bool:
        for j in demanded[bidder]:
            if j in seen:
                continue
            seen.add(j)
            holder = match_of_item.get(j)
            if holder is None or augment(holder, seen):
                match_of_item[j] = bidder
                match_of_bidder[bidder] = j
                return True
        return False

    for bidder in demanders:
        augment(bidder, set())

    unmatched = [i for i in demanders if i not in match_of_bidder]
    if not unmatched:
        assigned = tuple(
            ItemSet([match_of_bidder[i]]) if i in match_of_bidder else EMPTY_SET
            for i in range(len(instance.bidders)))
        return Allocation(assigned)

    # Alternating reachability from the unmatched demanders gives a bidder
    # set B with |N(B)| < |B|; N(B) is overdemanded and is then shrunk to an
    # inclusion-minimal overdemanded set.
    reachable = set(unmatched)
    frontier = list(unmatched)
    neighborhood: set[int] = set()
    while frontier:
        bidder = frontier.pop()
        for j in demanded[bidder]:
            if j in neighborhood:
                continue
            neighborhood.add(j)
            holder = match_of_item.get(j)
            if holder is not None and holder not in reachable:
                reachable.add(holder)
                frontier.append(holder)

    witness_items = ItemSet(sorted(neighborhood))
    if len(_overdemanded(demanded, witness_items)) <= len(witness_items):
        raise RuntimeError(
            f"matching left items {list(witness_items)} that are not overdemanded")
    shrinking = True
    while shrinking:
        shrinking = False
        for item in witness_items:
            trimmed = witness_items - ItemSet([item])
            if len(_overdemanded(demanded, trimmed)) > len(trimmed):
                witness_items = trimmed
                shrinking = True
                break
    supporters = tuple(_overdemanded(demanded, witness_items))
    return Witness("overdemanded-set", witness_items, supporters)


def _all_unit_demand(instance) -> bool:
    return all(isinstance(v, UnitDemand) for v in instance.bidders)


def is_price_envy_free(instance, prices: PriceVector) -> bool:
    """Decision form; uses the matching route when every bidder is unit-demand."""
    if _all_unit_demand(instance):
        return isinstance(unit_demand_envy_free(instance, prices), Allocation)
    return envy_free_allocation(instance, prices).envy_free


def minimal_envy_free(instance, bound: Fraction, step: Fraction) -> list[PriceVector]:
    """Domination-minimal envy-free points of the step-lattice in [0, bound]^m.

    Minimality is certified relative to the grid only: a returned p is
    envy-free and no other envy-free grid point is componentwise <= p.
    Points are generated one at a time in lexicographic order, so the grid
    is never held in memory and the result comes out in that order.
    """
    bound, step = Fraction(bound), Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    m = instance.num_items
    _guard_items(m, "grid search", MAX_GRID_ITEMS)
    top_value = max(
        (eval_valuation(v, ItemSet([j]))
         for v in instance.bidders for j in range(1, m + 1)),
        default=Fraction(0))
    if bound < top_value:
        raise ValueError(
            f"bound {bound} is below the largest single-item value {top_value}; "
            "the grid might contain no envy-free point")
    levels = int(bound / step) + 1
    if levels ** m > MAX_GRID_POINTS:
        raise GridTooLargeError(
            f"{levels ** m} grid points exceed the safety limit of "
            f"{MAX_GRID_POINTS}")
    lattice = [step * k for k in range(levels)]
    minimal: list[PriceVector] = []
    # A point q <= p with q != p differs from p first in a coordinate where
    # it is smaller, so q precedes p lexicographically.  Every point below p
    # has therefore been scanned already, and checking p against the
    # minimal points found so far decides its minimality.  That check comes
    # first: a p above a found minimal point is not minimal whether or not
    # it is envy-free, so its envy-freeness is never tested, and the result
    # is the one the unpruned scan gives, in the same order.
    for combo in itertools.product(lattice, repeat=m):
        p = PriceVector(combo)
        if any(q.dominated_by(p) for q in minimal):
            continue
        if is_price_envy_free(instance, p):
            minimal.append(p)
    return minimal


def is_walrasian(instance, prices: PriceVector, allocation: Allocation) -> bool:
    """True when every unallocated item has price zero.

    The allocation must be envy-free at the given prices (each bidder's set
    attains its maximum utility) and hold one set per bidder; anything
    else is a caller error.  Every bidder's demand is asked before the
    first is compared.
    """
    _check_ground_set(instance, prices)
    if len(allocation.assigned) != len(instance.bidders):
        raise ValueError(
            f"allocation has {len(allocation.assigned)} sets for "
            f"{len(instance.bidders)} bidders")
    demands = [demand_oracle(v, prices) for v in instance.bidders]
    for i, (v, demand) in enumerate(zip(instance.bidders, demands)):
        if utility(v, prices, allocation.assigned[i]) != demand.max_utility:
            raise ValueError(
                f"allocation is not envy-free at these prices (bidder {i})")
    leftover = ItemSet(range(1, instance.num_items + 1)) - allocation.allocated_items()
    return all(prices.price_of(j) == 0 for j in leftover)
