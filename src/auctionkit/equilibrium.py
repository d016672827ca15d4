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
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import GridTooLargeError
from .itemsets import EMPTY_SET, ItemSet
from .demand import (PriceVector, _check_cap, _demand_masks, _margins,
                     demand_oracle, utility)
from .valuations import (LIMITS, Additive, BudgetAdditive, UnitDemand,
                         _guard_items, eval_valuation, value_table)


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
                         cap: int = LIMITS["demand sets"]) -> EnvyFreeReport:
    """Backtracking search for pairwise-disjoint demand sets, one per bidder.

    Bidders are processed by descending size of their smallest demand set
    (most constrained first), sets in canonical order, so reports are
    deterministic.  nodes_explored counts attempted assignments.  The
    search runs on masks; item sets are built only for the allocation it
    returns.
    """
    _check_ground_set(instance, prices)
    # Before the per-bidder queries, so an instance without bidders
    # refuses a bad cap too.
    _check_cap(cap)
    options = [_demand_masks(v, prices, cap) for v in instance.bidders]
    n = len(options)
    order = sorted(range(n), key=lambda i: (-options[i][0].bit_count(), i))
    assigned = [0] * n
    nodes = 0

    def descend(pos: int, used: int) -> bool:
        nonlocal nodes
        if pos == n:
            return True
        bidder = order[pos]
        for mask in options[bidder]:
            nodes += 1
            if mask & used == 0:
                assigned[bidder] = mask
                if descend(pos + 1, used | mask):
                    return True
        return False

    if descend(0, 0):
        allocation = Allocation(tuple(map(ItemSet.from_mask, assigned)))
        return EnvyFreeReport(True, allocation, None, nodes)
    return EnvyFreeReport(False, None,
                          Witness("exhaustion-proof", EMPTY_SET, ()), nodes)


def _demanded_items(instance, prices: PriceVector) -> list[list[int]]:
    """Per bidder: the utility-maximizing items, empty when max utility is 0."""
    _check_ground_set(instance, prices)
    demanded = []
    for v in instance.bidders:
        margins = _margins(v, prices)
        best = max(margins)
        demanded.append([j for j, margin in enumerate(margins, start=1)
                         if margin == best] if best > 0 else [])
    return demanded


def _overdemanded(demanded: list[list[int]], items: ItemSet) -> list[int]:
    """Bidders whose (nonempty) demanded items all lie inside `items`."""
    return [i for i, wants in enumerate(demanded)
            if wants and all(j in items for j in wants)]


def _match_demanders(demanded: list[list[int]]) -> dict[int, int]:
    """A maximum matching of bidders to their demanded items, item -> bidder.

    Augmenting paths from each demander in bidder order, trying its items
    in increasing order; a demander left out of the result is unmatched.
    """
    match_of_item: dict[int, int] = {}

    def augment(bidder: int, seen: set[int]) -> bool:
        for j in demanded[bidder]:
            if j in seen:
                continue
            seen.add(j)
            holder = match_of_item.get(j)
            if holder is None or augment(holder, seen):
                match_of_item[j] = bidder
                return True
        return False

    for bidder, wants in enumerate(demanded):
        if wants:
            augment(bidder, set())
    return match_of_item


def unit_demand_envy_free(instance, prices: PriceVector) -> Union[Allocation, Witness]:
    """Matching route for all-unit-demand instances, with its evidence.

    Bidders with positive maximum utility must each receive one of their
    demanded items; everyone else is content with the empty set.  A perfect
    matching on the demanders yields an allocation; otherwise an
    inclusion-minimal overdemanded item set is extracted from the
    Koenig-style deficiency set and returned as the witness.  This is the
    route that builds witnesses (the DGS rule raises prices on them);
    `is_price_envy_free` runs the same matching and builds neither.
    """
    for i, v in enumerate(instance.bidders):
        if not isinstance(v, UnitDemand):
            raise TypeError(f"bidder {i} is not unit-demand")
    demanded = _demanded_items(instance, prices)
    match_of_item = _match_demanders(demanded)
    match_of_bidder = {bidder: j for j, bidder in match_of_item.items()}

    unmatched = [i for i, wants in enumerate(demanded)
                 if wants and i not in match_of_bidder]
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
    """Decision form: whether some envy-free allocation exists at `prices`.

    When every bidder is unit-demand it runs the matching of
    `unit_demand_envy_free` and only asks whether every demander is
    matched, building no allocation and no witness; otherwise it asks the
    backtracking search.
    """
    if _all_unit_demand(instance):
        demanded = _demanded_items(instance, prices)
        return len(_match_demanders(demanded)) == sum(map(bool, demanded))
    return envy_free_allocation(instance, prices).envy_free


def _largest_marginals(valuation, singles: list[Fraction]) -> list[Fraction]:
    """Per item j, the largest marginal value v(S + j) - v(S) over j-free
    sets S, given the single-item values v({j}) in `singles`.

    Additive, unit-demand and budget-additive valuations are submodular, so
    a marginal is largest at the empty set and is v({j}); no table is built
    for them.  Any other valuation's marginals are read from its value
    table, one slice difference per item axis as in submodular_by_marginals,
    exact on object dtype too.
    """
    if isinstance(valuation, (Additive, UnitDemand, BudgetAdditive)):
        return singles
    table = value_table(valuation)
    m = valuation.num_items
    tensor = table.nums.reshape((2,) * m)
    # Item j is bit j - 1 of a mask, so axis m - j of the C-order tensor.
    return [Fraction(int((tensor.take([1], axis=m - j)
                          - tensor.take([0], axis=m - j)).max()), table.denom)
            for j in range(1, m + 1)]


def minimal_envy_free(instance, bound: Fraction, step: Fraction) -> list[PriceVector]:
    """Domination-minimal envy-free points of the step-lattice in [0, bound]^m.

    Minimality is certified relative to the grid only: a returned p is
    envy-free and no other envy-free grid point is componentwise <= p.
    Points are generated one at a time in lexicographic order, so the grid
    is never held in memory and the result comes out in that order.  Only
    the box of levels up to each item's largest marginal value is walked;
    no minimal point lies outside it.
    """
    bound, step = Fraction(bound), Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    m = instance.num_items
    _guard_items(m, "grid search")
    singles = [[eval_valuation(v, ItemSet([j])) for j in range(1, m + 1)]
               for v in instance.bidders]
    top_value = max(itertools.chain.from_iterable(singles), default=Fraction(0))
    if bound < top_value:
        raise ValueError(
            f"bound {bound} is below the largest single-item value {top_value}; "
            "the grid might contain no envy-free point")
    levels = int(bound / step) + 1
    if levels ** m > LIMITS["grid points"]:
        raise GridTooLargeError(
            f"{levels ** m} grid points exceed the safety limit of "
            f"{LIMITS['grid points']}")
    # The box.  Let g_j be the largest marginal v_i(S + j) - v_i(S) over
    # bidders i and j-free sets S, at least 0, and L_j the first level at or
    # above g_j, at most the top level.  Take an envy-free grid point p with
    # p_j above level L_j; then L_j is below the top level, so p_j > g_j.
    #   - Item j is in no demand set at p: for a set A holding j,
    #     u(A - j) = u(A) + p_j - (v(A) - v(A - j)) >= u(A) + p_j - g_j > u(A).
    #     So every envy-free allocation at p leaves j unsold.
    #   - Lower p_j to level L_j, giving the grid point p' <= p, p' != p.
    #     Sets without j keep their utility; a set A holding j has
    #     u'(A) <= u'(A - j) + g_j - p'_j <= u'(A - j), so the maximum
    #     utility is still taken on a j-free set and is unchanged.  Every
    #     demand set at p is one at p', and an allocation that is envy-free
    #     at p is envy-free at p'.
    # So p is not minimal: every minimal point lies in the box of levels
    # [0, L_j].  Every grid point below a box point lies in the box, so a
    # box point is minimal among box points exactly when it is minimal in
    # the grid, and the walk below returns what the walk of the whole grid
    # returns, in the same order.  The refusal above still counts the grid.
    largest = [Fraction(0)] * m
    for v, row in zip(instance.bidders, singles):
        largest = list(map(max, largest, _largest_marginals(v, row)))
    caps = [min(levels - 1, math.ceil(g / step)) for g in largest]
    num, den = step.numerator, step.denominator
    minimal: list[PriceVector] = []
    # The lattice indices of the minimal points: a point's prices are its
    # indices times step, so domination on indices is domination on prices.
    corners: list[tuple[int, ...]] = []
    # A point q <= p with q != p differs from p first in a coordinate where
    # it is smaller, so q precedes p lexicographically.  Every point below p
    # has therefore been scanned already, and checking p against the
    # minimal points found so far decides its minimality.  That check comes
    # first: a p above a found minimal point is not minimal whether or not
    # it is envy-free, so no price vector is built for it and its
    # envy-freeness is never tested, and the result is the one the unpruned
    # scan gives, in the same order.
    for point in itertools.product(*(range(cap + 1) for cap in caps)):
        if any(all(map(operator.le, corner, point)) for corner in corners):
            continue
        p = PriceVector.from_scaled(tuple(k * num for k in point), den)
        if is_price_envy_free(instance, p):
            minimal.append(p)
            corners.append(point)
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
