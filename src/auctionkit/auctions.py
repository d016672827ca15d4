"""Ascending-auction engine with pluggable price-update rules.

The engine owns the loop: it starts at the zero price vector, computes each
bidder's demand report, hands (instance, prices, reports) to the rule, and
enforces the contract - raises must name a nonempty item set with a positive
increment, and any certification is independently verified before it is
accepted.  Rules are untrusted plug-ins; a broken rule is an error, never a
silent outcome.

Stalled is a first-class outcome: a rule that can neither certify envy-
freeness nor justify another raise says so, which is exactly the behaviour
worth observing on submodular instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import RuleViolationError
from .itemsets import ItemSet
from .demand import DemandResult, PriceVector, demand_oracle, utility
from .equilibrium import (Allocation, envy_free_allocation,
                          unit_demand_envy_free)
from .valuations import Additive


@dataclass(frozen=True)
class Raise:
    items: ItemSet
    increment: Fraction


@dataclass(frozen=True)
class Certify:
    allocation: Allocation


@dataclass(frozen=True)
class Stall:
    pass


Decision = Union[Raise, Certify, Stall]


@dataclass(frozen=True)
class AuctionStep:
    prices: PriceVector
    demands: tuple[DemandResult, ...]
    action: Decision


@dataclass(frozen=True)
class EnvyFreeOutcome:
    prices: PriceVector
    allocation: Allocation


@dataclass(frozen=True)
class StalledOutcome:
    prices: PriceVector


@dataclass(frozen=True)
class StepLimitOutcome:
    prices: PriceVector


Outcome = Union[EnvyFreeOutcome, StalledOutcome, StepLimitOutcome]


@dataclass(frozen=True)
class AuctionTrace:
    steps: tuple[AuctionStep, ...]
    outcome: Outcome


def _verify_certification(instance, prices: PriceVector,
                          demands: tuple[DemandResult, ...],
                          allocation: Allocation) -> None:
    if len(allocation.assigned) != len(instance.bidders):
        raise RuleViolationError("certified allocation has the wrong arity")
    for i, v in enumerate(instance.bidders):
        bundle = allocation.assigned[i]
        if bundle.max_item() > instance.num_items:
            raise RuleViolationError(
                f"certified allocation assigns items outside the ground set "
                f"to bidder {i}")
        if utility(v, prices, bundle) != demands[i].max_utility:
            raise RuleViolationError(
                f"certified allocation is not envy-free: bidder {i}'s set "
                f"misses its maximum utility")


def run_ascending(instance, rule, max_steps: int) -> AuctionTrace:
    """Iterate a price-update rule from the zero price vector.

    Terminates on a verified certification, on a stall, or at the step
    limit.  Prices are rebuilt by the engine from the rule's raise request,
    so componentwise monotonicity holds by construction.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    prices = PriceVector.zero(instance.num_items)
    steps: list[AuctionStep] = []
    for _ in range(max_steps):
        demands = tuple(demand_oracle(v, prices) for v in instance.bidders)
        action = rule(instance, prices, demands)
        steps.append(AuctionStep(prices, demands, action))
        if isinstance(action, Certify):
            _verify_certification(instance, prices, demands, action.allocation)
            return AuctionTrace(tuple(steps),
                                EnvyFreeOutcome(prices, action.allocation))
        if isinstance(action, Stall):
            return AuctionTrace(tuple(steps), StalledOutcome(prices))
        if isinstance(action, Raise):
            if len(action.items) == 0:
                raise RuleViolationError("rule raised an empty item set")
            if action.items.max_item() > instance.num_items:
                raise RuleViolationError("rule raised items outside the ground set")
            if action.increment <= 0:
                raise RuleViolationError("rule raised by a non-positive increment")
            prices = prices.raised(action.items, action.increment)
            continue
        raise RuleViolationError(f"rule returned {action!r}")
    return AuctionTrace(tuple(steps), StepLimitOutcome(prices))


class _IncrementRule:
    """A rule that raises by one fixed positive increment; its name records
    the increment after the subclass's label."""

    label: str

    def __init__(self, increment: Fraction):
        self.increment = Fraction(increment)
        if self.increment <= 0:
            raise ValueError("increment must be positive")
        self.name = f"{self.label}(increment={self.increment})"


class DgsRule(_IncrementRule):
    """Unit-demand auction: raise a minimal overdemanded set until a
    perfect matching of the demanders exists, then certify it."""

    label = "dgs"

    def __call__(self, instance, prices, demands) -> Decision:
        result = unit_demand_envy_free(instance, prices)
        if isinstance(result, Allocation):
            return Certify(result)
        return Raise(result.items, self.increment)


dgs_rule = DgsRule


def _shared_items(demands: tuple[DemandResult, ...]) -> ItemSet:
    """The items in two or more of the reported canonical demand sets."""
    seen = shared = 0
    for result in demands:
        mask = result.witness_set.mask
        shared |= seen & mask
        seen |= mask
    return ItemSet.from_mask(shared)


class EnglishAdditiveRule(_IncrementRule):
    """Per-item English auction for additive bidders: raise every item that
    at least two bidders strictly want; once each item has at most one
    strict demander, give it to that bidder and certify.  An additive
    bidder's canonical demand set is exactly the items it strictly wants,
    so the engine's reports say who wants what."""

    label = "english"

    def __call__(self, instance, prices, demands) -> Decision:
        for i, v in enumerate(instance.bidders):
            if not isinstance(v, Additive):
                raise TypeError(f"bidder {i} is not additive")
        contested = _shared_items(demands)
        if contested:
            return Raise(contested, self.increment)
        return Certify(Allocation(tuple(d.witness_set for d in demands)))


english_additive_rule = EnglishAdditiveRule


class GreedySubmodularRule(_IncrementRule):
    """Demonstration rule for general bidders: certify when the demand-set
    search finds an envy-free allocation, otherwise raise everything that
    two or more canonical demand sets share; stall when they share nothing."""

    label = "greedy"

    def __call__(self, instance, prices, demands) -> Decision:
        report = envy_free_allocation(instance, prices)
        if report.envy_free:
            return Certify(report.allocation)
        hot = _shared_items(demands)
        if len(hot) == 0:
            return Stall()
        return Raise(hot, self.increment)


greedy_submodular_rule = GreedySubmodularRule
