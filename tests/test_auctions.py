"""Ascending-auction engine, the three baseline rules, and trace invariants."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auctionkit import (Additive, Allocation, Certify, EMPTY_SET, Instance,
                        ItemSet, PriceVector, Raise, Stall, UnitDemand,
                        dgs_rule, english_additive_rule, envy_free_allocation,
                        gen_additive, gen_unit_demand, greedy_submodular_rule,
                        minimal_envy_free, run_ascending, serialize_trace)
from auctionkit.auctions import (EnvyFreeOutcome, StalledOutcome,
                                 StepLimitOutcome)
from auctionkit.errors import RuleViolationError

from reference import MarginEnglishRule

# Sixths, halves, thirds and integers up to 5: with increments 1, 1/2 and
# 1/3 prices meet values often, so margins of exactly zero (ties) are common.
ADDITIVE_VALUES = st.builds(F, st.integers(0, 30), st.sampled_from([1, 2, 3, 6]))


class TestEngineContract:
    def test_prices_monotone_and_strictly_raised(self, single_item_3_5):
        trace = run_ascending(single_item_3_5, dgs_rule(F(1)), 50)
        for earlier, later in zip(trace.steps, trace.steps[1:]):
            assert earlier.prices.dominated_by(later.prices)
            assert sum(later.prices.prices) > sum(earlier.prices.prices)

    def test_determinism(self, mp1_pair_instance):
        first = run_ascending(mp1_pair_instance, greedy_submodular_rule(F(1, 8)), 50)
        second = run_ascending(mp1_pair_instance, greedy_submodular_rule(F(1, 8)), 50)
        assert serialize_trace(first) == serialize_trace(second)

    def test_false_certify_is_an_error(self, single_item_3_5):
        class LyingRule:
            name = "liar"

            def __call__(self, instance, prices, demands):
                return Certify(Allocation((ItemSet([1]), EMPTY_SET)))

        with pytest.raises(RuleViolationError, match="not envy-free"):
            run_ascending(single_item_3_5, LyingRule(), 5)

    def test_empty_raise_is_an_error(self, single_item_3_5):
        class EmptyRaiser:
            name = "empty"

            def __call__(self, instance, prices, demands):
                return Raise(EMPTY_SET, F(1))

        with pytest.raises(RuleViolationError, match="empty"):
            run_ascending(single_item_3_5, EmptyRaiser(), 5)

    def test_nonpositive_increment_is_an_error(self, single_item_3_5):
        class ZeroRaiser:
            name = "zero"

            def __call__(self, instance, prices, demands):
                return Raise(ItemSet([1]), F(0))

        with pytest.raises(RuleViolationError, match="increment"):
            run_ascending(single_item_3_5, ZeroRaiser(), 5)

    def test_a_rule_may_raise_by_a_float(self, single_item_3_5):
        # Raise.increment reaches PriceVector.raised as the rule gave it.
        class HalfRaiser:
            name = "half"

            def __call__(self, instance, prices, demands):
                return Raise(ItemSet([1]), 0.5)

        trace = run_ascending(single_item_3_5, HalfRaiser(), 4)
        assert [s.prices.prices for s in trace.steps] == \
            [(F(0),), (F(1, 2),), (F(1),), (F(3, 2),)]
        assert trace.outcome.prices == PriceVector((F(2),))

    @staticmethod
    def _always(decision):
        class Rule:
            name = "fixed"

            def __call__(self, instance, prices, demands):
                return decision

        return Rule()

    @pytest.mark.parametrize("decision, message", [
        ("stall", "rule returned 'stall'"),
        (None, "rule returned None"),
        (Certify(Allocation((ItemSet([1]),))),
         "certified allocation has the wrong arity"),
        (Certify(Allocation((ItemSet([2]), EMPTY_SET))),
         "certified allocation assigns items outside the ground set to bidder 0"),
        (Raise(ItemSet([1, 2]), F(1)),
         "rule raised items outside the ground set"),
    ], ids=["text", "none", "arity", "certified-beyond", "raised-beyond"])
    def test_contract_refusals(self, single_item_3_5, decision, message):
        with pytest.raises(RuleViolationError) as refused:
            run_ascending(single_item_3_5, self._always(decision), 5)
        assert str(refused.value) == message

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_step_limit_below_one_is_refused(self, single_item_3_5, max_steps):
        with pytest.raises(ValueError, match="max_steps must be at least 1"):
            run_ascending(single_item_3_5, dgs_rule(F(1)), max_steps)

    @pytest.mark.parametrize("rule", [dgs_rule, english_additive_rule,
                                      greedy_submodular_rule])
    @pytest.mark.parametrize("increment", [F(0), F(-1, 2)])
    def test_rules_refuse_nonpositive_increments(self, rule, increment):
        with pytest.raises(ValueError, match="increment must be positive"):
            rule(increment)

    def test_step_limit(self, single_item_3_5):
        trace = run_ascending(single_item_3_5, dgs_rule(F(1)), 2)
        assert isinstance(trace.outcome, StepLimitOutcome)
        assert len(trace.steps) == 2

    def test_certification_survives_independent_recheck(self, single_item_3_5):
        trace = run_ascending(single_item_3_5, dgs_rule(F(1)), 50)
        assert isinstance(trace.outcome, EnvyFreeOutcome)
        report = envy_free_allocation(single_item_3_5, trace.outcome.prices)
        assert report.envy_free


class TestDgsRule:
    def test_single_item_full_trace(self, single_item_3_5):
        trace = run_ascending(single_item_3_5, dgs_rule(F(1)), 50)
        assert [step.prices.prices[0] for step in trace.steps] == \
            [F(0), F(1), F(2), F(3)]
        assert isinstance(trace.outcome, EnvyFreeOutcome)
        assert trace.outcome.prices.prices == (F(3),)

    def test_three_bidders_two_items_lands_grid_minimal(self):
        inst = Instance(2, (UnitDemand((F(2), F(1))), UnitDemand((F(2), F(1))),
                            UnitDemand((F(1), F(2)))))
        trace = run_ascending(inst, dgs_rule(F(1)), 100)
        assert isinstance(trace.outcome, EnvyFreeOutcome)
        minimal = minimal_envy_free(inst, F(3), F(1))
        assert trace.outcome.prices in minimal

    def test_single_bidder_certifies_at_zero(self):
        inst = Instance(2, (UnitDemand((F(3), F(1))),))
        trace = run_ascending(inst, dgs_rule(F(1)), 10)
        assert isinstance(trace.outcome, EnvyFreeOutcome)
        assert trace.outcome.prices == PriceVector.zero(2)
        assert len(trace.steps) == 1

    def test_rejects_non_unit_demand(self, mp1_pair_instance):
        with pytest.raises(TypeError, match="unit-demand"):
            run_ascending(mp1_pair_instance, dgs_rule(F(1)), 5)

    def test_random_instances_terminate_minimal(self):
        rng = random.Random(41)
        for _ in range(15):
            n, m = rng.randint(1, 4), rng.randint(1, 3)
            inst = gen_unit_demand(n, m, (0, 4), seed=rng.randint(0, 9999))
            trace = run_ascending(inst, dgs_rule(F(1)), 500)
            assert isinstance(trace.outcome, EnvyFreeOutcome)
            assert trace.outcome.prices in minimal_envy_free(inst, F(4), F(1))


class TestEnglishAdditiveRule:
    def test_second_prices(self):
        inst = Instance(2, (Additive((F(5), F(0))), Additive((F(3), F(4))),
                            Additive((F(2), F(2)))))
        trace = run_ascending(inst, english_additive_rule(F(1)), 100)
        assert isinstance(trace.outcome, EnvyFreeOutcome)
        assert trace.outcome.prices.prices == (F(3), F(2))
        assert trace.outcome.allocation.assigned == \
            (ItemSet([1]), ItemSet([2]), EMPTY_SET)

    def test_single_bidder_pays_nothing(self):
        inst = Instance(2, (Additive((F(7), F(7))),))
        trace = run_ascending(inst, english_additive_rule(F(1)), 10)
        assert trace.outcome.prices == PriceVector.zero(2)
        assert trace.outcome.allocation.assigned == (ItemSet([1, 2]),)

    def test_all_zero_values(self):
        inst = Instance(2, (Additive((F(0), F(0))), Additive((F(0), F(0)))))
        trace = run_ascending(inst, english_additive_rule(F(1)), 10)
        assert isinstance(trace.outcome, EnvyFreeOutcome)
        assert trace.outcome.prices == PriceVector.zero(2)
        assert all(s == EMPTY_SET for s in trace.outcome.allocation.assigned)

    def test_rejects_non_additive(self, single_item_3_5):
        with pytest.raises(TypeError, match="additive"):
            run_ascending(single_item_3_5, english_additive_rule(F(1)), 5)

    def test_final_prices_are_rounded_second_values(self):
        rng = random.Random(42)
        for _ in range(15):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            inst = gen_additive(n, m, (0, 5), seed=rng.randint(0, 9999))
            trace = run_ascending(inst, english_additive_rule(F(1)), 200)
            assert isinstance(trace.outcome, EnvyFreeOutcome)
            for j in range(1, m + 1):
                values = sorted((v.values[j - 1] for v in inst.bidders),
                                reverse=True)
                second = values[1] if len(values) > 1 else F(0)
                assert trace.outcome.prices.price_of(j) == second

    @given(st.integers(1, 4).flatmap(lambda m: st.lists(
               st.lists(ADDITIVE_VALUES, min_size=m, max_size=m),
               min_size=1, max_size=4)),
           st.sampled_from([F(1), F(1, 2), F(1, 3)]))
    @example([[F(1), F(1, 2)], [F(1), F(1, 2)]], F(1, 2))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_margin_route(self, values, increment):
        """The rule reads the engine's demand reports; tests/reference.py
        decides from Fraction margins.  The traces are the same bytes."""
        inst = Instance(len(values[0]), tuple(Additive(tuple(v)) for v in values))
        ours = run_ascending(inst, english_additive_rule(increment), 400)
        theirs = run_ascending(inst, MarginEnglishRule(increment), 400)
        assert isinstance(ours.outcome, EnvyFreeOutcome)
        assert serialize_trace(ours) == serialize_trace(theirs)


class TestGreedySubmodularRule:
    def test_reaches_envy_free_on_additive(self):
        rng = random.Random(43)
        for _ in range(10):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            inst = gen_additive(n, m, (0, 4), seed=rng.randint(0, 9999))
            trace = run_ascending(inst, greedy_submodular_rule(F(1)), 200)
            assert isinstance(trace.outcome, EnvyFreeOutcome)

    def test_two_multipeak_bidders_fail_to_certify(self, mp1_pair_instance):
        trace = run_ascending(mp1_pair_instance, greedy_submodular_rule(F(1, 8)),
                              200)
        assert isinstance(trace.outcome, (StalledOutcome, StepLimitOutcome))
        raised = [s for s in trace.steps if isinstance(s.action, Raise)]
        assert raised, "the rule raises inside the overlapping demanded sets"

    def test_zero_bidders_certify_immediately(self):
        trace = run_ascending(Instance(3, ()), greedy_submodular_rule(F(1)), 5)
        assert isinstance(trace.outcome, EnvyFreeOutcome)
        assert len(trace.steps) == 1

    def test_stall_is_recorded(self, mp1_pair_instance):
        trace = run_ascending(mp1_pair_instance, greedy_submodular_rule(F(1, 8)),
                              200)
        if isinstance(trace.outcome, StalledOutcome):
            assert isinstance(trace.steps[-1].action, Stall)
