"""Demand oracles against the exhaustive reference and the pinned examples."""

import dataclasses
import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from auctionkit import (Additive, BudgetAdditive, Explicit, Instance, ItemSet,
                        MultiPeak, PriceVector, SetSystem, UnitDemand,
                        additive_demand, algorithm_peak, algorithm_zero,
                        brute_force_demand, budget_additive_demand,
                        check_monotone, check_submodular, demand,
                        demand_oracle, demand_sets,
                        dgs_rule, encode_instance, greedy_submodular_rule,
                        multipeak_demand, run_ascending, unit_demand_demand,
                        utility)
from auctionkit.errors import DemandCapExceededError, GroundSetTooLargeError

from conftest import count_price_tables
from reference import naive_demand, naive_demand_sets

P0_8 = PriceVector.zero(8)


def _random_prices(rng, m, top=10):
    return PriceVector(tuple(
        F(rng.randint(0, top), rng.choice([1, 2, 4, 8])) for _ in range(m)))


class TestUtility:
    def test_empty_is_zero(self, mp1):
        assert utility(mp1, P0_8, ItemSet()) == 0

    def test_additive_example(self):
        v = Additive((F(5), F(0)))
        assert utility(v, PriceVector((F(3), F(2))), ItemSet([1])) == 2

    def test_mp1_zero_prices(self, mp1):
        assert utility(mp1, P0_8, ItemSet([1, 2, 3, 4, 5])) == F(11, 8)


class TestBruteForceDemand:
    def test_mp1_at_zero(self, mp1):
        result = brute_force_demand(mp1, P0_8)
        assert result.max_utility == F(11, 8)
        assert result.argmax_count == 8
        assert result.witness_set == ItemSet([1, 2, 3, 4, 5])

    def test_additive_example(self):
        result = brute_force_demand(Additive((F(5), F(0))),
                                    PriceVector((F(3), F(2))))
        assert result.max_utility == 2
        assert result.witness_set == ItemSet([1])

    def test_unaffordable_prices_yield_empty(self, mp1):
        result = brute_force_demand(mp1, PriceVector((F(100),) * 8))
        assert result.max_utility == 0
        assert result.witness_set == ItemSet()

    def test_matches_naive_reference(self, mp1):
        rng = random.Random(21)
        valuations = [
            mp1,
            Additive((F(2), F(0), F(5), F(1))),
            UnitDemand((F(3), F(3), F(1))),
            BudgetAdditive((F(2), F(4), F(3)), F(6)),
            Explicit(3, (F(0), F(1), F(1), F(2), F(2), F(2), F(2), F(2))),
        ]
        for v in valuations:
            for _ in range(6):
                prices = _random_prices(rng, v.num_items, top=6)
                expect_gain, expect_set, expect_count = naive_demand(v, prices)
                result = brute_force_demand(v, prices)
                assert result.max_utility == expect_gain
                assert result.witness_set == expect_set
                assert result.argmax_count == expect_count

    def test_ground_set_cap(self):
        with pytest.raises(GroundSetTooLargeError,
                           match="brute-force demand is limited to 20 items, got 21"):
            brute_force_demand(Additive((F(1),) * 21), PriceVector.zero(21))
        with pytest.raises(GroundSetTooLargeError,
                           match="demand-set enumeration is limited to 16 items, got 17"):
            demand_sets(Additive((F(1),) * 17), PriceVector.zero(17), cap=1)

    def test_scales_past_int64_stay_exact(self):
        """Common denominators beyond int64 switch to exact Python ints, even
        when every value is zero."""
        cases = [
            (Explicit(2, (F(0),) * 4), PriceVector((F(1, 2 ** 70), F(0)))),
            (Additive((F(2 ** 62), F(1, 3))), PriceVector((F(2 ** 61), F(1, 5)))),
            (BudgetAdditive((F(1, 2 ** 40), F(1, 2 ** 30)), F(2 ** 63)),
             PriceVector((F(1, 3 ** 30), F(0)))),
        ]
        for v, prices in cases:
            expect_gain, expect_set, expect_count = naive_demand(v, prices)
            result = brute_force_demand(v, prices)
            assert result.max_utility == expect_gain
            assert result.witness_set == expect_set
            assert result.argmax_count == expect_count


class TestDemandSets:
    def test_indifferent_unit_demand(self):
        v = UnitDemand((F(3),))
        assert demand_sets(v, PriceVector((F(3),)), cap=10) == \
            [ItemSet(), ItemSet([1])]

    def test_additive_unique(self):
        v = Additive((F(5), F(0)))
        assert demand_sets(v, PriceVector((F(3), F(2))), cap=10) == [ItemSet([1])]

    def test_cap_exceeded(self, mp1):
        with pytest.raises(DemandCapExceededError) as info:
            demand_sets(mp1, P0_8, cap=4)
        assert info.value.count == 8

    def test_matches_naive(self, mp1):
        rng = random.Random(22)
        for _ in range(8):
            prices = _random_prices(rng, 8, top=2)
            assert demand_sets(mp1, prices, cap=1 << 9) == \
                naive_demand_sets(mp1, prices)


class TestAlgorithmZero:
    def test_zero_prices_take_everything(self):
        assert algorithm_zero(P0_8, 4) == ItemSet(range(1, 9))

    def test_expensive_prices_take_nothing(self):
        assert algorithm_zero(PriceVector((F(1),) * 8), 4) == ItemSet()

    def test_uniform_5_32_takes_three(self):
        # threshold 1/4 - (2l-1)/64 >= 5/32 exactly when l <= 3
        assert algorithm_zero(PriceVector((F(5, 32),) * 8), 4) == ItemSet([1, 2, 3])

    def test_price_ties_break_by_index(self):
        prices = PriceVector((F(1, 8), F(1, 8), F(1), F(1)))
        assert algorithm_zero(prices, 2) == ItemSet([1, 2])


class TestAlgorithmPeak:
    A1 = ItemSet([1, 2, 3, 4])

    def test_zero_prices_mark_peak_plus_one(self):
        assert algorithm_peak(P0_8, self.A1, 4, F(1, 2)) == ItemSet([1, 2, 3, 4, 5])

    def test_expensive_prices_mark_nothing(self):
        assert algorithm_peak(PriceVector((F(1),) * 8), self.A1, 4, F(1, 2)) is None

    def test_peak_count_range_excludes_small_l(self):
        # For eps*s = 2 only l in {3, 4} is scanned: cheap ranks 1 and 2
        # alone can never mark, however cheap they are.
        prices = PriceVector((F(0), F(0), F(1), F(1), F(1), F(1), F(1), F(1)))
        assert algorithm_peak(prices, self.A1, 4, F(1, 2)) is None

    def test_wrong_peak_size_rejected(self):
        with pytest.raises(ValueError, match="expected 4"):
            algorithm_peak(P0_8, ItemSet([1, 2]), 4, F(1, 2))


class TestMultipeakDemand:
    def test_matches_brute_at_zero(self, mp1):
        result = multipeak_demand(mp1, P0_8)
        assert result.max_utility == F(11, 8)
        assert result.max_utility == brute_force_demand(mp1, P0_8).max_utility

    def test_unaffordable_prices(self, mp1):
        result = multipeak_demand(mp1, PriceVector((F(1),) * 8))
        assert result.max_utility == 0
        assert result.witness_set == ItemSet()

    def test_mp1_uniform_5_32_is_a_frozen_counterexample(self, mp1):
        """MP1 fails both validators, and here the polynomial construction
        provably misses the demanded set: the printed price condition at
        (l=4, kappa=1) needs 5/16 <= 1/4.  Frozen, not asserted away."""
        prices = PriceVector((F(5, 32),) * 8)
        fast = multipeak_demand(mp1, prices)
        brute = brute_force_demand(mp1, prices)
        assert not check_monotone(mp1).holds
        assert not check_submodular(mp1).holds
        assert brute.max_utility == F(19, 32)
        assert brute.witness_set == ItemSet([1, 2, 3, 4, 5])
        assert fast.max_utility == F(3, 16)

    def test_equals_brute_on_validating_systems(self):
        validating = [
            MultiPeak(SetSystem((ItemSet([1, 2]),), 2, F(1, 2)), 4),
            MultiPeak(SetSystem((ItemSet([1, 2]), ItemSet([3, 4])), 2, F(1, 2)), 4),
            MultiPeak(SetSystem((ItemSet([1, 2, 3]), ItemSet([4, 5, 6])), 3, F(2, 3)), 6),
            MultiPeak(SetSystem((ItemSet([1, 2, 3, 4]), ItemSet([5, 6, 7, 8])), 4, F(3, 4)), 8),
        ]
        rng = random.Random(23)
        for v in validating:
            assert check_monotone(v).holds and check_submodular(v).holds
            for _ in range(25):
                prices = _random_prices(rng, v.num_items, top=8)
                assert multipeak_demand(v, prices).max_utility == \
                    brute_force_demand(v, prices).max_utility


class TestClassOracles:
    def test_additive_examples(self):
        r = additive_demand(Additive((F(5), F(0))), PriceVector((F(3), F(2))))
        assert (r.max_utility, r.witness_set) == (2, ItemSet([1]))
        r = additive_demand(Additive((F(1), F(1))), PriceVector((F(1), F(1))))
        assert (r.max_utility, r.witness_set, r.argmax_count) == (0, ItemSet(), 4)

    def test_unit_demand_examples(self):
        r = unit_demand_demand(UnitDemand((F(3), F(5))), PriceVector.zero(2))
        assert (r.max_utility, r.witness_set) == (5, ItemSet([2]))
        r = unit_demand_demand(UnitDemand((F(3),)), PriceVector((F(3),)))
        assert (r.max_utility, r.witness_set) == (0, ItemSet())

    def test_budget_additive_examples(self):
        r = budget_additive_demand(BudgetAdditive((F(3), F(4)), F(5)),
                                   PriceVector((F(1), F(1))))
        assert (r.max_utility, r.witness_set) == (3, ItemSet([2]))
        r = budget_additive_demand(BudgetAdditive((F(3), F(4)), F(0)),
                                   PriceVector.zero(2))
        assert (r.max_utility, r.witness_set) == (0, ItemSet())

    def test_relaxed_budget_equals_additive(self):
        rng = random.Random(24)
        for _ in range(20):
            m = rng.randint(1, 6)
            vals = tuple(F(rng.randint(0, 7)) for _ in range(m))
            prices = _random_prices(rng, m, top=7)
            slack = BudgetAdditive(vals, sum(vals, F(0)))
            assert budget_additive_demand(slack, prices).max_utility == \
                additive_demand(Additive(vals), prices).max_utility

    def test_all_match_brute_on_random_instances(self):
        rng = random.Random(25)
        for _ in range(60):
            m = rng.randint(1, 8)
            vals = tuple(F(rng.randint(0, 9)) for _ in range(m))
            prices = _random_prices(rng, m, top=9)
            cases = [
                (Additive(vals), additive_demand),
                (UnitDemand(vals), unit_demand_demand),
                (BudgetAdditive(vals, F(rng.randint(0, 12))), budget_additive_demand),
            ]
            for v, oracle in cases:
                fast = oracle(v, prices)
                brute = brute_force_demand(v, prices)
                assert fast.max_utility == brute.max_utility
                assert fast.witness_set == brute.witness_set

    def test_type_guards(self):
        with pytest.raises(TypeError):
            additive_demand(UnitDemand((F(1),)), PriceVector.zero(1))
        with pytest.raises(TypeError):
            unit_demand_demand(Additive((F(1),)), PriceVector.zero(1))
        with pytest.raises(TypeError):
            multipeak_demand(Additive((F(1),)), PriceVector.zero(1))


class TestOracleProperties:
    def test_witness_utility_consistency(self, mp1):
        rng = random.Random(26)
        for _ in range(30):
            prices = _random_prices(rng, 8, top=6)
            for result in (brute_force_demand(mp1, prices),
                           multipeak_demand(mp1, prices),
                           demand_oracle(mp1, prices)):
                assert utility(mp1, prices, result.witness_set) == result.max_utility
                assert result.max_utility >= 0

    def test_scaling_invariance(self):
        """Scaling values and prices by c scales utility by c and keeps the
        witness; exercised through explicit tables built from a multi-peak."""
        system = SetSystem((ItemSet([1, 2]), ItemSet([3, 4])), 2, F(1, 2))
        base = MultiPeak(system, 4)
        table = tuple(base.value(ItemSet.from_mask(mask)) for mask in range(16))
        rng = random.Random(27)
        for scale in (F(2), F(1, 3), F(7, 5)):
            scaled = Explicit(4, tuple(scale * x for x in table))
            for _ in range(10):
                prices = _random_prices(rng, 4, top=3)
                scaled_prices = PriceVector(tuple(scale * p for p in prices.prices))
                plain = brute_force_demand(Explicit(4, table), prices)
                boosted = brute_force_demand(scaled, scaled_prices)
                assert boosted.max_utility == scale * plain.max_utility
                assert boosted.witness_set == plain.witness_set

    def test_raising_outside_prices_keeps_witness_utility(self, mp1):
        rng = random.Random(28)
        for _ in range(20):
            prices = _random_prices(rng, 8, top=4)
            result = demand_oracle(mp1, prices)
            outside = ItemSet(range(1, 9)) - result.witness_set
            bumped = prices.raised(outside, F(5, 3)) if outside else prices
            assert utility(mp1, bumped, result.witness_set) == result.max_utility


def _random_valuation(rng, m):
    """An Explicit, Additive or MultiPeak valuation on m items, with small
    integer values so that ties are common."""
    kind = rng.choice(["explicit", "additive", "multipeak"])
    if kind == "explicit":
        return Explicit(m, (F(0),) + tuple(F(rng.randint(0, 6), rng.choice([1, 2]))
                                           for _ in range((1 << m) - 1)))
    if kind == "additive":
        return Additive(tuple(F(rng.randint(0, 4)) for _ in range(m)))
    size = rng.randint(-(-m // 4), m)
    order = rng.sample(range(1, m + 1), m)
    peaks = tuple(ItemSet(order[i * size:(i + 1) * size])
                  for i in range(rng.randint(1, m // size)))
    return MultiPeak(SetSystem(peaks, size, F(rng.randint(1, 5), 6)), m)


def _count_utility_tables(monkeypatch):
    """The valuation of every demand._utilities call from here on, starting
    from an empty demand memo."""
    monkeypatch.setattr(demand, "_memo", None)
    calls = []
    build = demand._utilities

    def counted(valuation, prices):
        calls.append(valuation)
        return build(valuation, prices)

    monkeypatch.setattr(demand, "_utilities", counted)
    return calls


def _fresh_mp1():
    """mp1 built anew, so that no earlier query's work is kept for it."""
    return MultiPeak(SetSystem((ItemSet([1, 2, 3, 4]), ItemSet([5, 6, 7, 8])),
                               4, F(1, 2)), 8)


class TestSharedMaximizers:
    """brute_force_demand and demand_sets share the memo of the last price
    vector queried; every answer must still equal the naive reference."""

    def test_interleaved_queries_match_naive(self):
        rng = random.Random(29)
        for trial in range(40):
            m = rng.randint(1, 6)
            v = _random_valuation(rng, m)
            w = _random_valuation(rng, m)
            p1 = _random_prices(rng, m, top=4)
            p2 = _random_prices(rng, m, top=4)
            fresh = PriceVector(tuple(F(x.numerator, x.denominator)
                                      for x in p1.prices))
            assert fresh == p1 and fresh is not p1
            # w's query at p2 evicts v's at p1; back at p1, v is asked
            # anew, then w shares v's price table, and v's query at the
            # equal fresh vector finds its own kept answer.
            queries = ((v, p1), (w, p2), (v, p1), (w, p1), (v, fresh),
                       (w, p2))
            for step, (val, prices) in enumerate(queries):
                best, witness, count = naive_demand(val, prices)
                sets = naive_demand_sets(val, prices)
                # Alternate which route asks first, so each one meets the
                # other's kept query.
                if (trial + step) % 2:
                    got = brute_force_demand(val, prices)
                    got_sets = demand_sets(val, prices, cap=1 << m)
                else:
                    got_sets = demand_sets(val, prices, cap=1 << m)
                    got = brute_force_demand(val, prices)
                assert (got.max_utility, got.witness_set, got.argmax_count) == \
                    (best, witness, count)
                assert got_sets == sets

    def test_memo_holds_at_most_one_step(self):
        """The memo keeps the valuations queried at the last prices alive,
        and lets them go once a query at other prices replaces it."""
        v = Explicit(2, (F(0), F(1), F(2), F(2)))
        w = Explicit(2, (F(0), F(2), F(1), F(3)))
        p1, p2 = PriceVector((F(1), F(1))), PriceVector((F(1, 2), F(1)))
        ref = weakref.ref(v)
        brute_force_demand(v, p1)
        brute_force_demand(w, p1)
        del v
        gc.collect()
        assert ref() is not None
        brute_force_demand(w, p2)
        gc.collect()
        assert ref() is None

    def test_kept_query_is_invisible(self):
        rng = random.Random(30)
        for _ in range(12):
            m = rng.randint(1, 6)
            state = rng.getstate()
            v = _random_valuation(rng, m)
            rng.setstate(state)
            twin = _random_valuation(rng, m)
            before = (hash(v), repr(v), encode_instance(Instance(m, (v,))))
            brute_force_demand(v, _random_prices(rng, m))
            assert v == twin and v is not twin
            assert (hash(v), repr(v), encode_instance(Instance(m, (v,)))) == \
                before == \
                (hash(twin), repr(twin), encode_instance(Instance(m, (twin,))))

    def test_refusals_after_a_kept_query(self, monkeypatch):
        v = _fresh_mp1()
        calls = _count_utility_tables(monkeypatch)
        assert brute_force_demand(v, P0_8).argmax_count == 8
        with pytest.raises(DemandCapExceededError):
            demand_sets(v, PriceVector.zero(8), cap=4)
        assert len(calls) == 1
        for prices in (PriceVector.zero(7), PriceVector.zero(9)):
            for query in (brute_force_demand,
                          lambda v, p: demand_sets(v, p, cap=16)):
                with pytest.raises(ValueError, match="ground set size"):
                    query(v, prices)
        assert len(demand_sets(v, P0_8, cap=8)) == 8
        assert len(calls) == 1

    def test_one_utility_table_per_bidder_per_step(self, monkeypatch):
        rng = random.Random(31)
        bidders = tuple(Explicit(4, (F(0),) + tuple(F(rng.randint(2, 8))
                                                    for _ in range(15)))
                        for _ in range(3))
        calls = _count_utility_tables(monkeypatch)
        trace = run_ascending(Instance(4, bidders),
                              greedy_submodular_rule(F(1, 2)), max_steps=50)
        assert len(trace.steps) >= 2
        assert len(calls) == len(bidders) * len(trace.steps)
        for v in bidders:
            assert sum(c is v for c in calls) == len(trace.steps)

    def test_a_bidder_listed_twice_shares_its_kept_query(self, monkeypatch):
        """The mp1 pair lists one object twice; the engine asks the
        polynomial oracle, and of the rule's two demand-set enumerations
        per step the second reuses the first one's query."""
        v = _fresh_mp1()
        calls = _count_utility_tables(monkeypatch)
        trace = run_ascending(Instance(8, (v, v)),
                              greedy_submodular_rule(F(1, 8)), max_steps=200)
        assert len(trace.steps) >= 2
        assert len(calls) == len(trace.steps)


def _any_class_valuation(rng, m):
    """A valuation of any of the five classes on m items."""
    kind = rng.choice(["explicit", "additive", "multipeak", "unit_demand",
                       "budget_additive"])
    if kind in ("explicit", "additive", "multipeak"):
        while True:
            v = _random_valuation(rng, m)
            if type(v).__name__.lower() == kind:
                return v
    vals = tuple(F(rng.randint(0, 6), rng.choice([1, 3])) for _ in range(m))
    if kind == "unit_demand":
        return UnitDemand(vals)
    return BudgetAdditive(vals, F(rng.randint(0, 12), rng.choice([1, 2])))


def _mixed_prices(rng, m):
    """Prices whose denominators differ from item to item."""
    return PriceVector(tuple(F(rng.randint(0, 12), rng.choice([1, 2, 3, 5, 8]))
                             for _ in range(m)))


class TestDemandsAt:
    """Demands at one price vector, asked as an auction step asks them:
    every bidder through demand_oracle in turn.  Each answer must be the one
    a twin with no kept work gets, and the exhaustive ones the naive
    scan's."""

    def test_matches_demand_oracle_and_naive(self):
        rng = random.Random(33)
        for _ in range(40):
            m = rng.randint(1, 6)
            bidders = [_any_class_valuation(rng, m)
                       for _ in range(rng.randint(1, 4))]
            bidders.append(rng.choice(bidders))  # one bidder listed twice
            for _ in range(3):
                prices = _mixed_prices(rng, m)
                got = [demand_oracle(v, prices) for v in bidders]
                for v, result in zip(bidders, got):
                    # A twin built anew has no kept answer of its own.
                    twin = dataclasses.replace(v)
                    assert demand_oracle(twin, prices) == result
                    assert demand_oracle(v, prices) == result
                    best, witness, count = naive_demand(v, prices)
                    assert utility(v, prices, result.witness_set) == \
                        result.max_utility
                    if isinstance(v, MultiPeak):
                        # The polynomial oracle may miss the optimum on
                        # systems that do not validate.
                        assert result.max_utility <= best
                        continue
                    assert (result.max_utility, result.witness_set) == \
                        (best, witness)
                    if isinstance(v, (Explicit, BudgetAdditive, Additive)):
                        assert result.argmax_count == count

    def test_one_price_table_per_greedy_step(self, monkeypatch):
        rng = random.Random(34)
        bidders = (
            Explicit(4, (F(0),) + tuple(F(rng.randint(2, 8))
                                        for _ in range(15))),
            BudgetAdditive((F(3), F(5, 2), F(2), F(7, 3)), F(6)),
            Explicit(4, (F(0),) + tuple(F(rng.randint(2, 8), 2)
                                        for _ in range(15))),
        )
        tables = count_price_tables(monkeypatch)
        utilities = _count_utility_tables(monkeypatch)
        trace = run_ascending(Instance(4, bidders),
                              greedy_submodular_rule(F(1, 2)), max_steps=50)
        assert len(trace.steps) >= 2
        assert tables == [step.prices for step in trace.steps]
        assert len(utilities) == len(bidders) * len(trace.steps)

    def test_no_price_table_in_a_dgs_run(self, monkeypatch):
        bidders = (UnitDemand((F(3), F(1))), UnitDemand((F(5), F(4))),
                   UnitDemand((F(2), F(2))))
        tables = count_price_tables(monkeypatch)
        trace = run_ascending(Instance(2, bidders), dgs_rule(F(1)),
                              max_steps=50)
        assert len(trace.steps) >= 2
        assert tables == []

    def test_refusals_come_before_any_table(self, monkeypatch):
        tables = count_price_tables(monkeypatch)
        utilities = _count_utility_tables(monkeypatch)
        v = _fresh_mp1()
        table = Explicit(2, (F(0), F(1), F(1), F(2)))
        for prices in (PriceVector.zero(1), PriceVector.zero(3)):
            with pytest.raises(ValueError, match="ground set size"):
                demand_oracle(table, prices)
            with pytest.raises(ValueError, match="ground set size"):
                demand_oracle(v, prices)
        wide = BudgetAdditive((F(1),) * 21, F(3))
        with pytest.raises(GroundSetTooLargeError,
                           match="brute-force demand is limited to 20 items"):
            demand_oracle(wide, PriceVector.zero(21))
        assert tables == [] and utilities == []
        assert not hasattr(table, "_value_table")
        assert not hasattr(wide, "_value_table")


class TestPriceVector:
    def test_nonnegative_required(self):
        with pytest.raises(ValueError):
            PriceVector((F(-1),))

    def test_domination_order(self):
        low = PriceVector((F(1), F(2)))
        high = PriceVector((F(1), F(3)))
        assert low.dominated_by(high)
        assert not high.dominated_by(low)

    def test_raised(self):
        p = PriceVector.zero(3).raised(ItemSet([1, 3]), F(1, 2))
        assert p.prices == (F(1, 2), F(0), F(1, 2))
