"""Envy-free search, the unit-demand matching route, witnesses, and grids."""

import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionkit import (Additive, Allocation, BudgetAdditive, EMPTY_SET,
                        Explicit, Instance, ItemSet, PriceVector, UnitDemand,
                        Witness, brute_force_demand, dgs_rule,
                        envy_free_allocation, eval_valuation, gen_unit_demand,
                        is_price_envy_free, is_walrasian, minimal_envy_free,
                        run_ascending, unit_demand_envy_free, utility)
from auctionkit import equilibrium
from auctionkit.auctions import EnvyFreeOutcome
from auctionkit.errors import GridTooLargeError, GroundSetTooLargeError

from conftest import count_price_tables
from reference import (min_walrasian_unit_demand, naive_envy_free,
                       overdemand_margin)


def naive_minimal_envy_free(instance, bound, step):
    """Every grid point checked by the unpruned search, then the
    domination-minimal ones kept, in lexicographic order."""
    lattice = [step * k for k in range(int(bound / step) + 1)]
    grid = [PriceVector(t)
            for t in itertools.product(lattice, repeat=instance.num_items)]
    free = [p for p in grid if naive_envy_free(instance, p)]
    minimal = [p for p in free
               if not any(q != p and q.dominated_by(p) for q in free)]
    return sorted(minimal, key=lambda p: p.prices)


def _random_explicit(rng, m, top):
    return Explicit(m, (F(0),) + tuple(F(rng.randint(0, 2 * top), 2)
                                       for _ in range(2 ** m - 1)))


HALVES = st.integers(0, 6).map(lambda k: F(k, 2))


@st.composite
def _grid_instances(draw):
    """A small instance of UnitDemand, Additive, BudgetAdditive and Explicit
    bidders with half-integer values, a step and a bound at or above the
    largest single-item value."""
    m = draw(st.integers(1, 3))
    bidders = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            (UnitDemand, Additive, BudgetAdditive, Explicit)))
        if kind is Explicit:
            rest = draw(st.lists(HALVES, min_size=2 ** m - 1,
                                 max_size=2 ** m - 1))
            bidders.append(Explicit(m, (F(0),) + tuple(rest)))
            continue
        values = tuple(draw(st.lists(HALVES, min_size=m, max_size=m)))
        bidders.append(BudgetAdditive(values, draw(HALVES))
                       if kind is BudgetAdditive else kind(values))
    inst = Instance(m, tuple(bidders))
    top = max((eval_valuation(v, ItemSet([j]))
               for v in bidders for j in range(1, m + 1)), default=F(0))
    step = draw(st.sampled_from((F(1), F(1, 2), F(3, 2))))
    return inst, top + draw(st.sampled_from((F(0), F(1, 2), F(1)))), step


def _item_seekers():
    """Three explicit bidders on m=3; the k-th values a set at 3 when it
    holds item k and at 0 otherwise, so ({1}, {2}, {3}) is envy-free at
    prices below 3."""
    return tuple(
        Explicit(3, tuple(F(3) if mask >> k & 1 else F(0)
                          for mask in range(8)))
        for k in range(3))


class TestEnvyFreeAllocation:
    def test_single_item_indifference(self, single_item_3_5):
        report = envy_free_allocation(single_item_3_5, PriceVector((F(3),)))
        assert report.envy_free
        assert report.allocation.assigned == (EMPTY_SET, ItemSet([1]))

    def test_single_item_contested(self, single_item_3_5):
        report = envy_free_allocation(single_item_3_5, PriceVector((F(2),)))
        assert not report.envy_free
        assert report.witness.kind == "exhaustion-proof"
        assert report.nodes_explored >= 1

    def test_two_multipeak_bidders_not_envy_free(self, mp1_pair_instance):
        report = envy_free_allocation(mp1_pair_instance, PriceVector.zero(8))
        assert not report.envy_free
        # every demanded set is a peak plus one outside item; all 8x8 pairs meet
        assert report.nodes_explored >= 8

    def test_allocation_soundness(self, mp1_pair_instance):
        prices = PriceVector((F(1), F(1), F(1), F(1), F(2), F(1), F(1), F(1)))
        report = envy_free_allocation(mp1_pair_instance, prices)
        if report.envy_free:
            for bidder, bundle in zip(mp1_pair_instance.bidders,
                                      report.allocation.assigned):
                assert utility(bidder, prices, bundle) == \
                    brute_force_demand(bidder, prices).max_utility

    def test_matches_unpruned_product_search(self):
        rng = random.Random(31)
        for _ in range(30):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            inst = gen_unit_demand(n, m, (0, 4), seed=rng.randint(0, 999))
            prices = PriceVector(tuple(F(rng.randint(0, 4)) for _ in range(m)))
            assert envy_free_allocation(inst, prices).envy_free == \
                naive_envy_free(inst, prices)

    def test_zero_bidders_trivially_envy_free(self):
        report = envy_free_allocation(Instance(2, ()), PriceVector.zero(2))
        assert report.envy_free
        assert report.allocation.assigned == ()

    def test_one_price_table_per_call(self, monkeypatch):
        """The bidders' demand-set queries share one price table."""
        tables = count_price_tables(monkeypatch)
        prices = PriceVector((F(1), F(1, 2), F(2)))
        report = envy_free_allocation(Instance(3, _item_seekers()), prices)
        assert report.allocation.assigned == (ItemSet([1]), ItemSet([2]),
                                              ItemSet([3]))
        assert tables == [prices]


class TestUnitDemandEnvyFree:
    def test_three_bidders_one_item_witness(self):
        inst = Instance(1, tuple(UnitDemand((F(5),)) for _ in range(3)))
        witness = unit_demand_envy_free(inst, PriceVector.zero(1))
        assert isinstance(witness, Witness)
        assert witness.items == ItemSet([1])
        assert witness.demanders == (0, 1, 2)

    def test_matching_agrees_with_search(self, single_item_3_5):
        result = unit_demand_envy_free(single_item_3_5, PriceVector((F(3),)))
        assert isinstance(result, Allocation)

    def test_zero_bidders(self):
        result = unit_demand_envy_free(Instance(3, ()), PriceVector.zero(3))
        assert isinstance(result, Allocation)
        assert result.assigned == ()

    def test_rejects_non_unit_demand(self):
        inst = Instance(1, (Additive((F(1),)),))
        with pytest.raises(TypeError, match="unit-demand"):
            unit_demand_envy_free(inst, PriceVector.zero(1))

    def test_witness_that_is_not_overdemanded_is_an_internal_error(
            self, monkeypatch):
        """The witness check must survive `python -O`, so it is no assert."""
        inst = Instance(1, tuple(UnitDemand((F(5),)) for _ in range(3)))
        monkeypatch.setattr(equilibrium, "_overdemanded", lambda *args: [])
        with pytest.raises(RuntimeError, match="not overdemanded"):
            unit_demand_envy_free(inst, PriceVector.zero(1))

    def test_agreement_and_witness_validity_random(self):
        rng = random.Random(32)
        for _ in range(60):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            inst = gen_unit_demand(n, m, (0, 5), seed=rng.randint(0, 9999))
            prices = PriceVector(tuple(F(rng.randint(0, 5)) for _ in range(m)))
            result = unit_demand_envy_free(inst, prices)
            search = envy_free_allocation(inst, prices)
            assert isinstance(result, Allocation) == search.envy_free
            if isinstance(result, Witness):
                assert overdemand_margin(inst, prices, result.items) > 0
                # inclusion-minimal: dropping any item kills the inequality
                for item in result.items:
                    trimmed = result.items - ItemSet([item])
                    assert overdemand_margin(inst, prices, trimmed) <= 0

    def test_allocations_are_demand_sets(self):
        rng = random.Random(33)
        for _ in range(30):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            inst = gen_unit_demand(n, m, (0, 5), seed=rng.randint(0, 9999))
            prices = PriceVector(tuple(F(rng.randint(0, 5)) for _ in range(m)))
            result = unit_demand_envy_free(inst, prices)
            if isinstance(result, Allocation):
                for bidder, bundle in zip(inst.bidders, result.assigned):
                    assert utility(bidder, prices, bundle) == \
                        brute_force_demand(bidder, prices).max_utility


class TestMinimalEnvyFree:
    def test_single_item_3_5(self, single_item_3_5):
        points = minimal_envy_free(single_item_3_5, F(6), F(1))
        assert [p.prices for p in points] == [(F(3),)]

    def test_zero_bidders(self):
        points = minimal_envy_free(Instance(2, ()), F(3), F(1))
        assert [p.prices for p in points] == [(F(0), F(0))]

    def test_two_additive_bidders_tie(self):
        inst = Instance(1, (Additive((F(4),)), Additive((F(4),))))
        points = minimal_envy_free(inst, F(5), F(1))
        assert [p.prices for p in points] == [(F(4),)]

    def test_returned_points_are_envy_free_and_minimal(self):
        rng = random.Random(34)
        for _ in range(10):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            inst = gen_unit_demand(n, m, (0, 3), seed=rng.randint(0, 999))
            points = minimal_envy_free(inst, F(3), F(1))
            assert points, "an envy-free grid point always exists at the bound"
            grid = [PriceVector((F(a), F(b))[:m])
                    for a in range(4) for b in range(4)][: 4 ** m]
            for p in points:
                assert is_price_envy_free(inst, p)
                for q in grid:
                    if q != p and q.dominated_by(p):
                        assert not is_price_envy_free(inst, q)

    def test_matches_naive_reference_unit_demand(self):
        rng = random.Random(35)
        for _ in range(12):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            inst = gen_unit_demand(n, m, (0, 3), seed=rng.randint(0, 999))
            step = rng.choice((F(1), F(3, 2)))
            assert minimal_envy_free(inst, F(3), step) == \
                naive_minimal_envy_free(inst, F(3), step)

    def test_matches_naive_reference_additive_explicit_mix(self):
        """Mixed bidders take the demand-set search route, not the matching."""
        rng = random.Random(36)
        for _ in range(12):
            m = rng.randint(1, 2)
            bidders = tuple(
                Additive(tuple(F(rng.randint(0, 3)) for _ in range(m)))
                if rng.random() < 0.5 else _random_explicit(rng, m, 3)
                for _ in range(rng.randint(1, 3)))
            inst = Instance(m, bidders)
            step = rng.choice((F(1), F(1, 2)))
            assert minimal_envy_free(inst, F(3), step) == \
                naive_minimal_envy_free(inst, F(3), step)

    def test_grid_is_not_materialised(self, monkeypatch):
        """By the first check, the scan has allocated next to nothing: the
        6**6 grid points are generated one at a time."""

        class FirstPoint(Exception):
            pass

        def stop(*args):
            raise FirstPoint(tracemalloc.get_traced_memory()[1])

        inst = gen_unit_demand(2, 6, (0, 5), seed=3)
        monkeypatch.setattr(equilibrium, "is_price_envy_free", stop)
        tracemalloc.start()
        try:
            with pytest.raises(FirstPoint) as caught:
                minimal_envy_free(inst, F(5), F(1))
        finally:
            tracemalloc.stop()
        assert caught.value.args[0] < 256 * 1024

    def test_ground_set_limit(self):
        inst = gen_unit_demand(1, 7, (0, 1), seed=1)
        with pytest.raises(GroundSetTooLargeError,
                           match="grid search is limited to 6 items, got 7"):
            minimal_envy_free(inst, F(1), F(1))

    def test_bound_below_values_rejected(self, single_item_3_5):
        with pytest.raises(ValueError, match="below the largest"):
            minimal_envy_free(single_item_3_5, F(2), F(1))

    def test_grid_safety_limit(self):
        inst = gen_unit_demand(1, 5, (0, 1), seed=1)
        with pytest.raises(GridTooLargeError):
            minimal_envy_free(inst, F(2), F(1, 500))

    def test_fractional_step(self, single_item_3_5):
        points = minimal_envy_free(single_item_3_5, F(6), F(1, 2))
        assert [p.prices for p in points] == [(F(3),)]

    @given(_grid_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_reference_all_classes(self, case):
        inst, bound, step = case
        assert minimal_envy_free(inst, bound, step) == \
            naive_minimal_envy_free(inst, bound, step)

    def test_points_above_a_found_minimal_point_are_not_tested(
            self, monkeypatch):
        tested = []
        check = equilibrium.is_price_envy_free

        def spy(instance, prices):
            tested.append(prices)
            return check(instance, prices)

        inst = gen_unit_demand(3, 4, (0, 5), seed=8)
        monkeypatch.setattr(equilibrium, "is_price_envy_free", spy)
        points = minimal_envy_free(inst, F(5), F(1))
        assert points
        for p in tested:
            assert not any(q != p and q.dominated_by(p) for q in points)
        assert len(tested) < 6 ** 4

    def test_is_exactly_the_minimum_walrasian_prices(self):
        """Criterion-6-size instances (integer values, step 1): the exact
        route's vector and the DGS outcome lie in the grid result, which
        holds that one point only."""
        for case in range(60):
            rng = random.Random(70_000 + case)
            n, m = rng.randint(1, 5), rng.randint(1, 4)
            inst = gen_unit_demand(n, m, (0, 5), seed=71_000 + case)
            points = minimal_envy_free(inst, F(5), F(1))
            exact = min_walrasian_unit_demand(inst)
            outcome = run_ascending(inst, dgs_rule(F(1)), 1000).outcome
            assert isinstance(outcome, EnvyFreeOutcome)
            assert exact in points
            assert outcome.prices in points
            assert points == [exact]


class TestIsPriceEnvyFree:
    @pytest.mark.parametrize("bidder", [UnitDemand((F(3), F(1))),
                                        Additive((F(3), F(1)))],
                             ids=["matching", "search"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_length_prices_rejected(self, bidder, length):
        inst = Instance(2, (bidder, bidder))
        with pytest.raises(ValueError, match="ground set size"):
            is_price_envy_free(inst, PriceVector((F(1),) * length))

    @pytest.mark.parametrize("check", [
        is_price_envy_free,
        envy_free_allocation,
        lambda inst, prices: is_walrasian(inst, prices, Allocation(())),
    ], ids=["is_price_envy_free", "envy_free_allocation", "is_walrasian"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_length_prices_rejected_without_bidders(self, check, length):
        """The length is checked before any per-bidder work, so an instance
        with no bidders refuses a wrong-length price vector too."""
        with pytest.raises(ValueError, match="ground set size"):
            check(Instance(2, ()), PriceVector.zero(length))


class TestIsWalrasian:
    def test_fully_allocated(self, single_item_3_5):
        alloc = Allocation((EMPTY_SET, ItemSet([1])))
        assert is_walrasian(single_item_3_5, PriceVector((F(3),)), alloc)

    def test_unallocated_item_with_positive_price(self):
        inst = Instance(2, (UnitDemand((F(3), F(0))), UnitDemand((F(5), F(0)))))
        alloc = Allocation((EMPTY_SET, ItemSet([1])))
        assert not is_walrasian(inst, PriceVector((F(3), F(1))), alloc)
        assert is_walrasian(inst, PriceVector((F(3), F(0))), alloc)

    def test_rejects_non_envy_free_allocation(self, single_item_3_5):
        alloc = Allocation((ItemSet([1]), EMPTY_SET))
        with pytest.raises(ValueError, match="not envy-free"):
            is_walrasian(single_item_3_5, PriceVector((F(3),)), alloc)

    def test_one_price_table_per_call(self, monkeypatch):
        tables = count_price_tables(monkeypatch)
        prices = PriceVector((F(1), F(1, 2), F(2)))
        report = envy_free_allocation(Instance(3, _item_seekers()), prices)
        # Twins built anew have no kept answers, so every bidder builds a
        # utility table, but at the same prices they share the kept price
        # table; from an empty memo they build exactly one.
        fresh = Instance(3, tuple(dataclasses.replace(v)
                                  for v in _item_seekers()))
        assert is_walrasian(fresh, prices, report.allocation)
        assert tables == [prices]
        tables = count_price_tables(monkeypatch)
        assert is_walrasian(fresh, prices, report.allocation)
        assert tables == [prices]

    @pytest.mark.parametrize("assigned", [
        (ItemSet([1]),),
        (EMPTY_SET, ItemSet([1]), EMPTY_SET),
    ], ids=["shorter", "longer"])
    def test_allocation_arity_refused(self, single_item_3_5, assigned,
                                      monkeypatch):
        """One set per bidder is checked before any demand query."""
        asked = []
        monkeypatch.setattr(equilibrium, "demand_oracle",
                            lambda *args: asked.append(args))
        with pytest.raises(ValueError, match="sets for 2 bidders"):
            is_walrasian(single_item_3_5, PriceVector((F(3),)),
                         Allocation(assigned))
        assert asked == []


class TestAllocationType:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="overlaps"):
            Allocation((ItemSet([1, 2]), ItemSet([2, 3])))
