"""Envy-free search, the unit-demand matching route, witnesses, and grids."""

import dataclasses
import itertools
import operator
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionkit import (Additive, Allocation, BudgetAdditive, EMPTY_SET,
                        Explicit, Instance, ItemSet, PriceVector, UnitDemand,
                        Witness, brute_force_demand, dgs_rule,
                        envy_free_allocation, eval_valuation, gen_multipeak,
                        gen_unit_demand, is_price_envy_free, is_walrasian, minimal_envy_free,
                        run_ascending, unit_demand_envy_free, utility)
from auctionkit import equilibrium
from auctionkit.auctions import EnvyFreeOutcome
from auctionkit.errors import (DemandCapExceededError, GridTooLargeError,
                               GroundSetTooLargeError)
from auctionkit.valuations import LIMITS

from conftest import count_price_tables
import reference
from reference import (min_walrasian_unit_demand, naive_envy_free,
                       overdemand_margin)


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


SIXTHS = st.integers(0, 18).map(lambda k: F(k, 6))


@st.composite
def _unit_or_explicit_grid(draw):
    """All unit-demand bidders (the matching route), all explicit ones, or
    a mix of both (the backtracking route), with values in sixths, and a
    bound at or above the largest single-item value."""
    m = draw(st.integers(1, 3))
    kinds = draw(st.sampled_from(((UnitDemand,), (Explicit,),
                                  (UnitDemand, Explicit))))
    bidders = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.sampled_from(kinds)) is Explicit:
            rest = draw(st.lists(SIXTHS, min_size=2 ** m - 1,
                                 max_size=2 ** m - 1))
            bidders.append(Explicit(m, (F(0),) + tuple(rest)))
        else:
            bidders.append(UnitDemand(tuple(
                draw(st.lists(SIXTHS, min_size=m, max_size=m)))))
    top = max((eval_valuation(v, ItemSet([j]))
               for v in bidders for j in range(1, m + 1)), default=F(0))
    return Instance(m, tuple(bidders)), top + draw(
        st.sampled_from((F(0), F(1, 3), F(1))))


@st.composite
def _complementary_grid(draw):
    """One to three explicit bidders on two or three items with values in
    halves, and a step and a bound at or above the largest single-item
    value.  The first bidder values items 1 and 2 together above the sum of
    their single values, so item 2's largest marginal exceeds its single
    value; the excess is drawn from (bound + 1) / 2 up to 2 (bound + 1),
    so that marginal often exceeds the bound too."""
    m = draw(st.integers(2, 3))
    tables = [[F(0)] + draw(st.lists(HALVES, min_size=2 ** m - 1,
                                     max_size=2 ** m - 1))
              for _ in range(draw(st.integers(1, 3)))]
    top = max(table[1 << j] for table in tables for j in range(m))
    bound = top + draw(st.sampled_from((F(0), F(1, 2), F(1))))
    first = tables[0]
    first[0b11] = first[0b01] + first[0b10] + \
        draw(st.integers(1, 4)) * (bound + 1) / 2
    step = draw(st.sampled_from((F(1), F(3, 2))))
    return Instance(m, tuple(Explicit(m, t) for t in tables)), bound, step


@st.composite
def _unwanted_item_grid(draw):
    """One to three explicit bidders on one to three items, values in halves,
    none of them monotone in item j: adding j to a set lowers its value by
    a drawn amount, down to 0, so j's largest marginal is at most 0."""
    m = draw(st.integers(1, 3))
    j = draw(st.integers(1, m))
    bit = 1 << (j - 1)
    bidders = []
    for _ in range(draw(st.integers(1, 3))):
        table = [F(0)] + draw(st.lists(HALVES, min_size=2 ** m - 1,
                                       max_size=2 ** m - 1))
        loss = draw(HALVES)
        for mask in range(1 << m):
            if mask & bit:
                table[mask] = max(F(0), table[mask ^ bit] - loss)
        bidders.append(Explicit(m, table))
    top = max(eval_valuation(v, ItemSet([i]))
              for v in bidders for i in range(1, m + 1))
    bound = top + draw(st.sampled_from((F(0), F(1, 2), F(1))))
    step = draw(st.sampled_from((F(1), F(1, 2))))
    return Instance(m, tuple(bidders)), j, bound, step


def _scan(inst, bound, step):
    """minimal_envy_free's points as Fraction tuples, and the prices of
    every point whose envy-freeness it tested."""
    tested = []
    check = equilibrium.is_price_envy_free

    def spy(instance, prices):
        tested.append(prices.prices)
        return check(instance, prices)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibrium, "is_price_envy_free", spy)
        points = minimal_envy_free(inst, bound, step)
    return [p.prices for p in points], tested


def _assert_inside_caps(tested, caps, step):
    """No tested price lies above its item's cap level."""
    for prices in tested:
        assert all(price <= cap * step for price, cap in zip(prices, caps))


# Halves and thirds share 0, 1, 2 and 3, so values and prices often tie.
HALVES_AND_THIRDS = st.one_of(st.integers(0, 6).map(lambda k: F(k, 2)),
                              st.integers(0, 9).map(lambda k: F(k, 3)))


@st.composite
def _unit_demand_at_prices(draw):
    """Up to five unit-demand bidders (possibly none) on up to five items,
    and prices, all in halves and thirds."""
    m = draw(st.integers(1, 5))
    bidders = tuple(
        UnitDemand(tuple(draw(st.lists(HALVES_AND_THIRDS, min_size=m,
                                       max_size=m))))
        for _ in range(draw(st.integers(0, 5))))
    prices = PriceVector(tuple(draw(st.lists(HALVES_AND_THIRDS, min_size=m,
                                             max_size=m))))
    return Instance(m, bidders), prices


# Three levels only, so that many sets share the top utility.
LEVELS = st.integers(0, 2).map(lambda k: F(k, 2))


@st.composite
def _search_cases(draw):
    """Up to four Explicit, BudgetAdditive and Additive bidders on up to
    five items with values on three levels, prices in halves and thirds,
    and a cap that is sometimes below a bidder's count of demand sets."""
    m = draw(st.integers(1, 5))
    bidders = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from((Explicit, BudgetAdditive, Additive)))
        if kind is Explicit:
            rest = draw(st.lists(LEVELS, min_size=2 ** m - 1,
                                 max_size=2 ** m - 1))
            bidders.append(Explicit(m, (F(0),) + tuple(rest)))
            continue
        values = tuple(draw(st.lists(LEVELS, min_size=m, max_size=m)))
        bidders.append(BudgetAdditive(values, draw(LEVELS))
                       if kind is BudgetAdditive else Additive(values))
    prices = PriceVector(tuple(draw(st.lists(HALVES_AND_THIRDS, min_size=m,
                                             max_size=m))))
    cap = draw(st.sampled_from((1, 3, 8, LIMITS["demand sets"])))
    return Instance(m, tuple(bidders)), prices, cap


def _both_routes(inst, prices, cap):
    """The mask search's and the ItemSet search's reports, or the type,
    message and fields of the refusal each raised."""
    answers = []
    for search in (envy_free_allocation,
                   reference.itemset_envy_free_allocation):
        try:
            answers.append(search(inst, prices, cap))
        except DemandCapExceededError as exc:
            answers.append((type(exc), str(exc), exc.count, exc.cap))
    return answers


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


class TestMaskSearch:
    """envy_free_allocation backtracks on masks; the ItemSet search it
    replaced is kept in tests/reference.py, and the two must give the same
    verdict, allocation, witness and node count, or the same refusal."""

    @given(_search_cases())
    @settings(max_examples=300, deadline=None)
    def test_report_matches_itemset_search(self, case):
        masks, itemsets = _both_routes(*case)
        assert masks == itemsets

    def test_cases_reach_every_outcome(self):
        """The same comparison on a fixed sample that holds refusals,
        allocations and exhaustion proofs, some of them many nodes deep."""
        rng = random.Random(34)
        seen = set()
        for _ in range(200):
            m, n = rng.randint(1, 5), rng.randint(1, 4)
            bidders = tuple(
                Explicit(m, (F(0),) + tuple(F(rng.randint(0, 2), 2)
                                            for _ in range(2 ** m - 1)))
                for _ in range(n))
            prices = PriceVector(tuple(F(rng.randint(0, 2), 3)
                                       for _ in range(m)))
            cap = rng.choice((3, LIMITS["demand sets"]))
            masks, itemsets = _both_routes(Instance(m, bidders), prices, cap)
            assert masks == itemsets
            if isinstance(masks, tuple):
                seen.add("refused")
            else:
                seen.add(masks.envy_free)
                if masks.nodes_explored > 20:
                    seen.add("deep")
        assert seen == {"refused", True, False, "deep"}

    def test_refusal_names_the_count_and_cap(self, mp1_pair_instance):
        masks, itemsets = _both_routes(mp1_pair_instance, PriceVector.zero(8), 4)
        assert masks == itemsets == (DemandCapExceededError,
                                     "8 demand sets exceed the cap of 4", 8, 4)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_is_refused(self, mp1_pair_instance, cap):
        with pytest.raises(ValueError, match=f"cap must be at least 1, got {cap}"):
            envy_free_allocation(mp1_pair_instance, PriceVector.zero(8), cap)


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


class TestDecisionRoute:
    """On all-unit-demand instances `is_price_envy_free` decides by the
    matching alone; the witness route and the backtracking search must
    reach the same answer."""

    @given(_unit_demand_at_prices())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_witness_route_and_search(self, case):
        inst, prices = case
        decided = is_price_envy_free(inst, prices)
        assert decided == isinstance(unit_demand_envy_free(inst, prices),
                                     Allocation)
        assert decided == envy_free_allocation(inst, prices).envy_free

    def test_grid_scan_builds_no_witness(self, monkeypatch):
        calls = []
        route = equilibrium.unit_demand_envy_free

        def spy(instance, prices):
            calls.append(prices)
            return route(instance, prices)

        inst = gen_unit_demand(3, 3, (0, 5), seed=8)
        monkeypatch.setattr(equilibrium, "unit_demand_envy_free", spy)
        points = minimal_envy_free(inst, F(5), F(1))
        assert points
        assert calls == []


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
            points = minimal_envy_free(inst, F(3), step)
            assert [p.prices for p in points] == \
                reference.naive_minimal_envy_free(inst, F(3), step)

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
            points = minimal_envy_free(inst, F(3), step)
            assert [p.prices for p in points] == \
                reference.naive_minimal_envy_free(inst, F(3), step)

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
        points = minimal_envy_free(inst, bound, step)
        assert [p.prices for p in points] == \
            reference.naive_minimal_envy_free(inst, bound, step)

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

    @given(_unit_or_explicit_grid(), st.sampled_from((F(1), F(1, 2), F(2, 3))))
    @settings(max_examples=60, deadline=None)
    def test_matches_unpruned_fraction_scan(self, case, step):
        """The integer walk returns the list the unpruned Fraction scan of
        tests/reference.py returns, in the same order."""
        inst, bound = case
        points = minimal_envy_free(inst, bound, step)
        assert [p.prices for p in points] == \
            reference.naive_minimal_envy_free(inst, bound, step)
        for p in points:
            fresh = PriceVector(p.prices)
            assert p == fresh and hash(p) == hash(fresh)
            assert (p.nums, p.denom) == (fresh.nums, fresh.denom)

    @pytest.mark.parametrize("inst", [
        gen_unit_demand(3, 3, (0, 5), seed=8),
        Instance(3, _item_seekers()),
    ], ids=["unit-demand", "explicit"])
    def test_no_price_vector_for_a_pruned_point(self, monkeypatch, inst):
        built = []
        make = PriceVector.from_scaled

        def spy(cls, nums, denom):
            built.append(make(nums, denom))
            return built[-1]

        monkeypatch.setattr(PriceVector, "from_scaled", classmethod(spy))
        step, bound = F(1, 2), F(5)
        points = minimal_envy_free(inst, bound, step)
        caps = reference.naive_grid_caps(inst, bound, step)
        box = [tuple(step * k for k in point)
               for point in itertools.product(*(range(c + 1) for c in caps))]
        pruned = {t for t in box
                  if any(q.prices != t and all(map(operator.le, q.prices, t))
                         for q in points)}
        assert points and pruned
        assert [p.prices for p in built] == [t for t in box if t not in pruned]

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


class TestGridBox:
    """The scan walks only the box of levels up to each item's largest
    marginal value.  tests/reference.py gives both second routes: the
    unpruned, uncapped Fraction scan for the points, and every marginal
    over every set for the caps."""

    @given(_complementary_grid())
    @settings(max_examples=40, deadline=None)
    def test_marginals_above_the_single_values(self, case):
        inst, bound, step = case
        caps = reference.naive_grid_caps(inst, bound, step)
        points, tested = _scan(inst, bound, step)
        assert points == reference.naive_minimal_envy_free(inst, bound, step)
        _assert_inside_caps(tested, caps, step)
        first = inst.bidders[0]
        singles = [eval_valuation(first, ItemSet([j]))
                   for j in range(1, inst.num_items + 1)]
        assert equilibrium._largest_marginals(first, singles)[1] > singles[1]

    @pytest.mark.parametrize("bound, step, caps", [
        (F(2), F(1), [2, 2]),
        (F(5, 2), F(1, 2), [5, 5]),
        (F(10), F(1), [9, 9]),
    ])
    def test_caps_clip_at_the_top_level(self, bound, step, caps):
        """Two bidders value the two items together at 10 and each alone
        at 1, so each item's largest marginal is 9; below a bound of 9 its
        cap is the top level.  Below a total price of 10 both demand only
        the pair, so the scan tests points up to the cap."""
        bidder = Explicit(2, (F(0), F(1), F(1), F(10)))
        inst = Instance(2, (bidder, bidder))
        assert reference.naive_grid_caps(inst, bound, step) == caps
        points, tested = _scan(inst, bound, step)
        assert points == reference.naive_minimal_envy_free(inst, bound, step)
        _assert_inside_caps(tested, caps, step)
        assert max(max(prices) for prices in tested) == min(bound, F(9))

    @given(_unwanted_item_grid())
    @settings(max_examples=40, deadline=None)
    def test_an_item_no_bidder_gains_from_has_cap_zero(self, case):
        inst, j, bound, step = case
        caps = reference.naive_grid_caps(inst, bound, step)
        assert caps[j - 1] == 0
        points, tested = _scan(inst, bound, step)
        assert points == reference.naive_minimal_envy_free(inst, bound, step)
        _assert_inside_caps(tested, caps, step)
        assert all(prices[j - 1] == 0 for prices in tested)

    @pytest.mark.parametrize("inst, bound", [
        (gen_unit_demand(3, 4, (0, 5), seed=8), F(5)),
        (gen_multipeak(4, 2, 2, F(1, 2), 2, seed=1), F(2)),
        (Instance(3, _item_seekers()), F(4)),
        (Instance(2, (UnitDemand((F(3), F(1))),
                      BudgetAdditive((F(2), F(2)), F(3)),
                      Additive((F(1), F(0))))), F(3)),
    ], ids=["unit-demand", "multi-peak", "explicit", "item-values"])
    def test_no_tested_price_above_its_cap(self, inst, bound):
        for step in (F(1), F(1, 2)):
            caps = reference.naive_grid_caps(inst, bound, step)
            points, tested = _scan(inst, bound, step)
            assert points and tested
            _assert_inside_caps(tested, caps, step)

    def test_largest_marginals_match_every_set(self):
        """The closed form for the item-value classes and the table route
        for the rest, against every marginal; a table too large for int64
        is read as exact Python integers."""
        huge = F(1 << 62)
        bidders = [
            UnitDemand((F(3), F(1, 2), F(2))),
            Additive((F(1), F(0), F(5, 3))),
            BudgetAdditive((F(2), F(2), F(1)), F(3)),
            Explicit(3, (F(0), F(1), F(2), F(7), F(0), F(4), F(1), F(3))),
            Explicit(3, (F(0), huge, F(1), huge + 3, F(0), F(1), huge, huge * 2)),
            gen_multipeak(3, 1, 2, F(1, 2), 1, seed=2).bidders[0],
        ]
        for v in bidders:
            singles = [eval_valuation(v, ItemSet([j])) for j in (1, 2, 3)]
            expected = [max(eval_valuation(v, bundle.add(j)) - eval_valuation(v, bundle)
                            for bundle in reference.all_subsets(3)
                            if j not in bundle)
                        for j in (1, 2, 3)]
            assert equilibrium._largest_marginals(v, singles) == expected

    def test_no_value_table_for_unit_demand_bidders(self):
        inst = gen_unit_demand(3, 4, (0, 5), seed=8)
        assert minimal_envy_free(inst, F(5), F(1))
        assert not any(hasattr(v, "_value_table") for v in inst.bidders)

    def test_multipeak_m6_tests_at_most_64_points(self):
        """The two-bidder m=6 multi-peak grid at bound 6: the full grid
        holds 7**6 points and the box far fewer."""
        inst = gen_multipeak(6, 3, 2, F(1, 2), 2, seed=0)
        points, tested = _scan(inst, F(6), F(1))
        assert points
        assert len(tested) <= 64


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
