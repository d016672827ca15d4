"""Exact-arithmetic toolkit for combinatorial auctions with submodular bidders.

Valuation classes and structural validators, demand oracles (exhaustive
reference plus closed forms and the polynomial multi-peak construction),
envy-free and minimal-envy-free price analysis, and an ascending-auction
engine with pluggable price-update rules.  Everything computes over exact
rationals and is verified against brute-force enumeration at desk scale.
"""

__version__ = "0.1.0"

from .itemsets import EMPTY_SET, ItemSet
from .valuations import (
    Additive,
    BudgetAdditive,
    Explicit,
    MultiPeak,
    SetSystem,
    UnitDemand,
    Valuation,
    check_monotone,
    check_submodular,
    eps_close,
    eval_valuation,
    find_close_peak,
    validate_set_system,
)
from .demand import (
    DemandResult,
    PriceVector,
    additive_demand,
    algorithm_peak,
    algorithm_zero,
    brute_force_demand,
    budget_additive_demand,
    demand_oracle,
    demand_sets,
    multipeak_demand,
    unit_demand_demand,
    utility,
)
from .equilibrium import (
    Allocation,
    EnvyFreeReport,
    Witness,
    envy_free_allocation,
    is_price_envy_free,
    is_walrasian,
    minimal_envy_free,
    unit_demand_envy_free,
)
from .auctions import (
    AuctionTrace,
    Certify,
    Raise,
    Stall,
    dgs_rule,
    english_additive_rule,
    greedy_submodular_rule,
    run_ascending,
)
from .instances import (
    Instance,
    decode_instance,
    dump_prices,
    encode_instance,
    gen_additive,
    gen_budget_additive,
    gen_multipeak,
    gen_unit_demand,
    load_prices,
    serialize_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
