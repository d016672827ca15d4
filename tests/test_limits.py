"""The one table of size limits: every refusal reads it, and no other module
holds a limit of its own."""

import ast
import inspect
import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from auctionkit import (Additive, Explicit, Instance, PriceVector, UnitDemand,
                        brute_force_demand, check_monotone, check_submodular,
                        decode_instance, demand_sets, envy_free_allocation,
                        minimal_envy_free, valuations)
from auctionkit.cli import build_parser
from auctionkit.errors import GridTooLargeError, GroundSetTooLargeError
from auctionkit.valuations import LIMITS, value_table

# Each item entry of LIMITS, and a call at m=3 of the routine it bounds.
ITEM_ROUTINES = {
    "value_table": value_table,
    "an explicit table": lambda v: Explicit(3, [0] * 8),
    "check_monotone": check_monotone,
    "check_submodular": check_submodular,
    "brute-force demand": lambda v: brute_force_demand(v, PriceVector.zero(3)),
    "demand-set enumeration": lambda v: demand_sets(v, PriceVector.zero(3), 8),
    "grid search": lambda v: minimal_envy_free(Instance(3, (v,)), F(6), F(1)),
}
COUNTS = {"grid points", "demand sets", "generation retries"}


def test_every_entry_is_an_item_limit_or_a_count():
    assert set(LIMITS) == set(ITEM_ROUTINES) | COUNTS


@pytest.mark.parametrize("what", sorted(ITEM_ROUTINES))
def test_each_routine_reads_its_entry_when_called(monkeypatch, what):
    monkeypatch.setitem(LIMITS, what, 2)
    with pytest.raises(GroundSetTooLargeError) as info:
        ITEM_ROUTINES[what](Additive((F(1), F(2), F(3))))
    assert str(info.value) == f"{what} is limited to 2 items, got 3"


def test_decoding_reads_the_explicit_table_entry(monkeypatch):
    monkeypatch.setitem(LIMITS, "an explicit table", 2)
    doc = {"m": 3, "bidders": [{"type": "explicit", "table": {}}]}
    with pytest.raises(GroundSetTooLargeError) as info:
        decode_instance(json.dumps(doc))
    assert str(info.value) == (
        "bidders[0].table: explicit tables are limited to 2 items, got m=3")


def test_the_grid_reads_its_point_count(monkeypatch):
    monkeypatch.setitem(LIMITS, "grid points", 6)
    instance = Instance(1, (UnitDemand((F(3),)),))
    with pytest.raises(GridTooLargeError) as info:
        minimal_envy_free(instance, F(6), F(1))
    assert str(info.value) == "7 grid points exceed the safety limit of 6"
    monkeypatch.setitem(LIMITS, "grid points", 7)
    assert len(minimal_envy_free(instance, F(6), F(1))) == 1


def test_demand_set_cap_defaults_to_its_entry():
    assert LIMITS["demand sets"] == 4096
    default = inspect.signature(envy_free_allocation).parameters["cap"].default
    assert default == 4096
    assert build_parser().parse_args(["envyfree", "i", "p"]).cap == 4096


def _numeric(node) -> bool:
    """Whether an expression is built from integer literals alone."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    if isinstance(node, ast.UnaryOp):
        return _numeric(node.operand)
    if isinstance(node, ast.BinOp):
        return _numeric(node.left) and _numeric(node.right)
    return False


def test_only_valuations_binds_a_size_limit():
    """Outside valuations.py, no module-level name is bound to an integer
    literal or named like a limit."""
    package = Path(valuations.__file__).parent
    limit_name = re.compile(r"MAX|LIMIT|CAP|RETRIES|BUDGET", re.IGNORECASE)
    binders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if _numeric(value) or any(map(limit_name.search, names)):
                binders += [(path.name, name) for name in names]
    assert {path for path, _ in binders} <= {"valuations.py"}, binders
    assert ("valuations.py", "LIMITS") in binders
