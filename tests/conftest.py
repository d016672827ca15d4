import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from auctionkit import Instance, ItemSet, MultiPeak, SetSystem, UnitDemand
from auctionkit import demand

DATA_DIR = Path(__file__).parent / "data"


def count_price_tables(monkeypatch):
    """The prices of every demand._price_table call from here on."""
    calls = []
    build = demand._price_table

    def counted(prices):
        calls.append(prices)
        return build(prices)

    monkeypatch.setattr(demand, "_price_table", counted)
    return calls


@pytest.fixture(scope="session")
def mp1():
    """The running example: m=8, s=4, k=2, eps=1/2, peaks {1..4} and {5..8}."""
    system = SetSystem((ItemSet([1, 2, 3, 4]), ItemSet([5, 6, 7, 8])),
                       4, Fraction(1, 2))
    return MultiPeak(system, 8)


@pytest.fixture(scope="session")
def mp1_pair_instance(mp1):
    """Two identical multi-peak bidders; the non-envy-free showcase."""
    return Instance(8, (mp1, mp1))


@pytest.fixture(scope="session")
def single_item_3_5():
    """One item, two unit-demand bidders valuing it at 3 and 5."""
    return Instance(1, (UnitDemand((Fraction(3),)), UnitDemand((Fraction(5),))))
