"""The planted tables of tools/scan_sizes.py put their first violating pair
where the tool's labels say, for the scan's current rows per group."""

import importlib.util
from pathlib import Path

from auctionkit import ItemSet
from auctionkit import valuations
from auctionkit.valuations import submodular_by_definition

from reference import row_scan_submodular

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "scan_sizes.py"
spec = importlib.util.spec_from_file_location("scan_sizes", SCRIPT)
scan_sizes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scan_sizes)


def test_group_one_exit_stops_at_row_0_of_group_1():
    m = 8
    r = min(m, valuations._ROW_BITS)
    v = scan_sizes.group_one_exit(m)
    report = submodular_by_definition(v)
    assert report.counterexample == (ItemSet([r + 1]), ItemSet([r + 2]))
    assert row_scan_submodular(v) == report


def test_pair_exit_at_item_1_stops_at_row_1_of_group_0():
    v = scan_sizes.pair_exit(8, 1)
    report = submodular_by_definition(v)
    assert report.counterexample == (ItemSet([1]), ItemSet([2]))
    assert row_scan_submodular(v) == report


def test_last_pair_is_the_last_pair_scanned():
    m = 8
    full = ItemSet(range(1, m + 1))
    v = scan_sizes.last_pair(m)
    report = submodular_by_definition(v)
    assert report.counterexample == (full - ItemSet([2]), full - ItemSet([1]))
    assert row_scan_submodular(v) == report
