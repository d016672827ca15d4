"""The paired-run summary of tools/bench_pairs.py: quartiles, pairs won,
and the bound and spread tests, on hand-made reports."""

import argparse
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

CONTRACT = [
    {"name": "tasks_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mib", "better": "lower", "bound": 0.1},
]


def _report(rate, rss, passes, digest="d1"):
    return {"metrics": {"tasks_per_s": {"value": rate, "unit": "1/s"},
                        "peak_rss_mib": {"value": rss, "unit": "MiB"}},
            "meta": {"passes": passes, "results_sha256": digest, "failed": 0}}


def _side(rates, rss):
    return bench_pairs.summarise_side(
        [_report(r, m, 10) for r, m in zip(rates, rss)],
        ["tasks_per_s", "peak_rss_mib"])


def test_spread_is_inclusive_quartiles():
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == \
        {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_summary_keeps_every_run_and_digest():
    side = bench_pairs.summarise_side(
        [_report(10, 40, 3), _report(12, 41, 4, digest="d2")],
        ["tasks_per_s", "peak_rss_mib"])
    assert side["metrics"]["tasks_per_s"]["runs"] == [10, 12]
    assert side["metrics"]["tasks_per_s"]["unit"] == "1/s"
    assert side["passes"] == [3, 4]
    assert side["results_sha256"] == ["d1", "d2"]


def test_compare_counts_pairs_and_checks_bounds():
    parent = _side([100, 102, 98, 101], [40, 40, 40, 40])
    change = _side([130, 99, 131, 129], [45, 45, 45, 45])
    result = bench_pairs.compare(parent, change, CONTRACT)
    assert result["pairs"] == 4
    assert result["pairs_won_by_change"] == {"tasks_per_s": 3, "peak_rss_mib": 0}
    assert result["no_regression_check"]["tasks_per_s"] == "within bound"
    assert result["no_regression_check"]["peak_rss_mib"].startswith("worse by 12.5%")
    assert result["median_gain_exceeds_parent_iqr"] == \
        {"tasks_per_s": True, "peak_rss_mib": False}
    assert result["median_change_pct"]["peak_rss_mib"] == 12.5


def test_a_gain_inside_the_parent_spread_does_not_count():
    parent = _side([90, 100, 110, 120], [40] * 4)
    change = _side([101, 106, 111, 121], [40] * 4)
    result = bench_pairs.compare(parent, change, CONTRACT)
    assert result["pairs_won_by_change"]["tasks_per_s"] == 4
    assert not result["median_gain_exceeds_parent_iqr"]["tasks_per_s"]


def test_a_claim_needs_nine_in_ten_pairs_and_a_gain_past_the_spread():
    parent = _side([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [40] * 10)
    # Nine wins of ten and a median far past the parent's spread.
    nine = _side([120, 121, 119, 120, 99, 121, 120, 119, 122, 120], [40] * 10)
    # Eight wins of ten: too few, however large the gain.
    eight = _side([120, 121, 119, 120, 99, 97, 120, 119, 122, 120], [40] * 10)
    # Ten wins of ten, but inside the parent's spread.
    close = _side([101, 102, 100, 101, 103, 99, 101, 102, 100, 101], [40] * 10)
    verdicts = [bench_pairs.compare(parent, side, CONTRACT)["claim_rule_met"]
                for side in (nine, eight, close)]
    assert [v["tasks_per_s"] for v in verdicts] == [True, False, False]
    assert [v["peak_rss_mib"] for v in verdicts] == [False] * 3
    three = bench_pairs.compare(_side([10, 11, 12], [40] * 3),
                                _side([20, 21, 22], [39] * 3), CONTRACT)
    assert three["claim_rule_met"] == {"tasks_per_s": True, "peak_rss_mib": True}


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = _side([60, 100, 140, 180], [40] * 4)
    change = _side([70, 100, 150, 170], [40] * 4)
    result = bench_pairs.compare(parent, change, CONTRACT)
    assert result["no_regression_check"]["tasks_per_s"].startswith("unresolved")
    clear = bench_pairs.compare(parent, _side([190, 200, 210, 220], [40] * 4),
                                CONTRACT)
    assert clear["no_regression_check"]["tasks_per_s"] == "within bound"


def _side_with_passes(rss, passes):
    return bench_pairs.summarise_side(
        [_report(100, m, k) for m, k in zip(rss, passes)],
        ["tasks_per_s", "peak_rss_mib"])


def test_rss_is_put_beside_the_pass_count():
    parent = _side_with_passes([42.0, 42.2, 42.1], [16, 18, 17])
    change = _side_with_passes([43.9, 43.8, 44.0], [27, 29, 28])
    result = bench_pairs.rss_by_passes(parent, change)
    assert result["parent"] == {"median_passes": 17, "peak_rss_mib": 42.1}
    assert result["change"] == {"median_passes": 28, "peak_rss_mib": 43.9}
    assert result["extra_passes"] == 11
    assert result["mib_per_extra_pass"] == round(1.8 / 11, 4)


def test_rss_per_pass_needs_a_difference_in_passes():
    equal = bench_pairs.rss_by_passes(_side_with_passes([40, 41], [10, 12]),
                                      _side_with_passes([45, 46], [11, 11]))
    assert equal["extra_passes"] == 0
    assert equal["mib_per_extra_pass"] is None
    fewer = bench_pairs.rss_by_passes(_side_with_passes([40], [20]),
                                      _side_with_passes([39], [10]))
    assert fewer["mib_per_extra_pass"] == 0.1
    unknown = bench_pairs.rss_by_passes(_side_with_passes([40], [None]),
                                        _side_with_passes([41], [10]))
    assert unknown["parent"]["median_passes"] is None
    assert unknown["extra_passes"] is None
    assert unknown["mib_per_extra_pass"] is None


def test_rss_fit_separates_program_memory_from_records_per_pass():
    parent = _side_with_passes([40.5, 41.0, 42.0], [10, 12, 16])
    change = _side_with_passes([41.5, 43.0, 44.5], [20, 30, 40])
    fit = bench_pairs.rss_by_passes(parent, change)["fit"]
    assert fit["parent"] == {"intercept_mib": 38.0, "mib_per_pass": 0.25}
    assert fit["change"] == {"intercept_mib": 38.5, "mib_per_pass": 0.15}
    assert bench_pairs.rss_fit([7, 8], [40.0, 40.1]) == (39.3, 0.1)


def test_rss_fit_needs_two_pass_counts_on_a_side():
    fit = bench_pairs.rss_by_passes(_side_with_passes([40, 41], [12, 12]),
                                    _side_with_passes([45, 46], [11, None]))["fit"]
    assert fit["parent"] == {"intercept_mib": None, "mib_per_pass": None}
    assert fit["change"] == {"intercept_mib": None, "mib_per_pass": None}
    assert bench_pairs.rss_fit([9], [40.0]) == (None, None)


def _digests(*digests):
    return bench_pairs.summarise_side([_report(100, 40, 10, d) for d in digests],
                                      ["tasks_per_s"])


def test_outputs_equal_needs_one_digest_on_both_sides():
    assert bench_pairs.outputs_equal(_digests("d1", "d1"), _digests("d1", "d1", "d1"))
    assert not bench_pairs.outputs_equal(_digests("d1", "d1"), _digests("d2", "d2"))
    assert not bench_pairs.outputs_equal(_digests("d1", "d1"), _digests("d1", "d2"))
    assert not bench_pairs.outputs_equal(_digests("d1", "d2"), _digests("d1", "d1"))
    assert not bench_pairs.outputs_equal(_digests("d1", "d2"), _digests("d1", "d2"))


def test_plan_cells_parse():
    assert bench_pairs.parse_plan("ud_grid:1:3") == ("ud_grid", 1, 3)
    with pytest.raises(argparse.ArgumentTypeError, match="WORKLOAD:SEED:PAIRS"):
        bench_pairs.parse_plan("ud_grid:1")


def test_src_lines_counts_python_files_under_src(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree, body in ((parent, "a = 1\nb = 2\nc = 3\n"), (change, "a = 1\n")):
        (tree / "src" / "pkg" / "sub").mkdir(parents=True)
        (tree / "src" / "pkg" / "__init__.py").write_text("")
        (tree / "src" / "pkg" / "core.py").write_text(body)
        (tree / "src" / "pkg" / "sub" / "deep.py").write_text("x = 0\ny = 1\n")
        (tree / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
        (tree / "tests").mkdir()
        (tree / "tests" / "test_core.py").write_text("assert True\n")
    assert bench_pairs.src_lines(parent) == 5
    assert bench_pairs.src_lines(change) == 3


def test_rss_fit_stderr_of_a_known_line_with_residuals():
    # 38 MiB + 0.15 MiB per pass, plus residuals orthogonal to the line, so
    # the fit recovers it exactly; s^2 = 0.04 / 2 and Sxx = 500 about 25.
    passes = [10, 20, 30, 40]
    rss = [38 + 0.15 * k + r for k, r in zip(passes, [0.1, -0.1, -0.1, 0.1])]
    assert bench_pairs.rss_fit(passes, rss) == (38.0, 0.15)
    assert bench_pairs.rss_fit_stderr(passes, rss) == \
        (round(0.03 ** 0.5, 4), round(4e-5 ** 0.5, 4))
    exact = [38 + 0.15 * k for k in passes]
    assert bench_pairs.rss_fit_stderr(passes, exact) == (0.0, 0.0)


def test_rss_fit_stderr_needs_three_runs_and_two_pass_counts():
    assert bench_pairs.rss_fit_stderr([7, 8], [40.0, 40.1]) == (None, None)
    assert bench_pairs.rss_fit_stderr([9, 9, 9], [40.0, 40.1, 40.2]) == (None, None)
    assert bench_pairs.rss_fit_stderr([7, 8, None], [40.0, 40.1, 40.2]) == \
        (None, None)
    result = bench_pairs.rss_by_passes(
        _side_with_passes([40.5, 41.0, 42.0], [10, 12, 16]),
        _side_with_passes([41.5, 43.0], [20, 30]))
    assert result["fit_stderr"]["parent"] == {"intercept_mib": 0.0,
                                              "mib_per_pass": 0.0}
    assert result["fit_stderr"]["change"] == {"intercept_mib": None,
                                              "mib_per_pass": None}


def test_lay_harness_replaces_the_checkouts_own_harness(tmp_path):
    harness = tmp_path / "harness"
    (harness / "perfbench" / "tests").mkdir(parents=True)
    (harness / "perfbench" / "run.py").write_text("harness run\n")
    (harness / "perfbench" / "tests" / "test_run.py").write_text("harness test\n")
    (harness / "BENCHMARK.json").write_text('{"run_seconds": 40}\n')
    for side, own in (("parent", "old run\n"), ("change", "new run\n")):
        checkout = tmp_path / side
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text(own)
        (checkout / "perfbench" / "gone.py").write_text("only in the checkout\n")
        (checkout / "BENCHMARK.json").write_text('{"run_seconds": 5}\n')
        (checkout / "src").mkdir()
        (checkout / "src" / "code.py").write_text(own)
        bench_pairs.lay_harness(harness, checkout)
        assert (checkout / "perfbench" / "run.py").read_text() == "harness run\n"
        assert (checkout / "perfbench" / "tests" / "test_run.py").exists()
        assert not (checkout / "perfbench" / "gone.py").exists()
        assert (checkout / "BENCHMARK.json").read_text() == '{"run_seconds": 40}\n'
        assert (checkout / "src" / "code.py").read_text() == own
    assert (harness / "perfbench" / "run.py").read_text() == "harness run\n"
