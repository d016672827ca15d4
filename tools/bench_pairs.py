"""Run the benchmark on two commits in alternating pairs and summarise them.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json \\
        [--plan WORKLOAD:SEED:PAIRS ...] [--scratch DIR] [--harness COMMIT]

Each commit is checked out from local git history (`git archive`, so only
committed files) into its own directory under the scratch directory, and
`perfbench/run.py` runs from there for the `run_seconds` that
`BENCHMARK.json` sets.  Every plan cell runs PAIRS pairs; the parent goes
first in even pairs and the change first in odd ones, and pair k
of every cell runs before pair k+1 of any.  Each run's report file is copied
as soon as the run ends, before the next run of the same workload and seed
replaces it, so the pass count and results digest of every run are kept.
With --harness COMMIT, that commit's `perfbench/` and `BENCHMARK.json`
replace both checkouts' own before any run, so both sides run one harness
and only the code it measures differs; the output records the commit as
`harness`.
Each cell's workload and seed then gets one traced run per side, and the
count metrics of both sides are recorded side by side.

The output holds, per cell and side, every run's end-to-end metrics,
passes and digest, their medians and quartiles (inclusive method), the
pairs the change won, and per metric whether a claimed gain would hold.
Beside them, each side's median pass count and median peak_rss_mib, with
the RSS difference per extra pass and each side's least-squares line of
peak_rss_mib against passes, with the standard errors of its intercept
and slope and a 95% t-interval for each, since the harness's own records
grow with the pass count, and
`outputs_equal`: whether every run of both sides reported one and the same
results digest.  Each side's `src_lines`, the newline count of its
`src/**/*.py` as `wc -l` gives it, records the size of the code measured.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
DEFAULT_PAIRS = 10
RUN_TIMEOUT_S = 900
# What --harness lays over both checkouts: the benchmark's code and contract.
HARNESS = ("perfbench", "BENCHMARK.json")


def rev_parse(commit: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
                          cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def check_out(commit: str, directory: Path, paths=()) -> None:
    """The committed files of `commit`, or only those under `paths`,
    extracted into `directory`."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit, *paths],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")


def lay_harness(harness: Path, checkout: Path) -> None:
    """Replace `checkout`'s perfbench/ and BENCHMARK.json by `harness`'s, so
    no file of the checkout's own harness is left behind."""
    shutil.rmtree(checkout / "perfbench", ignore_errors=True)
    shutil.copytree(harness / "perfbench", checkout / "perfbench")
    shutil.copyfile(harness / "BENCHMARK.json", checkout / "BENCHMARK.json")


def src_lines(checkout: Path) -> int:
    """The lines of every src/**/*.py file in `checkout`, counted as wc -l
    counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in checkout.glob("src/**/*.py"))


def parse_plan(text: str) -> tuple[str, int, int]:
    try:
        workload, seed, pairs = text.split(":")
        return workload, int(seed), int(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD:SEED:PAIRS, got {text!r}") from None


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int, keep: Path) -> dict:
    """One run of perfbench/run.py in `checkout`; its report, copied to `keep`."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=RUN_TIMEOUT_S)
    report_path = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    if not report_path.exists():
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited "
                           f"{proc.returncode} without a report:\n{proc.stdout[-2000:]}")
    keep.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(report_path, keep)
    report = json.loads(keep.read_text())
    report_path.unlink()
    return report


def spread(values: list[float]) -> dict:
    """Median and inclusive quartiles; one value is its own quartiles."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise_side(reports: list[dict], names: list[str]) -> dict:
    metrics = {}
    for name in names:
        runs = [report["metrics"][name]["value"] for report in reports]
        metrics[name] = {**spread(runs), "unit": reports[0]["metrics"][name]["unit"],
                         "runs": runs}
    return {"metrics": metrics,
            "results_sha256": sorted({r["meta"]["results_sha256"] for r in reports}),
            "passes": [r["meta"].get("passes") for r in reports],
            "failed": sum(r["meta"]["failed"] for r in reports)}


def outputs_equal(parent: dict, change: dict) -> bool:
    """Whether every run of both sides reported one and the same
    results_sha256."""
    digests = parent["results_sha256"]
    return len(digests) == 1 and change["results_sha256"] == digests


def compare(parent: dict, change: dict, contract: list[dict]) -> dict:
    """Pairs won, median change, and each metric against its bound.

    A pair is won when the change's run is strictly better than the
    parent's run of the same pair.  A metric regresses when the change's
    median is worse than the parent's by more than its bound, relative to
    the parent's median; it is unresolved when the parent's interquartile
    range, relative to its median, is wider than the bound and not every
    run of the change beats every run of the parent.  The gain test asks
    that the change's median beat the parent's by more than the parent's
    interquartile range.  A claimed gain holds on a metric when the change
    won at least nine in ten of its pairs and passed the gain test.
    """
    won, change_pct, regression, beats_spread, claim = {}, {}, {}, {}, {}
    for entry in contract:
        name, higher = entry["name"], entry["better"] == "higher"
        if name not in parent["metrics"]:
            continue
        before, after = parent["metrics"][name], change["metrics"][name]
        sign = 1 if higher else -1
        pairs = list(zip(before["runs"], after["runs"]))
        won[name] = sum(sign * (b - a) > 0 for a, b in pairs)
        gain = sign * (after["median"] - before["median"])
        base = before["median"]
        change_pct[name] = round((after["median"] / base - 1) * 100, 2) if base else 0.0
        worse = -gain / abs(base) if base else 0.0
        iqr = before["q3"] - before["q1"]
        all_better = min(sign * b for b in after["runs"]) > \
            max(sign * a for a in before["runs"])
        if worse > entry["bound"]:
            regression[name] = f"worse by {worse:.1%}, over the {entry['bound']:.1%} bound"
        elif base and iqr / abs(base) > entry["bound"] and not all_better:
            regression[name] = "unresolved: the parent's spread is wider than the bound"
        else:
            regression[name] = "within bound"
        beats_spread[name] = gain > iqr
        claim[name] = 10 * won[name] >= 9 * len(pairs) and beats_spread[name]
    return {"pairs": min(len(parent["passes"]), len(change["passes"])),
            "pairs_won_by_change": won, "median_change_pct": change_pct,
            "no_regression_check": regression,
            "median_gain_exceeds_parent_iqr": beats_spread,
            "claim_rule_met": claim}


def rss_fit(passes: list, rss: list[float]) -> tuple:
    """(intercept, slope) of peak_rss_mib = intercept + slope * passes, by
    least squares over one side's runs; (None, None) when a run has no pass
    count or every run made the same number of passes."""
    if None in passes or len(set(passes)) < 2:
        return None, None
    slope, intercept = statistics.linear_regression(passes, rss)
    return round(intercept, 4), round(slope, 4)


def rss_fit_stderr(passes: list, rss: list[float]) -> tuple:
    """(standard error of the intercept, of the slope) of rss_fit's line,
    from its residuals over n - 2 degrees of freedom; (None, None) when the
    side has fewer than three runs, a run has no pass count, or every run
    made the same number of passes."""
    if len(passes) < 3 or None in passes or len(set(passes)) < 2:
        return None, None
    n = len(passes)
    slope, intercept = statistics.linear_regression(passes, rss)
    residual = sum((y - intercept - slope * x) ** 2
                   for x, y in zip(passes, rss)) / (n - 2)
    mean = statistics.fmean(passes)
    sxx = sum((x - mean) ** 2 for x in passes)
    return (round((residual * (1 / n + mean * mean / sxx)) ** 0.5, 4),
            round((residual / sxx) ** 0.5, 4))


# Student's t_{0.975, df} for df = 1..30, to three decimals; past 30 the
# normal quantile stands in.
T_975 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
         2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
         2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
         2.048, 2.045, 2.042)


def t_975(df: int) -> float:
    """The two-sided 95% critical value of Student's t with df >= 1
    degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be at least 1, got {df}")
    if df <= len(T_975):
        return T_975[df - 1]
    return statistics.NormalDist().inv_cdf(0.975)


def rss_fit_ci95(passes: list, rss: list[float]) -> tuple:
    """95% t-intervals [low, high] of rss_fit's intercept and slope: each
    estimate plus or minus t_{0.975, n-2} times its rss_fit_stderr; (None,
    None) when rss_fit_stderr has no standard errors."""
    intercept_se, slope_se = rss_fit_stderr(passes, rss)
    if intercept_se is None:
        return None, None
    intercept, slope = rss_fit(passes, rss)
    t = t_975(len(passes) - 2)
    return tuple([round(estimate - t * se, 4), round(estimate + t * se, 4)]
                 for estimate, se in ((intercept, intercept_se),
                                      (slope, slope_se)))


def rss_by_passes(parent: dict, change: dict) -> dict:
    """Each side's median pass count beside its median peak_rss_mib, the
    RSS difference per extra pass of the change, and each side's
    least-squares line of peak_rss_mib against passes.

    The harness keeps records for every pass, so a side that runs more
    passes reads a higher RSS for that alone; this tells that growth from
    the program's own.  The fit's intercept is the memory a side would read
    at no passes, the program's, and its slope the records one pass adds.
    The per-pass figure is None when the medians run equally many passes or
    a report has no pass count.  Beside each fit's standard errors,
    `fit_ci95` holds their 95% t-intervals.
    """
    out = {"fit": {}, "fit_stderr": {}, "fit_ci95": {}}
    for side, summary in (("parent", parent), ("change", change)):
        passes = summary["passes"]
        rss = summary["metrics"]["peak_rss_mib"]
        out[side] = {
            "median_passes": (statistics.median(passes)
                              if None not in passes else None),
            "peak_rss_mib": rss["median"]}
        intercept, slope = rss_fit(passes, rss["runs"])
        out["fit"][side] = {"intercept_mib": intercept, "mib_per_pass": slope}
        intercept_se, slope_se = rss_fit_stderr(passes, rss["runs"])
        out["fit_stderr"][side] = {"intercept_mib": intercept_se,
                                   "mib_per_pass": slope_se}
        intercept_ci, slope_ci = rss_fit_ci95(passes, rss["runs"])
        out["fit_ci95"][side] = {"intercept_mib": intercept_ci,
                                 "mib_per_pass": slope_ci}
    before, after = out["parent"], out["change"]
    extra = (None if None in (before["median_passes"], after["median_passes"])
             else after["median_passes"] - before["median_passes"])
    rise = after["peak_rss_mib"] - before["peak_rss_mib"]
    out["extra_passes"] = extra
    out["mib_per_extra_pass"] = round(rise / extra, 4) if extra else None
    return out


def traced_counts(report: dict) -> dict:
    return {name: entry["value"] for name, entry in sorted(report["metrics"].items())
            if entry["unit"] == "count"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--plan", action="append", type=parse_plan,
                        help="WORKLOAD:SEED:PAIRS (repeatable; default every "
                             f"workload at seed 0, {DEFAULT_PAIRS} pairs)")
    parser.add_argument("--scratch", type=Path)
    parser.add_argument("--harness", metavar="COMMIT",
                        help="run both sides with this commit's perfbench/ "
                             "and BENCHMARK.json")
    args = parser.parse_args(argv)

    commits = {"parent": rev_parse(args.parent), "change": rev_parse(args.change)}
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.scratch))
    checkouts = {side: scratch / side for side in SIDES}
    for side in SIDES:
        check_out(commits[side], checkouts[side])
    harness = rev_parse(args.harness) if args.harness else None
    if harness:
        check_out(harness, scratch / "harness", HARNESS)
        for side in SIDES:
            lay_harness(scratch / "harness", checkouts[side])
    contract = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    plan = args.plan or [(entry["name"], 0, DEFAULT_PAIRS)
                         for entry in contract["workloads"]]
    names = [entry["name"] for entry in contract["end_to_end"]]
    seconds = contract["run_seconds"]

    reports = {(w, s): {side: [] for side in SIDES} for w, s, _ in plan}
    for pair in range(max(pairs for _, _, pairs in plan)):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload, seed, pairs in plan:
            if pair >= pairs:
                continue
            for side in order:
                keep = scratch / "reports" / f"{workload}-seed{seed}-pair{pair}-{side}.json"
                report = run_once(checkouts[side], workload, seed, seconds, 0, keep)
                reports[workload, seed][side].append(report)
                rate = report["metrics"]["tasks_per_s"]["value"]
                print(f"pair {pair} {workload} seed {seed} {side}: "
                      f"tasks_per_s {rate:.4g}, passes {report['meta'].get('passes')}",
                      flush=True)

    cells = {}
    for (workload, seed), sides in reports.items():
        summary = {side: summarise_side(sides[side], names) for side in SIDES}
        cells[f"{workload} seed {seed}"] = {
            **summary, **compare(summary["parent"], summary["change"],
                                 contract["end_to_end"]),
            "outputs_equal": outputs_equal(summary["parent"], summary["change"]),
            "peak_rss_by_passes": rss_by_passes(summary["parent"],
                                                summary["change"])}
    host = reports[plan[0][0], plan[0][1]]["parent"][0]["meta"]
    result = {
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "commits": commits,
        **({"harness": harness} if harness else {}),
        "plan": [{"workload": w, "seed": s, "pairs": p} for w, s, p in plan],
        "order": "alternating pairs; even pairs run the parent first, odd pairs "
                 "the change first; pair k of every cell ran before pair k+1 of any",
        "host": {key: host[key] for key in ("cpu_model", "nproc", "python", "numpy")},
        "src_lines": {side: src_lines(checkouts[side]) for side in SIDES},
        "cells": cells,
    }
    traced = result["traced"] = {}
    for workload, seed in reports:
        counts, digests = {}, {}
        for side in SIDES:
            keep = scratch / "reports" / f"{workload}-seed{seed}-traced-{side}.json"
            report = run_once(checkouts[side], workload, seed, seconds, 1, keep)
            counts[side] = traced_counts(report)
            digests[side] = report["meta"]["results_sha256"]
        traced[f"{workload} seed {seed}"] = {
            "results_sha256": digests, "counts": counts,
            "changed": sorted(name for name in counts["parent"]
                              if counts["parent"][name] != counts["change"].get(name))}
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}; reports kept in {scratch / 'reports'}")
    shutil.rmtree(checkouts["parent"], ignore_errors=True)
    shutil.rmtree(checkouts["change"], ignore_errors=True)
    shutil.rmtree(scratch / "harness", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
