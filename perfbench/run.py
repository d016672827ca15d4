#!/usr/bin/env python3
"""auctionkit benchmark: closed-loop workloads, one per layer they stress.

    python3 perfbench/run.py --workload mp_corpus --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Each workload runs in its own fresh process (`all` starts one per
workload), so value_table's cache and peak RSS describe one workload.
With --trace 0 the run repeats the workload's pass of tasks for about
--seconds of busy time, untraced, and reports the end-to-end metrics over
each task's median execution, scaled to the host's full speed
(hostspeed.py).  With --trace 1 it runs the pass once traced and once
untraced and reports the per-layer metrics and the tracing overhead; that
work is fixed, so its counters repeat exactly.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

Exit codes: 0 every task passed its check; 1 a task raised or failed its
correctness check (the result line is still printed); 2 usage error, or
auctionkit could not be imported from the checkout's src/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostMeter, normalise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# One thread per process for any native library numpy loads; the benchmark
# itself is single-threaded, so a run never uses more threads than nproc.
THREAD_LIMITS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Set-up is made this many times per run, once in the run's own process and
# the rest in fresh ones, and its median reported.
SETUP_REPEATS = 3

END_TO_END = [  # (name, unit)
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
]
WORKLOAD_NAMES = ("mp_corpus", "ud_grid", "explicit_auction")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git checkout.
    The search for a repository stops at the checkout's root."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, env={**os.environ,
                                              "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def set_up(name: str, seed: int, workdir: Path):
    """Import numpy and auctionkit and build the workload and its pass's
    inputs; returns them with the set-up's (seconds, host speed).
    Made first in a process."""
    with HostMeter() as meter:
        meter.start()
        start = time.perf_counter()
        import numpy  # noqa: F401  (auctionkit needs it; its import is set-up time)
        from harness import load_package
        from workloads import WORKLOADS
        ak = load_package(ROOT)
        workload = WORKLOADS[name](ak, seed, ROOT, workdir)
        tasks = workload.tasks()
        end = time.perf_counter()
        inside = meter.stop(start, end)
    return ak, workload, tasks, (end - start - inside, meter.speed(start, end))


def set_up_in_fresh_process(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """(seconds, host speed) of set_up in a new interpreter."""
    workdir.mkdir()
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(*run.set_up(sys.argv[2], int(sys.argv[3]), run.Path(sys.argv[4]))[3])")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), name, str(seed),
                           str(workdir)], stdout=subprocess.PIPE, text=True, check=True,
                          timeout=120)
    seconds, speed = proc.stdout.split()[-2:]
    return float(seconds), float(speed)


def timed_run(ak, workload, tasks, seconds: float) -> dict:
    from harness import (Checker, clear_value_table_cache, measure, percentile_ms,
                         run_tasks, value_table_cache)
    warm = run_tasks(workload.warmup())
    gc.collect()
    caches_at_start = []

    def before_pass():
        clear_value_table_cache(ak)
        caches_at_start.append(value_table_cache(ak))

    started = time.perf_counter()
    result = measure(tasks, seconds, before_pass)
    wall = time.perf_counter() - started
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checker = Checker().check_all(result.first)
    failures = {**result.errors, **checker.failures}
    attempted = len(tasks)
    metrics = {
        "tasks_per_s": len(tasks) / sum(result.times),
        "task_p50_ms": percentile_ms(result.times, 50),
        "task_p90_ms": percentile_ms(result.times, 90),
        "peak_rss_mib": peak_rss_mib,
        "success_rate": (attempted - len(failures)) / attempted,
    }
    meta = {"warmup_tasks": len(warm), "tasks_per_pass": len(tasks),
            "passes": result.passes, "value_table_cache_at_pass_start": caches_at_start,
            "measured_wall_s": wall, "host_probes": result.probes,
            "raw_tasks_per_s": len(tasks) / sum(result.raw),
            "raw_task_p50_ms": percentile_ms(result.raw, 50),
            "raw_task_p90_ms": percentile_ms(result.raw, 90)}
    return dict(metrics=metrics, failures=failures, digest=checker.digest,
                attempted=attempted, meta=meta,
                task_ms={task.label: t * 1e3 for task, t in zip(tasks, result.times)})


def traced_run(ak, workload, tasks, spans_path: Path) -> dict:
    """One pass traced and one untraced, each from a cold value_table cache."""
    from harness import Checker, clear_value_table_cache, run_tasks
    from tracing import Tracer
    run_tasks(workload.warmup())
    clear_value_table_cache(ak)
    gc.collect()
    with Tracer(ak) as tracer:
        traced = run_tasks(tasks, tracer)
    clear_value_table_cache(ak)
    gc.collect()
    untraced = run_tasks(tasks)
    tracer.write_spans(spans_path)
    traced_rate = len(traced) / sum(o.seconds for o in traced)
    untraced_rate = len(untraced) / sum(o.seconds for o in untraced)
    checker, untraced_checker = Checker().check_all(traced), Checker().check_all(untraced)
    failures, digest = checker.failures, checker.digest
    if untraced_checker.digest != digest:
        failures["untraced pass"] = ("results differ from the traced pass: "
                                     + "; ".join(list(untraced_checker.failures)[:3]))
    metrics = tracer.metrics()
    metrics["trace.untraced_tasks_per_s"] = untraced_rate
    metrics["trace.traced_tasks_per_s"] = traced_rate
    metrics["trace.overhead_pct"] = (untraced_rate / traced_rate - 1) * 100
    meta = {"tasks_per_pass": len(tasks), "spans_file": str(spans_path.relative_to(ROOT))}
    return dict(metrics=metrics, failures=failures, digest=digest,
                attempted=len(traced), meta=meta)


def run_one(args) -> int:
    os.environ.update(THREAD_LIMITS)
    fresh = not any(n == "auctionkit" or n.startswith("auctionkit.") for n in sys.modules)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        try:
            ak, workload, tasks, setup = set_up(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import auctionkit from {ROOT / 'src'}: {exc}",
                  file=sys.stderr)
            return 2
        setups = [setup]
        if args.trace:
            from tracing import PER_LAYER
            run = traced_run(ak, workload, tasks,
                             OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            setups += [set_up_in_fresh_process(args.workload, args.seed,
                                               workdir / f"setup-{i}")
                       for i in range(1, SETUP_REPEATS)]
            run = timed_run(ak, workload, tasks, args.seconds)
            run["metrics"]["setup_s"] = statistics.median(
                normalise(seconds, speed) for seconds, speed in setups)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures, attempted = run["failures"], run["attempted"]
    meta = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fresh_process": fresh, "pid": os.getpid(),
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "git_commit": git_commit(ROOT), "thread_limits": THREAD_LIMITS,
        "tasks": attempted, "failed": len(failures),
        "setup_raw_s": [seconds for seconds, _ in setups],
        "setup_probe_us": [speed * 1e6 for _, speed in setups],
        "results_sha256": run["digest"], **run["meta"],
    }
    metrics = {name: {"value": run["metrics"][name], "unit": units[name]}
               for name in units}
    for label, error in list(failures.items())[:20]:
        print(f"FAILED {label}: {error}")
    for name, entry in metrics.items():
        print(f"{args.workload:<17} {name:<58} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        print(f"{args.workload:<17} {'error_rate':<58} {len(failures) / attempted:>14.6g} "
              f"ratio ({len(failures)} of {attempted} tasks)")
        count = run["meta"]["tasks_per_pass"]
        print(f"{args.workload:<17} task times are each task's median over "
              f"{run['meta']['passes']} executions, scaled to the host's full speed; "
              f"{count} tasks, {count - int(0.9 * (count + 1))} beyond p90")
    print("# meta " + json.dumps(meta, sort_keys=True))
    report = {"meta": meta, "metrics": metrics, "failures": failures,
              "task_ms": run.get("task_ms", {})}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def run_all(args) -> int:
    """Every workload in its own fresh process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} exited {proc.returncode} without a result",
                  file=sys.stderr)
            return 2
        code = max(code, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
