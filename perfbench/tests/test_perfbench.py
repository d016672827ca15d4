"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import (MIN_PASSES, MIN_TASKS, Checker, CheckFailed, Task,  # noqa: E402
                     load_package, measure, run_task, run_tasks)
from run import END_TO_END, timed_run  # noqa: E402
from hostspeed import PROBE_EDGE, PROBE_INTERVAL, PROBE_REFERENCE, HostMeter, normalise  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def ak():
    return load_package(ROOT)


def test_raising_task_is_counted_as_failed(ak):
    """Known defect, left for a correctness fix: the greedy rule certifies
    with brute-force demand sets, but the engine verifies the certificate
    against the multi-peak oracle, which is exact only on bidders that pass
    the validators.  On this instance run_ascending raises
    RuleViolationError; the harness must count one failed task and go on."""
    instance = ak.instances.gen_multipeak(8, 4, 2, Fraction(1, 2), 3, seed=1,
                                          share_system=False)

    def auction():
        return ak.auctions.run_ascending(
            instance, ak.auctions.greedy_submodular_rule(Fraction(1, 8)), 200)

    outcomes = run_tasks([Task("greedy-mp", auction, lambda out: None),
                          Task("next", lambda: 2, lambda out: out)])
    failures = Checker().check_all(outcomes).failures
    assert [o.task.label for o in outcomes] == ["greedy-mp", "next"]
    assert outcomes[0].error.startswith("RuleViolationError")
    assert failures == {"greedy-mp": outcomes[0].error}


def test_failed_check_is_counted_and_changes_the_digest():
    def refuse(out):
        raise CheckFailed("wrong answer")

    good = Checker().check_all(run_tasks([Task("a", lambda: 1, lambda out: out)]))
    bad = Checker().check_all(run_tasks([Task("a", lambda: 1, refuse)]))
    assert good.failures == {} and bad.failures == {"a": "check failed: wrong answer"}
    assert good.digest != bad.digest


def test_measure_keeps_each_tasks_median_normalised_execution_over_whole_passes():
    passes = []
    calls = {"flaky": 0}

    def flaky():
        calls["flaky"] += 1
        if calls["flaky"] == 2:
            raise ValueError("second call")
        return 1

    tasks = [Task("steady", lambda: 0, lambda out: out), Task("flaky", flaky, lambda out: out)]
    result = measure(tasks, seconds=0, before_pass=lambda: passes.append(1))
    assert len(passes) == result.passes == MIN_PASSES == 2
    assert [o.task.label for o in result.first] == ["steady", "flaky"]
    assert len(result.times) == 2 and all(t >= 0 for t in result.times)
    assert result.probes >= 2 * 2 * PROBE_EDGE
    assert result.errors == {"flaky": "ValueError: second call (pass 2)"}


def test_meter_takes_its_own_probes_out_of_an_execution():
    """Probes fired inside an execution are subtracted from its time, and
    the time is scaled by the probe quantile around it."""
    def spin():
        end = time.perf_counter() + 10 * PROBE_INTERVAL
        while time.perf_counter() < end:
            pass

    with HostMeter() as meter:
        outcome = run_task(Task("spin", spin, lambda out: None), meter=meter)
    assert outcome.error is None
    assert len(meter.durations) >= 2 * PROBE_EDGE + 5
    assert 0 < outcome.seconds < outcome.ended - outcome.began
    speed = meter.speed(outcome.began, outcome.ended)
    assert min(meter.durations) <= speed <= max(meter.durations)
    assert normalise(outcome.seconds, 2 * PROBE_REFERENCE) == outcome.seconds / 2


def test_each_failing_task_counts_once_against_one_pass(ak):
    """A task that raises in a later pass and one that fails its check are
    each one failed task out of the pass's tasks, however many passes ran."""
    calls = {"flaky": 0}

    def flaky():
        calls["flaky"] += 1
        if calls["flaky"] == 2:
            raise ValueError("second call")
        return 1

    def refuse(out):
        raise CheckFailed("wrong answer")

    tasks = [Task("steady", lambda: 0, lambda out: out), Task("flaky", flaky, lambda out: out),
             Task("wrong", lambda: 1, refuse), Task("other", lambda: 2, lambda out: out)]
    run = timed_run(ak, SimpleNamespace(warmup=list), tasks, seconds=0)
    assert run["meta"]["passes"] == 2 and run["attempted"] == 4
    assert sorted(run["failures"]) == ["flaky", "wrong"]
    assert run["metrics"]["success_rate"] == 0.5


def test_tracer_spans_partition_time_and_bindings_are_restored(ak):
    instance = ak.instances.gen_unit_demand(3, 3, (0, 5), seed=4)
    originals = (ak.auctions.demand_oracle, ak.equilibrium.unit_demand_envy_free)
    with Tracer(ak) as tracer:
        tracer.task_id = "t0"
        trace = ak.auctions.run_ascending(instance, ak.auctions.dgs_rule(1), 100)
    assert (ak.auctions.demand_oracle, ak.equilibrium.unit_demand_envy_free) == originals
    metrics = tracer.metrics()
    root = [s for s in tracer.spans if s[0] == "auctions.run_ascending"]
    assert len(root) == 1 and root[0][3] == -1
    assert {s[4] for s in tracer.spans} == {"t0"}
    assert all(s[3] >= 0 for s in tracer.spans if s[0] == "auctions.rule")
    self_total = sum(metrics[f"{name}.self_ms"] for name in
                     {s[0] for s in tracer.spans})
    assert self_total == pytest.approx(metrics["auctions.run_ascending.time_ms"])
    assert metrics["auctions.run_ascending.steps"] == len(trace.steps)
    assert metrics["auctions.rule.calls"] == len(trace.steps)
    assert metrics["demand.demand_oracle.calls"] == 3 * len(trace.steps)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_pass_has_enough_tasks_for_p90(ak, name, tmp_path):
    tasks = WORKLOADS[name](ak, 5, ROOT, tmp_path).tasks()
    assert len(tasks) >= MIN_TASKS
    assert len({task.label for task in tasks}) == len(tasks)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
