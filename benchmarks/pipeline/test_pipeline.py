"""Self-test of the pipeline benchmark, at tiny sizes.

Run from the repository root with::

    REPRO_BENCH_JSON=0 PYTHONPATH=src python -m pytest benchmarks/pipeline -q

(``REPRO_BENCH_JSON=0`` stops ``benchmarks/conftest.py`` from writing its
session report.)
"""

import json
from time import perf_counter

import pytest

import child
import run
import tracing
import workloads
from repro.core.emptiness import EmptinessResult

TINY = {
    "emptiness-random": {"instances": 6},
    "role-views": {"ra": 1, "extended": 1},
    "ltl-verify": {"calls": 12},
    "monitor-churn": {"batches": 8},
}


def _tiny_workload(name: str) -> workloads.Workload:
    if name == "monitor-churn":
        return workloads.MonitorChurn(
            1, batches=12, live=20, batch=10, lifetime=30, recover_every=5
        )
    return workloads.build(name, 1, TINY[name])


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_every_declared_metric_is_emitted_with_its_unit(tmp_path):
    declared = _benchmark_json()
    summary = run.run_workload(
        "ltl-verify", 1, 0, True, tmp_path, perf_counter() + 120, sizes=TINY["ltl-verify"]
    )
    end_to_end = dict(run.END_TO_END)
    for metric in declared["end_to_end"]:
        assert metric["name"] in summary["metrics"], metric["name"]
        assert end_to_end[metric["name"]] == metric["unit"]
    units = run.per_layer_units()
    for metric in declared["per_layer"]:
        assert metric["name"] in summary["per_layer"], metric["name"]
        assert units[metric["name"]] == metric["unit"]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert (tmp_path / "trace-ltl-verify.json").exists()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_span_records_calls_on_its_home_workload(name):
    workload = _tiny_workload(name)
    workload.warm_up()
    tracer = tracing.Tracer()
    result = child.measure(workload, tracer)
    assert result["failed"] == 0, result["errors"]
    assert tracer.missing == []
    layers = tracer.metrics()
    silent = [
        span
        for span, _module, _qualname, home in tracing.SPANS
        if home == name and layers[span + ".calls"] < 1
    ]
    assert silent == []


def test_a_renamed_span_target_is_reported_missing(monkeypatch):
    spans = tracing.SPANS + (
        ("emptiness.renamed_away", "repro.core.emptiness", "renamed_away", "emptiness-random"),
        ("gone.module", "repro.no_such_module", "anything", "emptiness-random"),
    )

    def reshaped_result(*_args):
        raise AttributeError("the result lost a field")

    monkeypatch.setitem(tracing.HOOKS, "emptiness.check_emptiness", reshaped_result)
    workload = _tiny_workload("emptiness-random")
    tracer = tracing.Tracer(spans)
    result = child.measure(workload, tracer)
    assert tracer.missing == [
        "emptiness.renamed_away",
        "gone.module",
        "counters of emptiness.check_emptiness",
    ]
    assert result["failed"] == 0
    assert tracer.metrics()["emptiness.check_emptiness.calls"] > 0


def test_an_injected_wrong_verdict_counts_in_error_share(monkeypatch):
    genuine = workloads.emptiness.check_emptiness

    def wrong_on_example7(automaton, **kwargs):
        if set(automaton.automaton.states) == {"q"}:  # only Example 7 has this control
            return EmptinessResult(empty=True, exact=True)
        return genuine(automaton, **kwargs)

    monkeypatch.setattr(workloads.emptiness, "check_emptiness", wrong_on_example7)
    result = child.measure(_tiny_workload("emptiness-random"))
    assert result["failed"] == 1
    error_share = run.summarise([result], 80)["error_share"]
    assert error_share == pytest.approx(1 / result["ops"])
    assert "example7" in result["errors"][0]
