"""Smoke tests of the benchmark itself: metric names, schema, tracer.

Run with `python3 -m pytest bench/tests -q` from the repository root.
"""
from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, covered, self_times  # noqa: E402

#: shrink factors that keep each workload's checks meaningful but fast
SMOKE_SCALE = {"planted-chain3": 0.2, "event-link": 0.25, "snapshot-kg": 0.05}


def _spec():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, tmp_path):
    plain = run.run(workload, 3, 0, False, str(tmp_path), SMOKE_SCALE[workload])
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert [(n, m["unit"]) for n, m in plain["metrics"].items()] == \
        [(n, u) for n, u, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    trace_file = tmp_path / "spans.jsonl.gz"
    traced = run.run(workload, 3, 0, True, str(tmp_path), SMOKE_SCALE[workload],
                     str(trace_file))
    assert traced["correct"], "traced digests or layer calls disagree"
    assert [(n, m["unit"]) for n, m in traced["metrics"].items()] == \
        [(n, u) for n, u, _ in run.per_layer_metrics()]
    for name in layers.required_on(workload):
        assert traced["metrics"][f"{name}.calls"]["value"] > 0
    assert trace_file.stat().st_size > 0
    json.dumps(traced)


def test_self_time_subtracts_the_union_of_child_spans():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: 5 s covered)
    # and [9, 12], of which only [9, 10] lies inside the root; child [1, 4]
    # has its own child [2, 3]
    names = ["root", "a", "b", "c", "a.inner"]
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 3.0, 9.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    own = self_times(names, parents, starts, ends)
    assert own == {"root": 4.0, "a": 2.0, "b": 3.0, "c": 3.0, "a.inner": 1.0}
    assert covered(0.0, 1.0, []) == 0.0


def test_tracer_wraps_every_binding_and_restores_it():
    run.import_program()
    from rulewalk import evaluation, learner, rules

    originals = (rules.evaluate, learner.evaluate, evaluation.evaluate)
    tracer = Tracer()
    tracer.install(layers.install_spec())
    try:
        wrapped = (rules.evaluate, learner.evaluate, evaluation.evaluate)
        assert all(w is wrapped[0] for w in wrapped)
        assert wrapped[0] is not originals[0]
        assert wrapped[0].__wrapped__ is originals[0]
    finally:
        tracer.uninstall()
    assert (rules.evaluate, learner.evaluate, evaluation.evaluate) == originals
