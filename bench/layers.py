"""The layers the traced run wraps, and what each is expected to move.

`LAYERS` lists, per wrapped function: the class it is a method of (or
None), a hook that updates counters after each call (or None), the
workloads on which it must be called at least once, and the end-to-end
stage timings it should move on which workload.  `train_s` and `eval_s`
are stage timings reported as `stage.train_s` / `stage.eval_s`; they are
gated through `total_s`.
"""
from __future__ import annotations

import os

PLANTED, EVENT, SNAPSHOT = "planted-chain3", "event-link", "snapshot-kg"
ALL = (PLANTED, EVENT, SNAPSHOT)


def _graph_bytes(tracer, args, kwargs, result) -> None:
    tracer.add("dataio.load_graph.bytes", os.path.getsize(args[0]))


def _matches(tracer, args, kwargs, result) -> None:
    tracer.add("rules.evaluate.matches", 1 if result else 0)


def _rows(tracer, args, kwargs, result) -> None:
    rows = result.features.shape[0]
    tracer.add("learner.build_features.rows", rows)
    if tracer.stage == "eval":
        tracer.add("evaluation.eval_rows", rows)


def _pool_queries(tracer, args, kwargs, result) -> None:
    from rulewalk.evaluation import candidate_pool

    test_set = args[1]
    distinct = set()
    for query in test_set.positives:
        distinct.update(candidate_pool(query, test_set))
    tracer.add("evaluation.pool_queries", len(distinct))


# name: (class, hook, must run on, {workload: [stage metrics it moves]})
LAYERS = {
    "allen.compose_sets": (None, None, (PLANTED,),
                           {PLANTED: ["mine_s", "train_s"]}),
    "allen.classify": (None, None, ALL,
                       {PLANTED: ["mine_s", "train_s"], EVENT: ["train_s", "eval_s"]}),
    "constraints.resolve_time": (None, None, ALL, {PLANTED: ["mine_s", "train_s"]}),
    "constraints.merge_paths": (None, None, (PLANTED,),
                                {PLANTED: ["mine_s", "train_s"]}),
    "constraints.generalize": (None, None, (PLANTED,),
                               {PLANTED: ["mine_s", "train_s"]}),
    "walk.sample_walks": (None, None, ALL, {PLANTED: ["mine_s"], SNAPSHOT: ["mine_s"]}),
    "walk.init_walk": (None, None, ALL, {PLANTED: ["mine_s"], SNAPSHOT: ["mine_s"]}),
    "walk.step": (None, None, ALL, {PLANTED: ["mine_s"], SNAPSHOT: ["mine_s"]}),
    "walk.reach_probability": (None, None, (EVENT,), {EVENT: ["train_s", "eval_s"]}),
    "hypergraph.is_b_graph": ("TemporalHypergraph", None, ALL, {SNAPSHOT: ["mine_s"]}),
    "hypergraph.enabled_edges": ("TemporalHypergraph", None, ALL,
                                 {PLANTED: ["mine_s"], SNAPSHOT: ["mine_s"]}),
    "hypergraph.add_event": ("TemporalHypergraph", None, ALL,
                             {SNAPSHOT: ["setup_s", "peak_rss_mb"]}),
    "dataio.load_graph": (None, _graph_bytes, ALL, {SNAPSHOT: ["setup_s"]}),
    "dataio.save_graph": (None, None, (PLANTED, SNAPSHOT), {SNAPSHOT: ["setup_s"]}),
    "convert.temporal_kg_adapt": (None, None, (SNAPSHOT,), {SNAPSHOT: ["setup_s"]}),
    "synthetic.synth_generate": (None, None, (PLANTED,), {PLANTED: ["setup_s"]}),
    "mining.mine_rules": (None, None, ALL, {PLANTED: ["mine_s"]}),
    "rules.iter_groundings": (None, None, (PLANTED, EVENT),
                              {EVENT: ["train_s", "eval_s"]}),
    "rules.evaluate": (None, _matches, (PLANTED, EVENT), {EVENT: ["train_s", "eval_s"]}),
    "rules.coverage_filter": (None, None, (PLANTED,), {PLANTED: ["mine_s"]}),
    "rules.trace_to_rule": (None, None, ALL, {EVENT: ["train_s"]}),
    "learner.build_features": (None, _rows, (PLANTED, EVENT),
                               {EVENT: ["train_s", "eval_s"]}),
    "learner.train": (None, None, (PLANTED, EVENT), {EVENT: ["train_s"]}),
    "evaluation.ranked_evaluation": (None, _pool_queries, (PLANTED, EVENT),
                                     {EVENT: ["eval_s"]}),
}


def install_spec():
    """(name, class, hook) triples for `Tracer.install`."""
    return [(name, cls, hook) for name, (cls, hook, _, _) in LAYERS.items()]


def required_on(workload: str) -> list[str]:
    """Layers that must report nonzero calls on the workload."""
    return [name for name, (_, _, on, _) in LAYERS.items() if workload in on]
