"""Query sets, metrics, tie-aware ranking, splits, and the generator."""
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rulewalk import learner
from rulewalk.cli import main
from rulewalk.dataio import load_corpus
from rulewalk.evaluation import (
    QuerySet,
    build_classification_queries,
    build_event_queries,
    candidate_pool,
    hits_at_k,
    metrics_record,
    mrr,
    pool_queries,
    rank_with_ties,
    ranked_evaluation,
    split_queries,
)
from rulewalk.hypergraph import TemporalHypergraph
from rulewalk.rules import Query, evaluate, parse_rule
from rulewalk.synthetic import GenerationError, SynthSpec, synth_generate

from oracles import grounding_exists_bruteforce

PLANTED = "w=0.0 Target() <- A(X0->X1) , B(X1->X2) | 0 {BEFORE} 1"


def test_build_classification_queries():
    qs = build_classification_queries(["A", "A", "B"], "A")
    assert len(qs.positives) == 2 and len(qs.negatives) == 1
    with pytest.raises(ValueError):
        build_classification_queries(["A", "A"], "C")
    with pytest.raises(ValueError):
        build_classification_queries(["A", "A"], "A")


def test_build_event_queries_partitions():
    g = TemporalHypergraph()
    for i in range(3):
        g.add_event("ego.brake", [f"e{i}"], [f"f{i}"], (i, i + 1))
    for i in range(7):
        g.add_event("other", [f"e{i}"], [f"f{i}"], (i, i + 1))
    qs = build_event_queries(g, {"ego.brake"})
    assert len(qs.positives) == 3 and len(qs.negatives) == 7
    qs_all = build_event_queries(g, {"ego.brake", "other"})
    assert len(qs_all.negatives) == 0
    with pytest.raises(ValueError):
        build_event_queries(g, {"missing"})


def test_mrr_and_hits():
    assert mrr([1, 1, 1]) == 1.0
    assert mrr([1, 2, 4]) == pytest.approx((1 + 0.5 + 0.25) / 3)
    assert mrr([10]) == pytest.approx(0.1)
    assert hits_at_k([1, 1, 1], 3) == 100.0
    assert hits_at_k([1, 2, 4], 3) == pytest.approx(100 * 2 / 3)
    assert hits_at_k([10], 3) == 0.0
    with pytest.raises(ValueError):
        mrr([])
    with pytest.raises(ValueError):
        hits_at_k([], 3)
    with pytest.raises(ValueError):
        mrr([0])


@given(st.lists(st.integers(1, 50), min_size=1, max_size=20))
def test_metrics_permutation_invariant(ranks):
    rng = random.Random(0)
    shuffled = list(ranks)
    rng.shuffle(shuffled)
    assert mrr(ranks) == pytest.approx(mrr(shuffled))
    assert hits_at_k(ranks, 3) == hits_at_k(shuffled, 3)


def test_rank_with_ties():
    assert rank_with_ties([5.0, 1.0, 0.0], 0) == 1.0
    assert rank_with_ties([1.0, 1.0, 1.0, 1.0, 1.0], 2) == 3.0
    assert rank_with_ties([0.0, 1.0, 2.0], 0) == 3.0


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=12))
def test_rank_matches_sort_oracle_on_distinct_scores(scores):
    ordered = sorted(scores, reverse=True)
    for idx, s in enumerate(scores):
        if scores.count(s) == 1:
            assert rank_with_ties(scores, idx) == ordered.index(s) + 1


def test_ranked_evaluation_uses_pool():
    pool = [Query("L", graph_index=i) for i in range(5)]
    test_set = QuerySet([pool[2]], pool[:2] + pool[3:])
    scores = {q: 1.0 for q in pool}
    assert ranked_evaluation(scores, test_set) == [3.0]
    scores[pool[0]] = 2.0
    assert ranked_evaluation(scores, test_set) == [3.5]
    del scores[pool[4]]
    with pytest.raises(ValueError):
        ranked_evaluation(scores, test_set)


def test_eval_grounds_each_pool_query_once_per_rule(tmp_path, monkeypatch):
    rule_file = tmp_path / "planted.rule"
    rule_file.write_text(PLANTED + "\n")
    corpus, rules, model = (str(tmp_path / n) for n in ("c", "r.txt", "m.txt"))
    task = ["--data", corpus, "--target-label", "Target", "--seed", "5"]
    assert main(["gen", "--rule", str(rule_file), "--out", corpus,
                 "--num-pos", "10", "--num-neg", "10", "--noise", "3",
                 "--seed", "5"]) == 0
    assert main(["train", *task, "--walks", "60", "--out", rules,
                 "--model-out", model]) == 0

    _, labels = load_corpus(corpus)
    _, test_set = split_queries(build_classification_queries(labels, "Target"), 0.8, 5)
    n_rules = sum(1 for line in Path(rules).read_text().splitlines() if line.startswith("w="))
    n_distinct = len(pool_queries(test_set))
    assert len(test_set.positives) > 1 and n_rules > 0

    calls = []
    original = learner.evaluate

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(learner, "evaluate", counted)
    assert main(["eval", *task, "--rules", rules, "--model", model]) == 0
    assert 0 < len(calls) <= n_distinct * n_rules


def test_candidate_pool_filters_event_arity():
    positives = [Query("p", ("a", "b"), ("c",), 0, 0)]
    negatives = [
        Query("n1", ("x",), ("y",), 0, 1),
        Query("n2", ("x", "z"), ("y",), 0, 2),
    ]
    qs = QuerySet(positives, negatives, "link_prediction")
    pool = candidate_pool(positives[0], qs)
    assert pool == [positives[0], negatives[1]]


def test_split_proportional_and_seeded():
    qs = QuerySet(
        [Query("L", graph_index=i) for i in range(50)],
        [Query("L", graph_index=100 + i) for i in range(50)],
    )
    train, test = split_queries(qs, 0.8, seed=42)
    assert len(train.positives) == 40 and len(test.positives) == 10
    assert len(train.negatives) == 40 and len(test.negatives) == 10
    again_train, _ = split_queries(qs, 0.8, seed=42)
    assert train.positives == again_train.positives
    other_train, _ = split_queries(qs, 0.8, seed=43)
    assert train.positives != other_train.positives


def test_query_sets_reject_overlap():
    q = Query("L", graph_index=0)
    with pytest.raises(ValueError):
        QuerySet([q], [q])


def test_metrics_record_fields():
    record = metrics_record([1, 2], "classification", 7)
    assert set(record) == {"mrr", "hits@3", "hits@10", "n_queries", "mode", "seed"}
    assert record["n_queries"] == 2


# -- synthetic corpora --------------------------------------------------------


def test_synth_positive_and_negative_verified_by_oracle():
    rule = parse_rule(PLANTED)
    spec = SynthSpec(rule, num_pos=4, num_neg=4, noise_events=5, seed=9)
    graphs, labels = synth_generate(spec)
    assert labels == ["Target"] * 4 + ["not_Target"] * 4
    query = Query("Target")
    for graph, label in zip(graphs, labels):
        truth = grounding_exists_bruteforce(rule, graph, query)
        assert truth == (label == "Target")
        assert evaluate(rule, graph, query) == truth


def test_synth_deterministic_per_seed():
    rule = parse_rule(PLANTED)
    spec = SynthSpec(rule, num_pos=3, num_neg=3, noise_events=4, seed=17)
    a_graphs, a_labels = synth_generate(spec)
    b_graphs, b_labels = synth_generate(spec)
    assert a_labels == b_labels
    for ga, gb in zip(a_graphs, b_graphs):
        assert [
            (e.predicate, e.heads, e.tails, tuple(e.interval)) for e in ga.events
        ] == [(e.predicate, e.heads, e.tails, tuple(e.interval)) for e in gb.events]


def test_synth_positive_keeps_planted_span_and_start():
    rule = parse_rule(PLANTED)
    spec = SynthSpec(rule, num_pos=5, num_neg=0, noise_events=8, seed=3)
    graphs, _ = synth_generate(spec)
    for g in graphs:
        planted = [e.interval for e in g.events[: len(rule.body)]]
        lo = min(iv.start for iv in planted)
        hi = max(iv.end for iv in planted)
        span = g.span()
        assert (span.start, span.end) == (lo, hi) == (0, hi)


def test_synth_rejects_vacuous_or_inconsistent_rules():
    free = parse_rule("w=0.0 T() <- A(X0->X1) , B(X1->X2)")
    with pytest.raises(GenerationError):
        synth_generate(SynthSpec(free, num_pos=1, num_neg=1, seed=0))
    impossible = parse_rule(
        "w=0.0 T() <- A(X0->X1) , B(X1->X2) , C(X2->X3)"
        " | 0 {BEFORE} 1 ; 1 {BEFORE} 2 ; 0 {AFTER} 2"
    )
    with pytest.raises(GenerationError):
        synth_generate(SynthSpec(impossible, num_pos=1, num_neg=1, seed=0))


def test_macro_average_over_label_runs():
    from rulewalk.evaluation import macro_average

    records = [
        metrics_record([1, 1], "classification", 5),
        metrics_record([2, 4], "classification", 5),
    ]
    combined = macro_average(records)
    assert combined["mrr"] == pytest.approx((1.0 + 0.375) / 2)
    assert combined["n_queries"] == 4
    with pytest.raises(ValueError):
        macro_average([])
