"""Mining: aggregation, generalization across occurrences, modes, coverage."""
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewalk import mining
from rulewalk.allen import FULL_SET, Relation, rel_set
from rulewalk.constraints import IANetwork, generalize
from rulewalk.evaluation import (
    QuerySet,
    build_classification_queries,
    build_event_queries,
)
from rulewalk.hypergraph import TemporalHypergraph
from rulewalk.mining import (
    MODE_RELATIONAL,
    MODE_TEMPORAL,
    MiningDiagnostics,
    MiningParams,
    mine_rules,
)
from rulewalk.rules import Query, coverage_filter, evaluate, trace_to_rule
from rulewalk.walk import WalkParams, derive_seed

from oracles import replay_walks

R = Relation


def test_mining_params_are_walk_params_plus_rho():
    assert isinstance(MiningParams(), WalkParams)
    assert asdict(MiningParams()) == {**asdict(WalkParams()), "rho": 1.0}
    assert asdict(WalkParams()) == {"num_walks": 200, "max_steps": 2, "seed": 0,
                                    "start_events": 3}
    with pytest.raises(ValueError):
        MiningParams(num_walks=0)
    with pytest.raises(ValueError):
        MiningParams(max_steps=0)
    for rho in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            MiningParams(rho=rho)


def chain_graph(gap: str):
    """A(a->b) then B(b->c); gap picks the relation between the two."""
    g = TemporalHypergraph()
    if gap == "before":
        g.add_event("A", ["a"], ["b"], (0, 2))
        g.add_event("B", ["b"], ["c"], (5, 9))
    else:  # meets
        g.add_event("A", ["a"], ["b"], (0, 4))
        g.add_event("B", ["b"], ["c"], (4, 9))
    return g


def test_unique_path_ranked_first():
    g = TemporalHypergraph()
    g.add_event("A", ["a"], ["b"], (0, 2))
    g.add_event("B", ["b"], ["c"], (5, 9))
    # early fillers keep B's head out of the start set; their chains fail
    # the full-span coverage filter
    g.add_event("D1", ["d"], ["e"], (0, 1))
    g.add_event("D2", ["e"], ["f"], (1, 2))
    neg = TemporalHypergraph()
    neg.add_event("A", ["a"], ["b"], (5, 9))
    neg.add_event("B", ["b"], ["c"], (0, 2))  # violates BEFORE
    qs = build_classification_queries(["L", "other"], "L")
    params = MiningParams(num_walks=50, max_steps=2, seed=1)
    rules = mine_rules([g, neg], qs, params, MODE_TEMPORAL)
    assert rules
    top = rules[0]
    assert top.signature == "L() <- A(X0->X1) , B(X1->X2)"
    assert top.support >= 1
    assert top.time_net.cells[0][1] == rel_set(R.BEFORE)


def test_generalization_unions_relations_across_occurrences():
    graphs = [chain_graph("before"), chain_graph("meets"), TemporalHypergraph()]
    graphs[2].add_event("C", ["x"], ["y"], (0, 1))
    qs = build_classification_queries(["L", "L", "other"], "L")
    params = MiningParams(num_walks=50, max_steps=2, seed=2)
    rules = mine_rules(graphs, qs, params, MODE_TEMPORAL)
    top = rules[0]
    cell = top.time_net.cells[0][1]
    assert cell & rel_set(R.BEFORE, R.MEETS) == rel_set(R.BEFORE, R.MEETS)


def test_relational_mode_is_temporal_mode_with_widened_nets():
    graphs = [chain_graph("before"), TemporalHypergraph()]
    graphs[1].add_event("C", ["x"], ["y"], (0, 1))
    qs = build_classification_queries(["L", "other"], "L")
    params = MiningParams(num_walks=40, max_steps=2, seed=3)
    plain = mine_rules(graphs, qs, params, MODE_RELATIONAL)
    with_pc = mine_rules(graphs, qs, params, MODE_TEMPORAL)
    assert [(r.signature, r.support) for r in plain] == [
        (r.signature, r.support) for r in with_pc
    ]
    for rule in plain:
        n = rule.time_net.n
        assert all(
            rule.time_net.cells[i][j] == FULL_SET
            for i in range(n)
            for j in range(n)
            if i != j
        )


def test_coverage_filter_drops_partial_span_rules():
    g = TemporalHypergraph()
    g.add_event("A", ["a"], ["b"], (0, 2))
    g.add_event("B", ["b"], ["c"], (5, 9))
    g.add_event("Tail", ["c"], ["d"], (20, 50))  # stretches the graph span
    other = TemporalHypergraph()
    other.add_event("C", ["x"], ["y"], (0, 1))
    qs = build_classification_queries(["L", "other"], "L")
    params = MiningParams(num_walks=60, max_steps=2, seed=4, rho=1.0)
    diag = MiningDiagnostics()
    rules = mine_rules([g, other], qs, params, MODE_TEMPORAL, diag)
    assert all(r.signature != "L() <- A(X0->X1) , B(X1->X2)" for r in rules)
    assert diag.coverage_filtered > 0
    relaxed = MiningParams(num_walks=60, max_steps=2, seed=4, rho=0.15)
    rules = mine_rules([g, other], qs, relaxed, MODE_TEMPORAL)
    assert any(r.signature == "L() <- A(X0->X1) , B(X1->X2)" for r in rules)


def test_mined_pc_rule_matches_its_sources():
    graphs = [chain_graph("before"), chain_graph("meets"), TemporalHypergraph()]
    graphs[2].add_event("C", ["x"], ["y"], (0, 1))
    qs = build_classification_queries(["L", "L", "other"], "L")
    params = MiningParams(num_walks=50, max_steps=2, seed=5)
    rules = mine_rules(graphs, qs, params, MODE_TEMPORAL)
    top = rules[0]
    for idx in (0, 1):
        assert evaluate(top, graphs[idx], Query("L", graph_index=idx))


def test_signatures_invariant_under_corpus_renaming():
    def corpus(prefix):
        g1 = TemporalHypergraph()
        g1.add_event("A", [f"{prefix}a"], [f"{prefix}b"], (0, 2))
        g1.add_event("B", [f"{prefix}b"], [f"{prefix}c"], (5, 9))
        g2 = TemporalHypergraph()
        g2.add_event("C", [f"{prefix}x"], [f"{prefix}y"], (0, 1))
        return [g1, g2]

    qs = build_classification_queries(["L", "other"], "L")
    params = MiningParams(num_walks=40, max_steps=2, seed=6)
    plain = mine_rules(corpus(""), qs, params, MODE_TEMPORAL)
    renamed = mine_rules(corpus("zz_"), qs, params, MODE_TEMPORAL)
    assert [(r.signature, r.support) for r in plain] == [
        (r.signature, r.support) for r in renamed
    ]


def test_link_prediction_mining_targets_query_tail():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))
    g.add_event("Q", ["b"], ["c"], (2, 3))
    g.add_event("Goal", ["a"], ["c"], (0, 3))
    a, b, c = (g.entities[n] for n in ("a", "b", "c"))
    qs = QuerySet(
        [Query("Goal", (a,), (c,), 0, 2)],
        [Query("P", (a,), (b,), 0, 0)],
        "link_prediction",
    )
    params = MiningParams(num_walks=80, max_steps=3, seed=7)
    rules = mine_rules([g], qs, params, MODE_TEMPORAL)
    assert any(
        r.signature == "Goal(X0->X1) <- P(X0->X2) , Q(X2->X1)" for r in rules
    )


def _lift_every_walk(graphs, qs, params, mode=MODE_TEMPORAL):
    """mine_rules walk by walk: every kept walk of the memo-free replay is lifted anew.

    Each lifted rule's cells among its trace atoms must equal the replay's
    network, which the replay builds without `rules.trace_network`.  Every
    signature is lifted and, in classification, coverage-filtered on every
    positive graph, however certain its verdict.  Returns the ranked rules,
    the disconnected count, the number of kept walks whose trace repeats an
    earlier one of the same query, and the coverage-filtered count.
    """
    aggregated = {}
    disconnected = repeats = 0
    for qi, query in enumerate(qs.positives):
        graph = graphs[query.graph_index]
        wparams = WalkParams(max_steps=params.max_steps, num_walks=params.num_walks,
                             seed=derive_seed(params.seed, "query", qi),
                             start_events=params.start_events)
        walks, _ = replay_walks(graph, query, wparams)
        repeats += len(walks) - len({tuple(trace) for trace, _ in walks})
        for trace, net in walks:
            lift = trace_to_rule(graph, trace, query)
            if lift is None:
                disconnected += 1
                continue
            rule = lift.rule()
            n = len(trace)
            assert [row[:n] for row in rule.time_net.cells[:n]] == net.cells
            known = aggregated.setdefault(rule.signature, rule)
            if known is rule:
                rule.support = 1
            else:
                known.support += 1
                known.time_net = generalize(known.time_net, rule.time_net)
    rules = list(aggregated.values())
    if mode == MODE_RELATIONAL:
        for rule in rules:
            rule.time_net = IANetwork(rule.time_net.keys)
    filtered = 0
    if qs.mode == "classification":
        positive = sorted({q.graph_index for q in qs.positives})
        kept = [r for r in rules
                if all(coverage_filter(r, graphs[g], params.rho) for g in positive)]
        filtered = len(rules) - len(kept)
        rules = kept
    rules.sort(key=lambda r: (-r.support, r.signature))
    return rules, disconnected, repeats, filtered


def _assert_mines_like_every_walk(graphs, qs, params, mode=MODE_TEMPORAL):
    """mine_rules equals `_lift_every_walk`; returns the oracle's counts."""
    diag = MiningDiagnostics()
    rules = mine_rules(graphs, qs, params, mode, diag)
    expected, disconnected, repeats, filtered = _lift_every_walk(graphs, qs, params, mode)
    assert [(r.signature, r.support, r.time_net.cells) for r in rules] == [
        (r.signature, r.support, r.time_net.cells) for r in expected
    ]
    assert (diag.disconnected, diag.coverage_filtered) == (disconnected, filtered)
    return len(rules), disconnected, repeats, filtered


def test_lifting_each_distinct_trace_once_matches_lifting_every_walk():
    # two start components, so classification walks also yield disconnected
    # traces; small graphs, so most kept walks repeat an earlier trace
    labelled = TemporalHypergraph()
    labelled.add_event("A", ["a"], ["b"], (0, 1))
    labelled.add_event("B", ["c"], ["d"], (0, 2))
    labelled.add_event("C", ["b"], ["e"], (3, 4))
    labelled.add_event("D", ["d"], ["e"], (5, 6))
    labelled.add_event("E", ["a", "d"], ["f"], (2, 9))
    other = TemporalHypergraph()
    other.add_event("C", ["x"], ["y"], (0, 1))
    events = TemporalHypergraph()
    for i, (h, t, start) in enumerate([("a", "b", 0), ("b", "c", 2), ("a", "c", 1),
                                       ("c", "a", 5), ("b", "a", 3), ("a", "d", 4)]):
        events.add_event(f"p{i % 2}", [h], [t], (start, start + 3))
    events.add_event("p1", ["a", "b"], ["d"], (6, 7))
    cases = [
        ([labelled, other], build_classification_queries(["L", "other"], "L"),
         MiningParams(num_walks=60, max_steps=2, seed=8, rho=0.1, start_events=2)),
        ([events], build_event_queries(events, ["p0"]),
         MiningParams(num_walks=60, max_steps=3, seed=9)),
    ]
    seen_disconnected = 0
    for graphs, qs, params in cases:
        kept, disconnected, repeats, _ = _assert_mines_like_every_walk(graphs, qs, params)
        assert kept and repeats
        seen_disconnected += disconnected
    assert seen_disconnected


def _positives_with_other_predicates():
    """Three positive graphs whose predicate sets differ, and one negative.

    Each positive holds A then B and a Bacon class event (a self-loop on one
    entity), and events some other positive lacks: N1 in the first and
    third, N2 and a two-head M in the second, an Egg class event in the third.
    """
    first = TemporalHypergraph()
    first.add_event("Bacon", ["a"], ["a"], (0, 12))
    first.add_event("A", ["a"], ["b"], (0, 2))
    first.add_event("B", ["b"], ["c"], (4, 7))
    first.add_event("N1", ["c"], ["d"], (8, 12))
    second = TemporalHypergraph()
    second.add_event("A", ["x"], ["y"], (1, 3))
    second.add_event("N2", ["x"], ["z"], (0, 1))
    second.add_event("B", ["y"], ["w"], (3, 9))
    second.add_event("Bacon", ["x"], ["x"], (0, 9))
    second.add_event("M", ["x", "y"], ["w"], (5, 10))
    third = TemporalHypergraph()
    third.add_event("A", ["p"], ["q"], (2, 4))
    third.add_event("N1", ["p"], ["r"], (0, 3))
    third.add_event("B", ["q"], ["s"], (6, 8))
    third.add_event("Bacon", ["p"], ["p"], (0, 8))
    third.add_event("Egg", ["s"], ["s"], (7, 8))
    third.add_event("B", ["r"], ["p"], (1, 2))
    negative = TemporalHypergraph()
    negative.add_event("A", ["a"], ["b"], (5, 9))
    negative.add_event("C", ["b"], ["c"], (0, 2))
    return [first, second, negative, third], build_classification_queries(
        ["L", "L", "other", "L"], "L")


# at 2 steps a kept rule ends on a class atom appended to a walked trace,
# at 3 steps every kept rule walks its class event
@pytest.mark.parametrize("max_steps", [2, 3])
@pytest.mark.parametrize("mode", [MODE_TEMPORAL, MODE_RELATIONAL])
@pytest.mark.parametrize("rho", [0.3, 1.0])
def test_classification_mining_matches_lifting_every_walk(monkeypatch, mode, rho, max_steps):
    graphs, qs = _positives_with_other_predicates()
    params = MiningParams(num_walks=40, max_steps=max_steps, seed=10, rho=rho,
                          start_events=2)
    searched = []
    original = mining.coverage_filter

    def spy(rule, graph, rho):
        searched.append(rule.signature)
        return original(rule, graph, rho)

    monkeypatch.setattr(mining, "coverage_filter", spy)
    kept, _, _, filtered = _assert_mines_like_every_walk(graphs, qs, params, mode)
    failed = len(set(searched)) - kept
    # some filtered rules were never searched; at rho 1 the searched ones fail
    assert filtered > failed
    assert kept if rho < 1 else failed


def _small_graph(draw):
    g = TemporalHypergraph()
    for _ in range(draw(st.integers(2, 6))):
        heads = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=2, unique=True))
        if len(heads) == 1 and draw(st.booleans()):
            tails = heads  # a class event
        else:
            tails = [draw(st.sampled_from("abcde"))]
        start = draw(st.integers(0, 8))
        g.add_event(draw(st.sampled_from(["A", "B", "C", "D"])), heads, tails,
                    (start, start + draw(st.integers(0, 4))))
    return g


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_classification_mining_matches_lifting_every_walk_on_random_corpora(data):
    draw = data.draw
    positives = [_small_graph(draw) for _ in range(draw(st.integers(3, 4)))]
    negative = _small_graph(draw)
    qs = build_classification_queries(["L"] * len(positives) + ["other"], "L")
    params = MiningParams(num_walks=draw(st.integers(1, 12)),
                          max_steps=draw(st.integers(1, 3)),
                          seed=draw(st.integers(0, 1000)),
                          rho=draw(st.sampled_from([0.1, 0.5, 1.0])),
                          start_events=draw(st.integers(1, 3)))
    mode = draw(st.sampled_from([MODE_TEMPORAL, MODE_RELATIONAL]))
    _assert_mines_like_every_walk(positives + [negative], qs, params, mode)
