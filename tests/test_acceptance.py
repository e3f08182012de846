"""Acceptance suite: one test per criterion, printed pass lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""
import filecmp
import math
import os
import random
import time
from pathlib import Path

import numpy as np

from rulewalk import learner
from rulewalk.allen import Relation, classify, compose, inverse
from rulewalk.cli import main as cli_main
from rulewalk.constraints import IANetwork, resolve_time
from rulewalk.convert import temporal_kg_adapt
from rulewalk.dataio import load_corpus, load_graph, save_graph
from rulewalk.evaluation import (
    build_classification_queries,
    hits_at_k,
    mrr,
    ranked_evaluation,
    score_pools,
    split_queries,
)
from rulewalk.hypergraph import TemporalHypergraph
from rulewalk.mining import MODE_RELATIONAL, MODE_TEMPORAL, MiningParams, mine_rules
from rulewalk.rules import Atom, Query, TemporalRule, parse_rule, signature_of
from rulewalk.walk import WalkParams, edge_weight, init_walk, sample_walks, step

from oracles import (
    compose_table_bruteforce,
    finite_difference_gradient,
    grounding_exists_bruteforce,
    interval_grid,
    realizable,
)


def report(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def test_criterion_1_allen_exactness():
    started = time.time()
    oracle = compose_table_bruteforce(8)
    for r1 in Relation:
        for r2 in Relation:
            assert compose(r1, r2) == oracle[r1][r2], (r1, r2)
    grid = interval_grid(6)
    seen_total = 0
    for a in grid:
        for b in grid:
            r = classify(a, b)
            assert isinstance(r, Relation)  # total, single-valued
            assert r is inverse(classify(b, a))
            seen_total += 1
    assert seen_total == len(grid) ** 2
    assert time.time() - started < 10.0
    report(1, "allen-algebra-exactness")


def test_criterion_2_path_consistency_vs_realization():
    started = time.time()
    relations = list(Relation)
    mismatches = 0
    for trial in range(500):
        rng = random.Random(1000 + trial)
        net = IANetwork(list(range(4)))
        for i in range(4):
            for j in range(i + 1, 4):
                net.set_pair(i, j, 1 << rng.choice(relations))
        consistent, _ = resolve_time(net)
        if consistent != realizable(net, max_endpoint=8):
            mismatches += 1
    assert mismatches == 0

    cycle = IANetwork(["a", "b", "c"])
    cycle.set_pair(0, 1, 1 << Relation.BEFORE)
    cycle.set_pair(1, 2, 1 << Relation.BEFORE)
    cycle.set_pair(2, 0, 1 << Relation.BEFORE)  # c before a closes the cycle
    consistent, _ = resolve_time(cycle)
    assert not consistent
    assert time.time() - started < 30.0
    report(2, "path-consistency-verdicts")


def _random_b_graph(rng):
    g = TemporalHypergraph()
    n_nodes = rng.randint(5, 15)
    nodes = [f"n{i}" for i in range(n_nodes)]
    for i in range(rng.randint(4, 18)):
        n_heads = rng.randint(1, min(3, n_nodes - 1))
        heads = rng.sample(nodes, n_heads)
        tail = rng.choice(nodes)
        start = rng.randint(0, 20)
        g.add_event(f"P{rng.randint(0, 3)}", heads, [tail],
                    (start, start + rng.randint(0, 5)))
    return g


def test_criterion_3_b_connectivity_never_violated():
    walks_run = 0
    violations = 0
    for gi in range(20):
        rng = random.Random(2000 + gi)
        g = _random_b_graph(rng)
        entities = list(range(len(g.entities)))
        for w in range(500):
            starts = set(rng.sample(entities, rng.randint(1, 2)))
            state = init_walk(g, starts)
            walk_rng = random.Random(3000 * gi + w)
            while state.step < 6:
                if step(g, state, walk_rng) is not state:
                    break
            walks_run += 1
            replay = set(starts)
            for eid in state.trace:
                event = g.events[eid]
                if not all(h in replay for h in event.heads):
                    violations += 1
                replay.add(event.tails[0])
    assert walks_run == 10_000
    assert violations == 0
    report(3, "b-connectivity")


def _reference_graph():
    # five nodes; four edges enabled at step one with unequal weights
    g = TemporalHypergraph()
    g.add_event("Join", ["a", "b"], ["c"], (0, 1))
    g.add_event("P", ["a"], ["d"], (0, 1))
    g.add_event("Q", ["b"], ["d"], (0, 1))
    g.add_event("R", ["b"], ["e"], (0, 1))
    g.add_event("S", ["d"], ["e"], (2, 3))
    return g


def test_criterion_4_walk_probability_agreement():
    g = _reference_graph()
    starts = {g.entities.id_of("a"), g.entities.id_of("b")}
    probe = init_walk(g, starts)
    enabled = g.enabled_edges(probe.reached, set())
    weights = {e: edge_weight(g, probe, e) for e in enabled}
    total = sum(weights.values())
    expected = {e: w / total for e, w in weights.items()}

    counts = {e: 0 for e in enabled}
    n_walks = 100_000
    for w in range(n_walks):
        state = init_walk(g, starts)
        assert step(g, state, random.Random(f"c4:{w}")) is state
        counts[state.trace[0]] += 1
    for e in enabled:
        assert abs(counts[e] / n_walks - expected[e]) < 0.01, e

    # the two-head example is exact: out-degrees 2 and 4, unit masses
    g2 = TemporalHypergraph()
    g2.add_event("Join", ["a", "b"], ["z"], (0, 1))
    g2.add_event("P", ["a"], ["x1"], (0, 1))
    g2.add_event("P", ["b"], ["x2"], (0, 1))
    g2.add_event("P", ["b"], ["x3"], (0, 1))
    g2.add_event("P", ["b"], ["x4"], (0, 1))
    probe2 = init_walk(g2, {g2.entities.id_of("a"), g2.entities.id_of("b")})
    assert edge_weight(g2, probe2, 0) == 0.25
    report(4, "walk-probability-agreement")


def test_criterion_5_rule_matching_oracle_equivalence():
    rng = random.Random(5)
    predicates = ["P", "Q", "R"]
    mismatches = 0
    for trial in range(200):
        g = TemporalHypergraph()
        entities = [f"e{i}" for i in range(rng.randint(2, 5))]
        for _ in range(rng.randint(1, 12)):
            pred = rng.choice(predicates)
            h, t = rng.choice(entities), rng.choice(entities)
            heads = [h] if h == t or rng.random() < 0.7 else [h, t]
            s = rng.randint(0, 8)
            g.add_event(pred, heads, [t], (s, s + rng.randint(0, 4)))
        body = []
        next_var = 2
        for _ in range(rng.randint(1, 3)):
            n_heads = 1 if rng.random() < 0.8 else 2
            head_vars = tuple(
                dict.fromkeys(rng.randint(0, next_var) for _ in range(n_heads))
            )
            tail_vars = (rng.randint(0, next_var + 1),)
            next_var = max((next_var,) + head_vars + tail_vars) + 1
            body.append(Atom(rng.choice(predicates), head_vars, tail_vars))
        body = tuple(body)
        net = IANetwork(list(range(len(body))))
        for i in range(len(body)):
            for j in range(i + 1, len(body)):
                if rng.random() < 0.5:
                    mask = 0
                    for r in rng.sample(list(Relation), rng.randint(1, 6)):
                        mask |= 1 << r
                    net.set_pair(i, j, mask)
        head = Atom("Goal", (), ())
        rule = TemporalRule(head, body, net, signature_of(head, body))
        query = Query("Goal")
        from rulewalk.rules import evaluate

        if evaluate(rule, g, query) != grounding_exists_bruteforce(rule, g, query):
            mismatches += 1
    assert mismatches == 0
    report(5, "rule-matching-oracle-equivalence")


def test_criterion_6_learner_checks():
    rng = random.Random(6)
    worst = 0.0
    for _ in range(100):
        features = np.array([[rng.random() for _ in range(4)] for _ in range(5)])
        labels = np.array([float(rng.random() < 0.5) for _ in range(5)])
        matrix = learner.FeatureMatrix(features, labels)
        params = learner.ModelParams(
            np.array([rng.uniform(-2, 2) for _ in range(4)]), rng.uniform(-1, 1)
        )
        l2 = rng.choice([0.0, 1e-3, 1e-2])
        grad_theta, grad_bias = learner.gradient(matrix, params, l2)
        fd_theta, fd_bias = finite_difference_gradient(matrix, params, l2)
        for a, b in zip(grad_theta, fd_theta):
            worst = max(worst, abs(a - b) / (abs(a) + 1e-12))
        worst = max(worst, abs(grad_bias - fd_bias) / (abs(grad_bias) + 1e-12))
    assert worst < 1e-5

    features = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    matrix = learner.FeatureMatrix(features, labels)
    zero = learner.ModelParams(np.zeros(2), 0.0)
    assert abs(learner.loss(matrix, zero, 0.0) - math.log(2)) <= 1e-12

    result = learner.train(matrix, lr=1.0, epochs=1000, l2=0.0)
    preds = [learner.score(row, result.params) >= 0.5 for row in matrix.features]
    assert preds == [bool(y) for y in labels]
    report(6, "learner-gradient-and-training")


PLANTED_LINE = "w=0.0 Target() <- A(X0->X1) , B(X1->X2) | 0 {BEFORE} 1"


def _variant_metrics(seed):
    from rulewalk.synthetic import SynthSpec, synth_generate

    planted = parse_rule(PLANTED_LINE)
    spec = SynthSpec(planted, num_pos=50, num_neg=50, noise_events=10, seed=seed)
    graphs, labels = synth_generate(spec)
    query_set = build_classification_queries(labels, "Target")
    train_set, test_set = split_queries(query_set, 0.8, seed)
    params = MiningParams(num_walks=300, max_steps=2, seed=seed, rho=1.0)

    rules_plain = mine_rules(graphs, train_set, params, MODE_RELATIONAL)
    rules_pc = mine_rules(graphs, train_set, params, MODE_TEMPORAL)

    ranks_plain = ranked_evaluation(score_pools(rules_plain, graphs, test_set), test_set)
    ranks_pc = ranked_evaluation(score_pools(rules_pc, graphs, test_set), test_set)

    queries = list(train_set.positives) + list(train_set.negatives)
    y = [1.0] * len(train_set.positives) + [0.0] * len(train_set.negatives)
    top = rules_pc[:25]
    matrix = learner.build_features(top, graphs, queries, y)
    trained = learner.train(matrix)
    ranks_trained = ranked_evaluation(
        score_pools(top, graphs, test_set, trained.params), test_set
    )
    return (
        (mrr(ranks_plain), hits_at_k(ranks_plain, 3)),
        (mrr(ranks_pc), hits_at_k(ranks_pc, 3)),
        (mrr(ranks_trained), hits_at_k(ranks_trained, 3)),
    )


def test_criterion_7_planted_rule_recovery():
    started = time.time()
    for seed in (42, 43, 44):
        plain, with_pc, trained = _variant_metrics(seed)
        assert trained[1] >= 90.0, f"seed {seed}: trained hits@3 {trained[1]}"
        assert trained[0] >= 0.8, f"seed {seed}: trained mrr {trained[0]}"
        assert with_pc[0] > plain[0], f"seed {seed}: PC variant must beat plain"
        assert trained[0] >= with_pc[0], f"seed {seed}: training must not hurt"
    assert time.time() - started < 120.0
    report(7, "planted-rule-recovery")


def test_criterion_8_determinism_and_round_trips(tmp_path):
    rule_file = tmp_path / "planted.rule"
    rule_file.write_text(PLANTED_LINE + "\n")

    def pipeline(base):
        base.mkdir()
        corpus = str(base / "corpus")
        rules = str(base / "rules.txt")
        model = str(base / "model.txt")
        metrics = str(base / "metrics.json")
        assert cli_main(["gen", "--rule", str(rule_file), "--out", corpus,
                         "--num-pos", "10", "--num-neg", "10", "--noise", "5",
                         "--seed", "42"]) == 0
        assert cli_main(["train", "--data", corpus, "--target-label", "Target",
                         "--walks", "150", "--max-steps", "2", "--seed", "42",
                         "--out", rules, "--model-out", model]) == 0
        assert cli_main(["eval", "--data", corpus, "--target-label", "Target",
                         "--rules", rules, "--model", model, "--seed", "42",
                         "--out", metrics]) == 0
        return corpus, rules, model, metrics

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    for name in sorted(os.listdir(first[0])):
        assert filecmp.cmp(os.path.join(first[0], name),
                           os.path.join(second[0], name), shallow=False)
    for fa, fb in zip(first[1:], second[1:]):
        assert Path(fa).read_bytes() == Path(fb).read_bytes()

    rng = random.Random(8)
    from rulewalk.convert import clique_expand

    for trial in range(100):
        g = TemporalHypergraph()
        expected_expansion = 0
        for _ in range(rng.randint(0, 10)):
            n_heads = rng.randint(1, 3)
            heads = [f"h{trial}_{i}" for i in range(n_heads)]
            tail = f"t{rng.randint(0, 4)}"
            s = rng.randint(-20, 20)
            g.add_event(f"P{rng.randint(0, 2)}x", heads, [tail],
                        (s, s + rng.randint(0, 9)))
            expected_expansion += n_heads
        path = tmp_path / f"rt{trial}.thg"
        save_graph(g, path, label=f"L{trial}")
        loaded, label = load_graph(path)
        assert label == f"L{trial}"
        assert [
            (loaded.event_names(e.event_id), tuple(e.interval))
            for e in loaded.events
        ] == [
            (g.event_names(e.event_id), tuple(e.interval)) for e in g.events
        ]
        assert len(clique_expand(g)) == expected_expansion
    report(8, "determinism-and-round-trips")


def test_criterion_9_temporal_kg_adapter():
    snapshots = [
        (1, [("alice", "likes", "bob"), ("bob", "knows", "carol")]),
        (2, [("alice", "likes", "carol"), ("carol", "knows", "bob")]),
        (3, [("alice", "visits", "dave")]),
    ]
    g = temporal_kg_adapt(snapshots)
    assert g.is_b_graph()

    bridges = {
        (g.event_names(e.event_id)[1][0], g.event_names(e.event_id)[2][0])
        for e in g.events
        if g.predicates.name_of(e.predicate) == "IsSameEnt"
    }
    assert bridges == {
        ("alice@1", "alice@2"),
        ("bob@1", "bob@2"),
        ("carol@1", "carol@2"),
        ("alice@2", "alice@3"),
    }

    # a walk can only reach carol@2 from alice@1 through an IsSameEnt bridge
    query = Query("Reaches", ("alice@1",), ("carol@2",))
    params = WalkParams(max_steps=4, num_walks=400, seed=9)
    results = sample_walks(g, query, params)
    crossing = [
        trace
        for trace, _ in results
        if any(
            g.predicates.name_of(g.events[eid].predicate) == "IsSameEnt"
            for eid in trace
        )
    ]
    assert crossing
    report(9, "temporal-kg-adapter")
