"""Scorer, loss, analytic gradient vs finite differences, training."""
import functools
import hashlib
import math
import random
import re

import numpy as np
import pytest

from rulewalk import learner
from rulewalk.dataio import DataFormatError
from rulewalk.hypergraph import TemporalHypergraph
from rulewalk.learner import (
    FeatureMatrix,
    ModelParams,
    build_features,
    gradient,
    loss,
    scores,
    train,
)
from rulewalk.rules import GroundingBudgetError, Query, evaluate, parse_rule
from rulewalk.walk import reach_probability

from oracles import (
    finite_difference_gradient,
    grounding_exists_bruteforce,
    reach_score_per_target,
)


def toy_matrix():
    # linearly separable on the first feature
    features = np.array(
        [[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]]
    )
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    return FeatureMatrix(features, labels)


def test_score_at_zero_is_half():
    params = ModelParams(np.zeros(3), 0.0)
    assert scores(np.array([[1.0, 0.0, 1.0]]), params)[0] == 0.5


def test_score_closed_form():
    params = ModelParams(np.array([10.0]), 0.0)
    assert scores(np.array([[1.0]]), params)[0] == pytest.approx(
        1.0 / (1.0 + math.exp(-10)), abs=1e-12
    )
    assert scores(np.array([[0.0]]), params)[0] == 0.5


def test_score_dimension_mismatch():
    params = ModelParams(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        scores(np.array([[1.0]]), params)


def test_score_monotone_in_active_weight():
    row = np.array([[1.0, 0.0]])
    low = ModelParams(np.array([0.5, 3.0]), 0.0)
    high = ModelParams(np.array([1.5, 3.0]), 0.0)
    assert scores(row, high)[0] > scores(row, low)[0]


def test_loss_at_zero_is_ln2():
    matrix = toy_matrix()
    params = ModelParams(np.zeros(2), 0.0)
    assert loss(matrix, params, l2=0.0) == pytest.approx(math.log(2), abs=1e-12)


def test_l2_term_is_exact():
    matrix = toy_matrix()
    params = ModelParams(np.array([1.0, 1.0]), 0.0)
    assert loss(matrix, params, 0.1) - loss(matrix, params, 0.0) == pytest.approx(0.2)


def test_gradient_matches_finite_differences():
    rng = random.Random(21)
    worst = 0.0
    for _ in range(100):
        n, m = 5, 4
        features = np.array(
            [[rng.random() for _ in range(m)] for _ in range(n)]
        )
        labels = np.array([float(rng.random() < 0.5) for _ in range(n)])
        matrix = FeatureMatrix(features, labels)
        params = ModelParams(
            np.array([rng.uniform(-2, 2) for _ in range(m)]), rng.uniform(-1, 1)
        )
        l2 = rng.choice([0.0, 1e-3, 1e-2])
        grad_theta, grad_bias = gradient(matrix, params, l2)
        fd_theta, fd_bias = finite_difference_gradient(matrix, params, l2)
        for a, b in zip(grad_theta, fd_theta):
            rel = abs(a - b) / (abs(a) + 1e-12)
            worst = max(worst, rel)
        worst = max(worst, abs(grad_bias - fd_bias) / (abs(grad_bias) + 1e-12))
    assert worst < 1e-5


def test_gradient_of_inactive_feature_is_pure_l2():
    features = np.array([[1.0, 0.0], [1.0, 0.0]])
    labels = np.array([1.0, 0.0])
    matrix = FeatureMatrix(features, labels)
    params = ModelParams(np.array([0.3, 0.7]), 0.0)
    grad_theta, _ = gradient(matrix, params, l2=0.05)
    assert grad_theta[1] == pytest.approx(2 * 0.05 * 0.7)


def test_gradient_balanced_symmetry():
    features = np.array([[1.0], [1.0]])
    labels = np.array([1.0, 0.0])
    matrix = FeatureMatrix(features, labels)
    _, grad_bias = gradient(matrix, ModelParams(np.zeros(1), 0.0), 0.0)
    assert grad_bias == 0.0


def test_train_separable_reaches_full_accuracy():
    matrix = toy_matrix()
    result = train(matrix, lr=1.0, epochs=1000, l2=0.0)
    preds = (scores(matrix.features, result.params) >= 0.5).tolist()
    assert preds == [bool(y) for y in matrix.labels]
    assert result.losses[-1] < 0.01


def test_train_loss_monotone_at_small_lr():
    matrix = toy_matrix()
    result = train(matrix, lr=0.01, epochs=200, l2=1e-4)
    diffs = np.diff(result.losses)
    if not (diffs <= 1e-12).all():
        result = train(matrix, lr=0.005, epochs=200, l2=1e-4)
        diffs = np.diff(result.losses)
        assert (diffs <= 1e-12).all()


def test_train_validates_hyperparameters():
    matrix = toy_matrix()
    with pytest.raises(ValueError):
        train(matrix, lr=0.1, epochs=0)
    with pytest.raises(ValueError):
        train(matrix, lr=0.0)
    with pytest.raises(ValueError):
        train(matrix, l2=-1e-4)


def test_train_is_deterministic():
    matrix = toy_matrix()
    a = train(matrix, lr=0.3, epochs=50)
    b = train(matrix, lr=0.3, epochs=50)
    assert a.losses == b.losses
    assert np.array_equal(a.params.theta, b.params.theta)


def _gradient_then_loss(matrix, lr, epochs, l2):
    """The fit as a plain loop: `gradient`, a step, then `loss` at the new parameters."""
    params = ModelParams(np.zeros(matrix.features.shape[1]), 0.0)
    losses = []
    for _ in range(epochs):
        grad_theta, grad_bias = gradient(matrix, params, l2)
        params.theta = params.theta - lr * grad_theta
        params.bias = params.bias - lr * grad_bias
        losses.append(loss(matrix, params, l2))
    return params, losses


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_matches_a_gradient_then_loss_loop_bit_for_bit(seed):
    # a 320x9 matrix of mostly zeros and reach-like values in (0, 1]
    rng = np.random.default_rng(seed)
    features = np.where(rng.random((320, 9)) < 0.2, rng.random((320, 9)), 0.0)
    labels = (rng.random(320) < 0.25).astype(float)
    matrix = FeatureMatrix(features, labels)
    result = train(matrix, lr=0.1, epochs=500, l2=1e-4)
    params, losses = _gradient_then_loss(matrix, 0.1, 500, 1e-4)
    assert result.losses == losses
    assert result.params.theta.tobytes() == params.theta.tobytes()
    assert result.params.bias == params.bias


def test_row_permutation_reaches_same_optimum():
    matrix = toy_matrix()
    order = [2, 0, 3, 1]
    permuted = FeatureMatrix(matrix.features[order], matrix.labels[order])
    a = train(matrix, lr=0.2, epochs=800, l2=1e-3)
    b = train(permuted, lr=0.2, epochs=800, l2=1e-3)
    assert abs(a.losses[-1] - b.losses[-1]) < 1e-8


def test_model_file_round_trip(tmp_path):
    from rulewalk.constraints import IANetwork
    from rulewalk.rules import Atom, TemporalRule

    head = Atom("L", (), ())
    rules = []
    for name in ("P", "Q"):
        body = (Atom(name, (0,), (1,)),)
        rules.append(TemporalRule(head, body, IANetwork([0])))
    params = ModelParams(np.array([0.123456789012345678, -2.5]), 0.75)
    path = tmp_path / "model.txt"
    learner.save_model(path, params, rules)
    loaded = learner.load_model(path, rules)
    assert loaded.bias == params.bias
    assert loaded.theta[0] == params.theta[0]
    assert loaded.theta[1] == params.theta[1]
    # weights come back in the order of the rules asked for
    assert learner.load_model(path, rules[::-1]).theta.tolist() == [-2.5, params.theta[0]]
    other = TemporalRule(head, (Atom("R", (0,), (1,)),), IANetwork([0]))
    with pytest.raises(DataFormatError, match="no weight for rule 'L\\(\\) <- R\\(X0->X1\\)'"):
        learner.load_model(path, rules + [other])
    # a weight for a rule not asked for, or a second weight for one rule,
    # means the file holds another model than the one the rules were fit in
    with pytest.raises(DataFormatError,
                       match=rf"^{re.escape(str(path))}: .*'L\(\) <- Q\(X0->X1\)'"):
        learner.load_model(path, rules[:1])
    repeated = tmp_path / "repeated.txt"
    repeated.write_text(path.read_text() + "L() <- P(X0->X1)\t5.0\n")
    with pytest.raises(DataFormatError,
                       match=rf"^{re.escape(str(repeated))}: .*'L\(\) <- P\(X0->X1\)'"):
        learner.load_model(repeated, rules)


# -- feature rows ------------------------------------------------------------

EVENT_RULES = [
    "w=0.0 p0(X0->X1) <- p1(X0->X1)",
    "w=0.0 p0(X0->X1) <- p1(X0->X2) , p2(X2->X1) | 0 {BEFORE,MEETS,OVERLAPS} 1",
    "w=0.0 p0(X0->X1) <- p2(X0->X1) , p1(X0->X1)",
    "w=0.0 p0(X0,X2->X1) <- p1(X0->X1) , p2(X2->X1)",
]


def _event_graph(seed):
    # 60 single-tail events over 8 entities, every fifth with a second head
    rng = random.Random(seed)
    g = TemporalHypergraph()
    for i in range(60):
        head, tail = rng.sample(range(8), 2)
        heads = [f"e{head}"]
        if i % 5 == 0:
            heads.append(f"e{rng.choice([e for e in range(8) if e not in (head, tail)])}")
        start = rng.randrange(40)
        g.add_event(f"p{i % 3}", heads, [f"e{tail}"], (start, start + rng.randrange(6)))
    return g


CLASS_RULE = "w=0.0 p0() <- p1(X0,X1->X2) , p2(X2->X0) | 0 {BEFORE,MEETS} 1"


def _feature_task(seed):
    """The rules, four event graphs, and their queries: in the first two
    graphs, every event's heads against every tail; then one classification
    query per graph."""
    rules = [parse_rule(line) for line in EVENT_RULES + [CLASS_RULE]]
    graphs = [_event_graph(seed), _event_graph(seed + 100),
              _event_graph(seed + 1), _event_graph(seed + 2)]
    queries = []
    for index, g in enumerate(graphs[:2]):
        for event in g.events:
            for tail in range(len(g.entities)):
                queries.append(Query("p0", event.heads, (tail,), graph_index=index,
                                     event_id=event.event_id))
    queries += [Query("p0", graph_index=index) for index in range(len(graphs))]
    return rules, graphs, queries


@functools.cache
def _verdicts_per_query(seed):
    """The brute-force verdict per query and rule, shared by both scorers."""
    rules, graphs, queries = _feature_task(seed)
    verdicts = {}
    for query in queries:
        for col, rule in enumerate(rules):
            key = (query.graph_index, query.heads, query.tails, col)
            if key not in verdicts:
                verdicts[key] = grounding_exists_bruteforce(
                    rule, graphs[query.graph_index], query)
    return verdicts


def _feature_per_query(seed, scorer):
    """The brute-force verdict and one per-target reach score per query and rule."""
    rules, graphs, queries = _feature_task(seed)
    verdicts = _verdicts_per_query(seed)
    rows = []
    for query in queries:
        graph = graphs[query.graph_index]
        row = []
        for col, rule in enumerate(rules):
            value = 1.0 if verdicts[query.graph_index, query.heads, query.tails, col] else 0.0
            if value and scorer == "reach" and query.heads and query.tails:
                value = min(1.0, reach_score_per_target(
                    graph, set(query.heads), query.tails[0], len(rule.body)))
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=float)


def _features(seed, scorer):
    rules, graphs, queries = _feature_task(seed)
    return build_features(rules, graphs, queries, [0.0] * len(queries), scorer).features


@pytest.mark.parametrize("scorer", ["binary", "reach"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_build_features_per_head_equals_the_feature_per_query(scorer, seed):
    # event queries on two graphs, each head tuple against every tail it
    # lacks, and a classification query on each of four graphs
    features = _features(seed, scorer)
    expected = _feature_per_query(seed, scorer)
    assert features.tobytes() == expected.tobytes()
    assert 0 < np.count_nonzero(features) < features.size / 2
    # the classification rule matches some graphs and misses others
    assert set(features[-4:, -1].tolist()) == {0.0, 1.0}


@pytest.mark.parametrize("scorer, digest", [
    ("binary", "992a84fdba421c194dd98860e8268e9692a6b152a7b42e289002a1680c4ac957"),
    ("reach", "5f6d714c34914f524f0eefeb53e4b5efc18f89572c6a24b7cc35cfbd0d78e777"),
])
def test_build_features_on_the_event_graphs_is_pinned(scorer, digest):
    # the reach scorer weights a match by its tail's reach score, so on these
    # graphs the two matrices differ; the digests are those of the release
    assert hashlib.sha256(_features(1, scorer).tobytes()).hexdigest() == digest


def test_the_reach_feature_is_capped_at_exactly_1():
    # a's one edge gives b a reach score of exactly 1; from the heads a and
    # c, two edges converge on b for a score of 2: both rows read 1.0
    g = TemporalHypergraph()
    g.add_event("p1", ["a"], ["b"], (0, 1))
    g.add_event("p2", ["c"], ["b"], (2, 3))
    a, b, c = (g.entities[name] for name in "abc")
    assert reach_probability(g, {a}, 1) == {b: 1.0}
    assert reach_probability(g, {a, c}, 2) == {b: 2.0}
    rules = [parse_rule(EVENT_RULES[0]), parse_rule(EVENT_RULES[3])]
    queries = [Query("p0", (a,), (b,)), Query("p0", (a, c), (b,))]
    matrix = build_features(rules, [g], queries, [1.0, 1.0], scorer="reach")
    assert matrix.features.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_the_grounding_budget_bounds_one_search_per_rule_and_query_head(monkeypatch):
    # ten p1 events from head a; each query names one of their tails
    g = TemporalHypergraph()
    for i in range(10):
        g.add_event("p1", ["a"], [f"b{i}"], (i, i + 1))
    rule = parse_rule(EVENT_RULES[0])
    a = g.entities["a"]
    queries = [Query("p0", (a,), (g.entities[f"b{i}"],)) for i in range(10)]

    def least_budget(run):
        for budget in range(1, 100):
            monkeypatch.setattr("rulewalk.rules.GROUNDING_BUDGET", budget)
            try:
                run()
            except GroundingBudgetError:
                continue
            return budget
        raise AssertionError("no budget below 100 was enough")

    def build():
        return build_features([rule], [g], queries, [1.0] * 10)

    # the search from a binds a (1 step), then per event tries it, binds its
    # head and its tail, and reads the tail off: 1 + 10 * 4 steps; a query
    # that names its tail runs the same search and looks the tail up
    per_head = least_budget(build)
    assert per_head == 41
    assert max(least_budget(lambda q=q: evaluate(rule, g, q)) for q in queries) == per_head
    monkeypatch.setattr("rulewalk.rules.GROUNDING_BUDGET", per_head - 1)
    with pytest.raises(GroundingBudgetError) as info:
        build()
    assert f"grounding search for rule {rule.signature} tried more than 40 " in str(info.value)
    monkeypatch.setattr("rulewalk.rules.GROUNDING_BUDGET", per_head)
    assert build().features.tolist() == [[1.0]] * 10
