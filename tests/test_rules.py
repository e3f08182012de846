"""Rule construction, matching vs the brute-force oracle, text round-trip."""
import random

import pytest

from rulewalk.allen import FULL_SET, Relation, rel_set
from rulewalk.constraints import IANetwork
from rulewalk.hypergraph import Interval, TemporalHypergraph
from rulewalk.rules import (
    Atom,
    Query,
    RuleError,
    TemporalRule,
    chain_connected,
    coverage_filter,
    coverage_span,
    evaluate,
    format_rule,
    iter_groundings,
    parse_rule,
    signature_of,
    trace_to_rule,
)

from oracles import from_observed, grounding_exists_bruteforce

R = Relation


def cooking_graph():
    g = TemporalHypergraph()
    g.add_event("Put", ["bacon"], ["pan"], (3, 5))
    g.add_event("Fry", ["pan"], ["pan"], (6, 9))
    return g


def cooked_rule():
    g = cooking_graph()
    net = from_observed([(0, g.events[0].interval), (1, g.events[1].interval)])
    query = Query("Cooked", ("bacon",), ("pan",))
    return g, trace_to_rule(g, [0, 1], net, query)


def test_trace_to_rule_cooked_example():
    g, rule = cooked_rule()
    assert rule.signature == "Cooked(X0->X1) <- Put(X0->X1) , Fry(X1->X1)"
    assert rule.time_net.cells[0][1] == rel_set(R.BEFORE)
    assert evaluate(rule, g, Query("Cooked", ("bacon",), ("pan",)))


def test_single_edge_trace():
    g = TemporalHypergraph()
    g.add_event("Put", ["a"], ["b"], (1, 2))
    net = from_observed([(0, g.events[0].interval)])
    rule = trace_to_rule(g, [0], net, Query("Goal", ("a",), ("b",)))
    assert len(rule.body) == 1
    assert rule.time_net.n == 1
    assert rule.time_net.cells[0][0] == rel_set(R.EQUAL)


def test_same_trace_same_signature():
    _, rule_a = cooked_rule()
    _, rule_b = cooked_rule()
    assert rule_a.signature == rule_b.signature


def test_signature_invariant_under_entity_renaming():
    def build(names):
        g = TemporalHypergraph()
        # interleave an unrelated event so entity ids shift
        g.add_event("Zzz", [names["noise"]], [names["noise2"]], (0, 0))
        g.add_event("Mix", [names["onion"], names["garlic"]], [names["bowl"]], (1, 2))
        g.add_event("Heat", [names["bowl"]], [names["soup"]], (4, 5))
        net = from_observed([(1, g.events[1].interval), (2, g.events[2].interval)])
        q = Query("Done", (names["onion"], names["garlic"]), (names["soup"],))
        return trace_to_rule(g, [1, 2], net, q)

    plain = {n: n for n in ("noise", "noise2", "onion", "garlic", "bowl", "soup")}
    renamed = {n: f"zz_{i}_{n}" for i, n in enumerate(sorted(plain, reverse=True))}
    assert build(plain).signature == build(renamed).signature


def test_empty_trace_rejected():
    g = cooking_graph()
    with pytest.raises(RuleError):
        trace_to_rule(g, [], None, Query("Cooked"))


def test_net_must_cover_trace():
    g = cooking_graph()
    net = from_observed([(0, g.events[0].interval)])
    with pytest.raises(RuleError):
        trace_to_rule(g, [0, 1], net, Query("Cooked", ("bacon",), ("pan",)))


def test_disconnected_trace_rejected():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))
    g.add_event("Q", ["c"], ["d"], (2, 3))
    assert not chain_connected(g, [0, 1], Query("L"))
    net = from_observed([(0, g.events[0].interval), (1, g.events[1].interval)])
    with pytest.raises(RuleError):
        trace_to_rule(g, [0, 1], net, Query("L"))
    # the query's entities can seed the chain
    assert chain_connected(g, [0, 1], Query("L", ("a", "c"), ("d",)))


def test_class_atoms_appended_once_per_variable():
    g = TemporalHypergraph()
    g.add_event("Put", ["bacon"], ["pan"], (3, 5))
    g.add_event("Bacon", ["bacon"], ["bacon"], (0, 10))
    g.add_event("Bacon", ["bacon"], ["bacon"], (0, 11))  # second label ignored
    net = from_observed([(0, g.events[0].interval)])
    rule = trace_to_rule(g, [0], net, Query("Cooked", ("bacon",), ("pan",)))
    assert rule.signature == "Cooked(X0->X1) <- Put(X0->X1) , Bacon(X0->X0)"
    assert rule.time_net.n == 2
    # observed relation between Put and the class fact
    assert rule.time_net.cells[1][0] == rel_set(R.CONTAINS)


def test_evaluate_rejects_wrong_temporal_order():
    _, rule = cooked_rule()
    g = TemporalHypergraph()
    g.add_event("Put", ["bacon"], ["pan"], (6, 9))
    g.add_event("Fry", ["pan"], ["pan"], (3, 5))  # Fry precedes Put
    assert not evaluate(rule, g, Query("Cooked", ("bacon",), ("pan",)))


def test_evaluate_full_net_is_relational_only():
    _, rule = cooked_rule()
    relational = TemporalRule(
        rule.head, rule.body, IANetwork([0, 1]), rule.signature
    )
    g = TemporalHypergraph()
    g.add_event("Put", ["bacon"], ["pan"], (6, 9))
    g.add_event("Fry", ["pan"], ["pan"], (3, 5))
    assert evaluate(relational, g, Query("Cooked", ("bacon",), ("pan",)))


def test_evaluate_unknown_query_entity_is_false():
    g, rule = cooked_rule()
    assert not evaluate(rule, g, Query("Cooked", ("ghost",), ("pan",)))


def test_evaluate_budget_exhaustion_flags_diagnostics():
    g = TemporalHypergraph()
    for i in range(10):
        g.add_event("P", ["a"], [f"b{i}"], (0, 1))
    head = Atom("Goal", (), ())
    body = (Atom("P", (0,), (1,)), Atom("P", (0,), (2,)))
    net = IANetwork([0, 1])
    net.set_pair(0, 1, rel_set(R.BEFORE))  # impossible: all P intervals equal
    rule = TemporalRule(head, body, net, signature_of(head, body))
    diag = {}
    assert not evaluate(rule, g, Query("Goal"), budget=3, diagnostics=diag)
    assert diag.get("budget_exhausted")
    # with room to finish, the verdict is an honest False without the flag
    diag = {}
    assert not evaluate(rule, g, Query("Goal"), budget=10_000, diagnostics=diag)
    assert not diag.get("budget_exhausted")


def test_coverage_span():
    g = TemporalHypergraph()
    g.add_event("A", ["a"], ["b"], (3, 5))
    g.add_event("B", ["b"], ["c"], (6, 9))
    g.add_event("C", ["c"], ["d"], (1, 10))
    grounding = next(iter_groundings(
        _simple_rule([("A", 0, 1), ("B", 1, 2)]), g, Query("L")
    ))
    assert coverage_span(grounding, g) == (3, 9)


def _simple_rule(body_spec, cells=None):
    body = tuple(Atom(p, (h,), (t,)) for p, h, t in body_spec)
    head = Atom("L", (), ())
    net = IANetwork(list(range(len(body))))
    if cells:
        for i, j, s in cells:
            net.set_pair(i, j, s)
    return TemporalRule(head, body, net, signature_of(head, body))


def test_coverage_filter_thresholds():
    g = TemporalHypergraph()
    g.add_event("A", ["a"], ["b"], (0, 30))
    g.add_event("B", ["b"], ["c"], (40, 60))
    g.add_event("Pad", ["b"], ["d"], (0, 100))
    rule = _simple_rule([("A", 0, 1), ("B", 1, 2)])
    assert not coverage_filter(rule, g, 1.0)
    assert coverage_filter(rule, g, 0.5)  # span (0,60) vs graph (0,100)
    full = _simple_rule([("A", 0, 1), ("Pad", 1, 2)])
    assert coverage_filter(full, g, 1.0)
    with pytest.raises(ValueError):
        coverage_filter(rule, g, 0.0)


def test_evaluate_agrees_with_bruteforce_oracle():
    rng = random.Random(13)
    predicates = ["P", "Q", "R"]
    mismatches = 0
    for trial in range(60):
        g = TemporalHypergraph()
        n_events = rng.randint(1, 12)
        entities = [f"e{i}" for i in range(rng.randint(2, 5))]
        for _ in range(n_events):
            pred = rng.choice(predicates)
            h = rng.choice(entities)
            t = rng.choice(entities)
            s = rng.randint(0, 8)
            e = rng.randint(s, 8)
            heads = [h] if h == t or rng.random() < 0.7 else [h, t]
            g.add_event(pred, heads, [t], (s, e))
        body = []
        n_atoms = rng.randint(1, 3)
        next_var = 2
        for i in range(n_atoms):
            pred = rng.choice(predicates)
            n_heads = 1 if rng.random() < 0.8 else 2
            head_vars = tuple(rng.randint(0, next_var) for _ in range(n_heads))
            if len(set(head_vars)) != len(head_vars):
                head_vars = head_vars[:1]
            tail_vars = (rng.randint(0, next_var + 1),)
            next_var = max((next_var,) + head_vars + tail_vars) + 1
            body.append(Atom(pred, head_vars, tail_vars))
        head = Atom("Goal", (), ())
        net = IANetwork(list(range(len(body))))
        for i in range(len(body)):
            for j in range(i + 1, len(body)):
                if rng.random() < 0.5:
                    chosen = rng.sample(list(Relation), rng.randint(1, 6))
                    net.set_pair(i, j, rel_set(*chosen))
        rule = TemporalRule(head, tuple(body), net, signature_of(head, tuple(body)))
        query = Query("Goal")
        if evaluate(rule, g, query) != grounding_exists_bruteforce(rule, g, query):
            mismatches += 1
    assert mismatches == 0


def test_evaluate_with_bound_query_entities_agrees_with_bruteforce_oracle():
    # event queries bind the head atom's variables, so body atoms are
    # narrowed through the head/tail indices from the first atom on
    rng = random.Random(29)
    shapes = {"P": 1, "Q": 1, "M": 2}  # predicate -> tail count
    verdicts = []
    for trial in range(150):
        g = TemporalHypergraph()
        entities = [f"e{i}" for i in range(rng.randint(2, 5))]
        for _ in range(rng.randint(1, 14)):
            pred = rng.choice(sorted(shapes))
            heads = rng.sample(entities, 1 if rng.random() < 0.7 else 2)
            tails = rng.sample(entities, shapes[pred])
            s = rng.randint(0, 8)
            g.add_event(pred, heads, tails, (s, rng.randint(s, 8)))
        n_heads = 1 if rng.random() < 0.7 else 2
        head = Atom("Goal", tuple(range(n_heads)), (n_heads,))
        next_var = n_heads + 1
        body = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(sorted(shapes))
            atom_heads = tuple(
                dict.fromkeys(rng.randint(0, next_var) for _ in range(rng.randint(1, 2)))
            )
            atom_tails = tuple(
                dict.fromkeys(rng.randint(0, next_var + 1) for _ in range(shapes[pred]))
            )
            if len(atom_tails) != shapes[pred]:
                atom_tails = (next_var + 1, next_var + 2)[: shapes[pred]]
            next_var = max((next_var,) + atom_heads + atom_tails) + 1
            body.append(Atom(pred, atom_heads, atom_tails))
        body = tuple(body)
        net = IANetwork(list(range(len(body))))
        for i in range(len(body)):
            for j in range(i + 1, len(body)):
                if rng.random() < 0.4:
                    chosen = rng.sample(list(Relation), rng.randint(2, 8))
                    net.set_pair(i, j, rel_set(*chosen))
        rule = TemporalRule(head, body, net, signature_of(head, body))
        named = [n for n in entities if n in g.entities]
        if len(named) < n_heads:
            continue
        query = Query("Goal", tuple(rng.sample(named, n_heads)), (rng.choice(named),))
        got = evaluate(rule, g, query)
        assert got == grounding_exists_bruteforce(rule, g, query), (trial, rule.signature)
        verdicts.append(got)
    assert len(verdicts) > 100
    assert 10 <= sum(verdicts) <= len(verdicts) - 10


def test_format_round_trip():
    _, rule = cooked_rule()
    rule.weight = 0.375
    line = format_rule(rule)
    assert line == (
        "w=0.375 Cooked(X0->X1) <- Put(X0->X1) , Fry(X1->X1) | 0 {BEFORE} 1"
    )
    parsed = parse_rule(line)
    assert parsed.signature == rule.signature
    assert parsed.weight == rule.weight
    assert parsed.time_net.cells == rule.time_net.cells
    assert format_rule(parsed) == line


def test_format_omits_full_cells():
    head = Atom("L", (), ())
    body = (Atom("P", (0,), (1,)), Atom("Q", (1,), (2,)))
    rule = TemporalRule(head, body, IANetwork([0, 1]), signature_of(head, body))
    line = format_rule(rule)
    assert "|" not in line
    parsed = parse_rule(line)
    assert parsed.time_net.cells[0][1] == FULL_SET


def test_parse_rule_errors():
    with pytest.raises(RuleError):
        parse_rule("no weight prefix")
    with pytest.raises(RuleError):
        parse_rule("w=1.0 Head(X0->X1)")  # missing body
    with pytest.raises(RuleError):
        parse_rule("w=1.0 H() <- P(X0->X1) | 0 {NOPE} 1")
    with pytest.raises(RuleError):
        parse_rule("w=1.0 H() <- P(X0,X1)")  # no arrow
