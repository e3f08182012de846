"""Rule construction, matching vs the brute-force oracle, text round-trip."""
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewalk.allen import FULL_SET, Relation, rel_set
from rulewalk.constraints import IANetwork
from rulewalk.dataio import DataFormatError
from rulewalk.hypergraph import GraphError, Interval, TemporalHypergraph
from rulewalk.rules import (
    Atom,
    GroundingBudgetError,
    Query,
    RuleError,
    TemporalRule,
    coverage_filter,
    coverage_span,
    evaluate,
    format_rule,
    iter_groundings,
    parse_rule,
    read_rules,
    trace_network,
    trace_to_rule,
    write_rules,
)
from rulewalk.walk import reach_probability

from oracles import (
    grounding_exists_bruteforce,
    lift_links,
    lift_network_bruteforce,
    reach_score_per_target,
)

R = Relation


def cooking_graph():
    g = TemporalHypergraph()
    g.add_event("Put", ["bacon"], ["pan"], (3, 5))
    g.add_event("Fry", ["pan"], ["pan"], (6, 9))
    return g


def cooked_query(g):
    """Cooked(bacon -> pan), by the entity ids of `g`."""
    return Query("Cooked", (g.entities["bacon"],), (g.entities["pan"],))


def cooked_rule():
    g = cooking_graph()
    return g, trace_to_rule(g, [0, 1], cooked_query(g)).rule()


def test_trace_to_rule_cooked_example():
    g, rule = cooked_rule()
    assert rule.signature == "Cooked(X0->X1) <- Put(X0->X1) , Fry(X1->X1)"
    assert rule.time_net.cells[0][1] == rel_set(R.BEFORE)
    assert evaluate(rule, g, cooked_query(g))


def test_single_edge_trace():
    g = TemporalHypergraph()
    g.add_event("Put", ["a"], ["b"], (1, 2))
    a, b = g.entities["a"], g.entities["b"]
    rule = trace_to_rule(g, [0], Query("Goal", (a,), (b,))).rule()
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
        ids = {n: g.entities[name] for n, name in names.items()}
        q = Query("Done", (ids["onion"], ids["garlic"]), (ids["soup"],))
        return trace_to_rule(g, [1, 2], q)

    plain = {n: n for n in ("noise", "noise2", "onion", "garlic", "bowl", "soup")}
    renamed = {n: f"zz_{i}_{n}" for i, n in enumerate(sorted(plain, reverse=True))}
    assert build(plain).signature == build(renamed).signature


def test_signature_invariant_under_entity_ids():
    # onion and garlic first appear together in Mix's heads: their occurrence
    # patterns, not the order in which the graph interned them, order them
    def build(first, second):
        g = TemporalHypergraph()
        g.add_event("Mix", [first, second], ["bowl"], (1, 2))
        g.add_event("Chop", ["garlic"], ["board"], (3, 4))
        return trace_to_rule(g, [0, 1], Query("Done")).signature

    expected = "Done() <- Mix(X0,X1->X2) , Chop(X1->X3)"
    assert build("onion", "garlic") == build("garlic", "onion") == expected


def test_trace_network_relates_groups_only_through_an_event_that_joins_them():
    g = TemporalHypergraph()
    g.add_event("C", ["b"], ["y"], (2, 3))
    g.add_event("A", ["a"], ["x"], (10, 11))
    g.add_event("J", ["x", "y"], ["c"], (4, 5))
    # C and A share no entity: before J they are two groups, cell FULL_SET
    assert trace_network(g, [0, 1], []).cells[0][1] == FULL_SET
    # J is observed against both; closure derives C before A through it
    net = trace_network(g, [0, 1, 2], [])
    assert net.keys == [0, 1, 2]
    assert net.cells[0][2] == rel_set(R.BEFORE) and net.cells[1][2] == rel_set(R.AFTER)
    assert net.cells[0][1] == rel_set(R.BEFORE)


def test_trace_network_observes_each_group_before_it_meets_another():
    # C, D and A, B form two groups of two events each; J joins them, and E
    # follows J, so E is observed against all five
    g = TemporalHypergraph()
    g.add_event("C", ["b"], ["y"], (9, 10))
    g.add_event("A", ["a"], ["x"], (10, 11))
    g.add_event("D", ["y"], ["v"], (0, 6))
    g.add_event("B", ["x"], ["u"], (12, 14))
    g.add_event("J", ["u", "v"], ["c"], (7, 8))
    g.add_event("E", ["c"], ["w"], (8, 9))
    trace = [0, 1, 2, 3, 4, 5]
    net = trace_network(g, trace, [])
    assert net == lift_network_bruteforce(g, trace)
    # closure derives D BEFORE B through J; C and A, both after J, were
    # never observed together, so C MEETS A is not derived
    assert net.cells[2][3] == rel_set(R.BEFORE)
    assert net.cells[0][1] != rel_set(R.MEETS)


@st.composite
def multi_head_traces(draw):
    # each group's events use the group's own entities; bridge events, which
    # come last in the trace, may name entities of several groups
    groups = [[f"g{i}e{k}" for k in range(3)] for i in range(draw(st.integers(2, 3)))]
    g = TemporalHypergraph()

    def add(names):
        heads = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
        tails = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
        start = draw(st.integers(0, 8))
        # a predicate keeps one tail arity
        g.add_event(draw(st.sampled_from(["P", "Q"])) + str(len(tails)), heads, tails,
                    (start, start + draw(st.integers(0, 4))))
        return len(g.events) - 1

    inner = [add(names) for names in groups for _ in range(draw(st.integers(1, 3)))]
    bridges = [add(sum(groups, [])) for _ in range(draw(st.integers(1, 3)))]
    return g, draw(st.permutations(inner)) + draw(st.permutations(bridges))


@settings(max_examples=300, deadline=None)
@given(multi_head_traces())
def test_trace_network_matches_the_per_event_lift(case):
    g, trace = case
    net = trace_network(g, trace, [])
    expected = lift_network_bruteforce(g, trace)
    assert net.keys == expected.keys == trace
    assert net.cells == expected.cells


@st.composite
def labelled_multi_head_traces(draw):
    """A `multi_head_traces` case whose entities carry 0-2 class labels each."""
    g, trace = draw(multi_head_traces())
    for name in list(g.entity_names):
        for _ in range(draw(st.integers(0, 2))):
            start = draw(st.integers(0, 8))
            g.add_event("L", [name], [name], (start, start + draw(st.integers(0, 4))))
    return g, trace


@settings(max_examples=200, deadline=None)
@given(labelled_multi_head_traces())
def test_lift_network_observes_each_class_event_against_every_node(case):
    g, trace = case
    # a query that names every entity keeps each group's events connected
    lift = trace_to_rule(g, trace, Query("T", tuple(range(len(g.entities)))))
    expected = lift_network_bruteforce(g, trace, lift.class_events)
    assert lift.network().cells == expected.cells


def test_lift_network_closes_once_at_every_binding(monkeypatch):
    # C and A start two groups that J joins, and a and c carry class labels:
    # each event and class event is observed, and the lift is closed once
    import sys

    from rulewalk import constraints

    original, closed = constraints.resolve_time, []

    def counted(net):
        closed.append(list(net.keys))
        return original(net)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("rulewalk.") and getattr(module, "resolve_time", None) is original:
            monkeypatch.setattr(module, "resolve_time", counted)
            patched.add(name)
    assert {"rulewalk.constraints", "rulewalk.rules"} <= patched

    g = TemporalHypergraph()
    g.add_event("C", ["b"], ["y"], (2, 3))
    g.add_event("A", ["a"], ["x"], (10, 11))
    g.add_event("J", ["x", "y"], ["c"], (4, 5))
    g.add_event("L", ["a"], ["a"], (0, 20))
    g.add_event("L", ["c"], ["c"], (6, 7))
    trace = [0, 1, 2]
    lift = trace_to_rule(g, trace, Query("T", (g.entities["a"], g.entities["b"])))
    assert lift.class_events == [3, 4]
    net = lift.network()
    assert closed == [[0, 1, 2, 3, 4]]
    assert net.cells == lift_network_bruteforce(g, trace, lift.class_events).cells


def test_lift_network_raises_when_the_closure_empties_a_cell(monkeypatch):
    # P BEFORE Q BEFORE R, but the stand-in for observe turns R's cell with
    # P into P AFTER R: the closure empties it
    from rulewalk import rules

    real = rules.observe

    def contradicting(net, key, interval_of):
        out = real(net, key, interval_of)
        if out.n == 3:
            out.set_pair(0, 2, rel_set(R.AFTER))
        return out

    monkeypatch.setattr(rules, "observe", contradicting)
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))
    g.add_event("Q", ["b"], ["c"], (2, 3))
    g.add_event("R", ["c"], ["d"], (4, 5))
    lift = trace_to_rule(g, [0, 1, 2], Query("T"))
    with pytest.raises(ValueError, match="inconsistent"):
        lift.network()


def test_empty_trace_rejected():
    g = cooking_graph()
    with pytest.raises(RuleError):
        trace_to_rule(g, [], Query("Cooked"))


def test_trace_to_rule_rejects_an_entity_id_the_graph_lacks():
    g = cooking_graph()
    g.add_event("Wash", ["cloth"], ["sink"], (0, 1))
    pan = g.entities["pan"]
    for ghost in (len(g.entities), -1):
        # a connected trace, and one whose Wash event shares no entity
        for trace in ([0, 1], [0, 2]):
            with pytest.raises(GraphError):
                trace_to_rule(g, trace, Query("Cooked", (ghost,), (pan,)))


def test_disconnected_trace_rejected():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))
    g.add_event("Q", ["c"], ["d"], (2, 3))
    assert trace_to_rule(g, [0, 1], Query("L")) is None
    # the query's entities can seed the chain
    a, c, d = (g.entities[n] for n in ("a", "c", "d"))
    assert trace_to_rule(g, [0, 1], Query("L", (a, c), (d,))) is not None


def test_class_atoms_appended_once_per_variable():
    g = TemporalHypergraph()
    g.add_event("Put", ["bacon"], ["pan"], (3, 5))
    g.add_event("Bacon", ["bacon"], ["bacon"], (0, 10))
    g.add_event("Bacon", ["bacon"], ["bacon"], (0, 11))  # second label ignored
    rule = trace_to_rule(g, [0], cooked_query(g)).rule()
    assert rule.signature == "Cooked(X0->X1) <- Put(X0->X1) , Bacon(X0->X0)"
    assert rule.time_net.n == 2
    # observed relation between Put and the class fact
    assert rule.time_net.cells[1][0] == rel_set(R.CONTAINS)


@st.composite
def lift_cases(draw):
    """A small graph of binary, two-head and class-label self-loop events, any
    trace of distinct event ids, and a query of 0-2 heads and 0-1 tails."""
    g = TemporalHypergraph()
    entities = [f"e{i}" for i in range(draw(st.integers(2, 5)))]

    def add(predicate, heads, tails):
        start = draw(st.integers(0, 8))
        g.add_event(predicate, heads, tails, (start, start + draw(st.integers(0, 4))))

    # labels first, so that most entities carry one, and some two
    for x in entities:
        for _ in range(draw(st.integers(0, 2))):
            add(draw(st.sampled_from(["K", "L"])), [x], [x])
    labels = len(g.events)
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["binary", "two-head", "label"]))
        if kind == "label":
            x = draw(st.sampled_from(entities))
            add("L", [x], [x])
            continue
        heads = draw(st.lists(st.sampled_from(entities), min_size=1 + (kind == "two-head"),
                              max_size=1 + (kind == "two-head"), unique=True))
        add("J" if kind == "two-head" else draw(st.sampled_from(["P", "Q"])),
            heads, [draw(st.sampled_from(entities))])
    # a shuffle, so that a trace often names entities against their id order;
    # it walks the labels of the second loop only
    trace = draw(st.permutations(range(labels, len(g.events))))[:draw(st.integers(1, 4))]
    ids = range(len(g.entities))
    heads = draw(st.lists(st.sampled_from(ids), max_size=2, unique=True))
    tails = draw(st.lists(st.sampled_from(ids), max_size=1))
    return g, trace, Query("T", tuple(heads), tuple(tails))


@settings(max_examples=300, deadline=None)
@given(lift_cases())
def test_trace_to_rule_links_as_the_oracle_says(case):
    g, trace, query = case
    lift = trace_to_rule(g, trace, query)
    expected = lift_links(g, trace, query)
    assert (lift is None) == (expected is None)
    if lift is not None:
        assert lift.class_events == expected


def test_evaluate_rejects_wrong_temporal_order():
    _, rule = cooked_rule()
    g = TemporalHypergraph()
    g.add_event("Put", ["bacon"], ["pan"], (6, 9))
    g.add_event("Fry", ["pan"], ["pan"], (3, 5))  # Fry precedes Put
    assert not evaluate(rule, g, cooked_query(g))


def test_evaluate_full_net_is_relational_only():
    _, rule = cooked_rule()
    relational = TemporalRule(rule.head, rule.body, IANetwork([0, 1]))
    g = TemporalHypergraph()
    g.add_event("Put", ["bacon"], ["pan"], (6, 9))
    g.add_event("Fry", ["pan"], ["pan"], (3, 5))
    assert evaluate(relational, g, cooked_query(g))


def test_evaluate_unknown_query_entity_is_false():
    g, rule = cooked_rule()
    ghost = len(g.entities)  # an id the graph has not interned
    assert not evaluate(rule, g, Query("Cooked", (ghost,), (g.entities["pan"],)))
    assert not evaluate(rule, g, Query("Cooked", (-1,), (g.entities["pan"],)))


def _budget_rule_and_graph():
    """Ten P events sharing head `a`, and a two-atom rule none of them satisfies."""
    g = TemporalHypergraph()
    for i in range(10):
        g.add_event("P", ["a"], [f"b{i}"], (0, 1))
    head = Atom("Goal", (), ())
    body = (Atom("P", (0,), (1,)), Atom("P", (0,), (2,)))
    net = IANetwork([0, 1])
    net.set_pair(0, 1, rel_set(R.BEFORE))  # impossible: all P intervals equal
    return TemporalRule(head, body, net), g


def test_evaluate_raises_when_the_grounding_budget_runs_out(monkeypatch):
    rule, g = _budget_rule_and_graph()
    monkeypatch.setattr("rulewalk.rules.GROUNDING_BUDGET", 3)
    with pytest.raises(GroundingBudgetError) as info:
        evaluate(rule, g, Query("Goal"))
    assert rule.signature in str(info.value) and "3 candidate events" in str(info.value)
    assert isinstance(info.value, RuleError)
    # with room to finish, the verdict is an honest False
    monkeypatch.setattr("rulewalk.rules.GROUNDING_BUDGET", 10_000)
    assert not evaluate(rule, g, Query("Goal"))


def test_coverage_filter_raises_when_the_grounding_budget_runs_out(monkeypatch):
    rule, g = _budget_rule_and_graph()
    monkeypatch.setattr("rulewalk.rules.GROUNDING_BUDGET", 3)
    with pytest.raises(GroundingBudgetError, match="Goal"):
        coverage_filter(rule, g, 0.5)
    monkeypatch.setattr("rulewalk.rules.GROUNDING_BUDGET", 10_000)
    assert not coverage_filter(rule, g, 0.5)


@pytest.mark.parametrize("heads", [8, 9])
def test_the_grounding_budget_counts_the_bindings_of_an_n_ary_atom(monkeypatch, heads):
    # one n-ary event grounds the atom once per order of its heads: 8! or 9!
    # identical groundings, none of which spans the graph
    g = TemporalHypergraph()
    g.add_event("M", [f"h{i}" for i in range(heads)], ["t"], (0, 1))
    g.add_event("N", ["a"], ["b"], (5, 9))
    body = (Atom("M", tuple(range(heads)), (heads,)),)
    rule = TemporalRule(Atom("L", (), ()), body, IANetwork([0]))
    monkeypatch.setattr("rulewalk.rules.GROUNDING_BUDGET", 10)
    with pytest.raises(GroundingBudgetError, match="10 candidate events and bindings"):
        coverage_filter(rule, g, 1.0)


def test_coverage_span():
    g = TemporalHypergraph()
    g.add_event("A", ["a"], ["b"], (3, 5))
    g.add_event("B", ["b"], ["c"], (6, 9))
    g.add_event("C", ["c"], ["d"], (1, 10))
    grounding, tails = next(iter_groundings(
        _simple_rule([("A", 0, 1), ("B", 1, 2)]), g, Query("L")
    ))
    assert tails == ()
    assert coverage_span(grounding, g) == (3, 9)


def _simple_rule(body_spec, cells=None):
    body = tuple(Atom(p, (h,), (t,)) for p, h, t in body_spec)
    head = Atom("L", (), ())
    net = IANetwork(list(range(len(body))))
    if cells:
        for i, j, s in cells:
            net.set_pair(i, j, s)
    return TemporalRule(head, body, net)


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
        rule = TemporalRule(head, tuple(body), net)
        query = Query("Goal")
        if bool(evaluate(rule, g, query)) != grounding_exists_bruteforce(rule, g, query):
            mismatches += 1
    assert mismatches == 0


def test_evaluate_with_bound_query_entities_agrees_with_bruteforce_oracle():
    # event queries bind the head atom's variables, so body atoms are
    # narrowed through the head index from the first atom on
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
        rule = TemporalRule(head, body, net)
        known = [g.entities[n] for n in entities if n in g.entities]
        if len(known) < n_heads:
            continue
        query = Query("Goal", tuple(rng.sample(known, n_heads)), (rng.choice(known),))
        got = bool(evaluate(rule, g, query))
        assert got == grounding_exists_bruteforce(rule, g, query), (trial, rule.signature)
        verdicts.append(got)
    assert len(verdicts) > 100
    assert 10 <= sum(verdicts) <= len(verdicts) - 10


@pytest.mark.parametrize("line, bound_query", [
    # the class atom binds only X2, so B(X1->X2) is bound at its tail alone
    ("w=0.0 Goal() <- C(X2->X2) , B(X1->X2) | 0 {BEFORE,MEETS,OVERLAPS} 1", False),
    # the query binds X0 and X2, and the first atom's head X1 is free
    ("w=0.0 Goal(X0->X2) <- B(X1->X2) , B(X0->X1) | 0 {AFTER,MET_BY} 1", True),
])
def test_an_atom_bound_only_at_its_tail_agrees_with_bruteforce_oracle(line, bound_query):
    rule = parse_rule(line)
    rng = random.Random(31)
    verdicts = []
    for trial in range(150):
        g = TemporalHypergraph()
        entities = [f"e{i}" for i in range(rng.randint(2, 6))]
        for _ in range(rng.randint(1, 12)):
            s = rng.randint(0, 8)
            if rng.random() < 0.3:
                x = rng.choice(entities)
                g.add_event("C", [x], [x], (s, rng.randint(s, 8)))
            else:
                h, t = rng.sample(entities, 2)
                g.add_event("B", [h], [t], (s, rng.randint(s, 8)))
        query = Query("Goal")
        if bound_query:
            known = range(len(g.entities))
            query = Query("Goal", (rng.choice(known),), (rng.choice(known),))
        got = bool(evaluate(rule, g, query))
        assert got == grounding_exists_bruteforce(rule, g, query), trial
        verdicts.append(got)
    assert 10 <= sum(verdicts) <= len(verdicts) - 10


# -- per-head grounding --------------------------------------------------------

#: head atoms of the per-head oracle, each with the body variables it may share
PER_HEAD_SHAPES = {
    "one head, one tail": Atom("Goal", (0,), (1,)),
    "n-ary heads": Atom("Goal", (0, 1), (2,)),
    "multi-entity tails": Atom("Goal", (0,), (1, 2)),
    "a head variable reused as a tail variable": Atom("Goal", (0,), (0, 1)),
    # no body atom names X9: the query's tail may be any entity of the graph
    "a tail variable no body atom binds": Atom("Goal", (0,), (1, 9)),
}


@st.composite
def criterion_5_graphs(draw, multi_tail=True):
    """A graph as criterion 5 draws them: 2-4 entities, P/Q/R events with one
    or two heads and one tail, and with `multi_tail` some two-tail M events."""
    g = TemporalHypergraph()
    entities = [f"e{i}" for i in range(draw(st.integers(2, 4)))]
    predicates = ["P", "Q", "R"] + (["M"] if multi_tail else [])
    for _ in range(draw(st.integers(1, 9))):
        pred = draw(st.sampled_from(predicates))
        heads = draw(st.lists(st.sampled_from(entities), min_size=1, max_size=2, unique=True))
        tails = draw(st.lists(st.sampled_from(entities), min_size=1 + (pred == "M"),
                              max_size=1 + (pred == "M"), unique=True))
        start = draw(st.integers(0, 8))
        g.add_event(pred, heads, tails, (start, start + draw(st.integers(0, 4))))
    return g


@st.composite
def per_head_cases(draw):
    """A criterion-5 graph and a rule whose body draws its variables from X0-X4."""
    g = draw(criterion_5_graphs())
    head = PER_HEAD_SHAPES[draw(st.sampled_from(sorted(PER_HEAD_SHAPES)))]
    variables = st.integers(0, 4)
    body = []
    for _ in range(draw(st.integers(1, 3))):
        pred = draw(st.sampled_from(["P", "Q", "R", "M"]))
        atom_heads = draw(st.lists(variables, min_size=1, max_size=2, unique=True))
        atom_tails = draw(st.lists(variables, min_size=1 + (pred == "M"),
                                   max_size=1 + (pred == "M"), unique=True))
        body.append(Atom(pred, tuple(atom_heads), tuple(atom_tails)))
    net = IANetwork(list(range(len(body))))
    for i in range(len(body)):
        for j in range(i + 1, len(body)):
            if draw(st.booleans()):
                chosen = draw(st.lists(st.sampled_from(list(Relation)), min_size=2,
                                       max_size=8, unique=True))
                net.set_pair(i, j, rel_set(*chosen))
    return g, TemporalRule(head, tuple(body), net)


@settings(max_examples=150, deadline=None)
@given(per_head_cases())
def test_one_search_per_head_predicts_the_tails_that_ground(case):
    # for every head tuple and entity tuple e: e is predicted from the heads
    # alone iff the query naming e grounds iff the brute-force oracle finds a
    # grounding; an unknown head entity predicts nothing
    g, rule = case
    n = len(g.entities)
    n_heads, n_tails = len(rule.head.head_vars), len(rule.head.tail_vars)
    every_tail = set(product(range(n), repeat=n_tails))
    unknown = (n,) + tuple(range(n_heads - 1))
    for heads in [*permutations(range(n), n_heads), unknown]:
        predicted = evaluate(rule, g, Query("Goal", heads))
        assert predicted <= every_tail
        if heads == unknown:
            assert not predicted
        for e in every_tail:
            query = Query("Goal", heads, e)
            named = evaluate(rule, g, query)
            assert named in (set(), {e})
            assert (e in predicted) == bool(named) == grounding_exists_bruteforce(
                rule, g, query), (heads, e, rule.signature)


@settings(max_examples=150, deadline=None)
@given(criterion_5_graphs(multi_tail=False), st.integers(1, 3))
def test_one_expansion_per_head_gives_every_target_its_reach_score(g, horizon):
    n = len(g.entities)
    for heads in [*permutations(range(n), 1), *permutations(range(n), 2)]:
        scores = reach_probability(g, set(heads), horizon)
        assert set(scores) <= set(range(n))
        for e in range(n):
            assert scores.get(e, 0.0) == reach_score_per_target(g, set(heads), e, horizon)


def test_format_round_trip():
    _, rule = cooked_rule()
    line = format_rule(rule)
    assert line == (
        "w=0.0 Cooked(X0->X1) <- Put(X0->X1) , Fry(X1->X1) | 0 {BEFORE} 1"
    )
    parsed = parse_rule(line)
    assert parsed.signature == rule.signature
    assert parsed.time_net.cells == rule.time_net.cells
    assert format_rule(parsed) == line
    # any number after `w=` parses, and none is kept
    assert format_rule(parse_rule(line.replace("w=0.0", "w=0.375"))) == line


def test_rule_file_round_trip_keeps_support(tmp_path):
    _, rule = cooked_rule()
    rule.support = 12
    other = _simple_rule([("A", 0, 1)])
    path = tmp_path / "rules.txt"
    write_rules(path, [rule, other])
    assert path.read_text() == (
        "# support=12\n" + format_rule(rule) + "\n# support=0\n" + format_rule(other) + "\n"
    )
    loaded = read_rules(path)
    assert [(r.signature, r.support) for r in loaded] == [
        (rule.signature, 12), (other.signature, 0)
    ]
    assert loaded[0].time_net.cells == rule.time_net.cells


def test_read_rules_refuses_a_second_line_with_one_signature(tmp_path):
    # the cells may differ; a model weights a signature once, so both lines
    # would score with one weight
    signature = "Target() <- A(X0->X1) , B(X1->X2)"
    path = tmp_path / "rules.txt"
    path.write_text(f"# support=3\nw=0.0 {signature} | 0 {{BEFORE}} 1\n"
                    f"w=0.0 Other() <- A(X0->X1)\n# support=1\nw=0.0 {signature}\n")
    with pytest.raises(DataFormatError) as err:
        read_rules(path)
    assert str(err.value) == f"{path}:5: rule {signature} was already read at line 2"


def test_write_rules_refuses_a_predicate_read_rules_cannot_parse(tmp_path):
    # the README library example, with `Put` renamed to a name no rule line carries
    from rulewalk.evaluation import build_classification_queries
    from rulewalk.mining import MODE_TEMPORAL, MiningParams, mine_rules

    blt = TemporalHypergraph()
    blt.add_event("Put It", ["bacon"], ["pan"], (3, 5))
    blt.add_event("Fry", ["pan"], ["pan"], (6, 9))
    other = TemporalHypergraph()
    other.add_event("Fry", ["pan"], ["pan"], (0, 2))
    other.add_event("Put It", ["bacon"], ["pan"], (4, 6))
    queries = build_classification_queries(["BLT", "other"], "BLT")
    rules = mine_rules([blt, other], queries, MiningParams(seed=7), MODE_TEMPORAL)
    assert any(atom.predicate == "Put It" for rule in rules for atom in rule.body)
    path = tmp_path / "rules.txt"
    with pytest.raises(DataFormatError) as err:
        write_rules(path, rules)
    assert str(err.value) == (
        f"{path}: predicate 'Put It' holds whitespace or one of '();', "
        "which a rule file cannot carry"
    )
    assert not path.exists()


def test_a_predicate_beginning_with_hash_is_neither_written_nor_parsed(tmp_path):
    rule = TemporalRule(Atom("L", (), ()), (Atom("#likes", (0,), (1,)),), IANetwork([0]))
    path = tmp_path / "rules.txt"
    with pytest.raises(DataFormatError, match="predicate '#likes' begins with '#'"):
        write_rules(path, [rule])
    assert not path.exists()
    with pytest.raises(RuleError, match="bad atom '#likes\\(X0->X1\\)'"):
        parse_rule("w=0.0 L() <- #likes(X0->X1)")
    with pytest.raises(RuleError, match="bad atom '#L\\(\\)'"):
        parse_rule("w=0.0 #L() <- P(X0->X1)")


def test_signature_is_derived_and_support_is_keyword_only():
    head = Atom("L", (), ())
    body = (Atom("P", (0,), (1,)),)
    rule = TemporalRule(head, body, IANetwork([0]), support=3)
    assert rule.signature == "L() <- P(X0->X1)"
    with pytest.raises(TypeError):
        TemporalRule(head, body, IANetwork([0]), "L() <- P(X0->X1)")
    with pytest.raises(TypeError):
        TemporalRule(head, body, IANetwork([0]), signature="L() <- P(X0->X1)")


def test_format_omits_full_cells():
    head = Atom("L", (), ())
    body = (Atom("P", (0,), (1,)), Atom("Q", (1,), (2,)))
    rule = TemporalRule(head, body, IANetwork([0, 1]))
    line = format_rule(rule)
    assert "|" not in line
    parsed = parse_rule(line)
    assert parsed.time_net.cells[0][1] == FULL_SET


def test_parse_rule_errors():
    with pytest.raises(RuleError):
        parse_rule("no weight prefix")
    with pytest.raises(RuleError, match="bad weight in 'w=x'"):
        parse_rule("w=x H() <- P(X0->X1)")
    with pytest.raises(RuleError):
        parse_rule("w=1.0 Head(X0->X1)")  # missing body
    with pytest.raises(RuleError):
        parse_rule("w=1.0 H() <- P(X0->X1) | 0 {NOPE} 1")
    with pytest.raises(RuleError):
        parse_rule("w=1.0 H() <- P(X0,X1)")  # no arrow
    # a second cell on one pair of atoms, in either direction, would
    # silently overwrite the first; an empty set would match nothing
    two_atoms = "w=1.0 H() <- P(X0->X1) , Q(X1->X2) | "
    with pytest.raises(RuleError, match="second temporal cell on atoms 1 and 0"):
        parse_rule(two_atoms + "0 {BEFORE} 1 ; 1 {BEFORE} 0")
    with pytest.raises(RuleError, match="second temporal cell on atoms 0 and 1"):
        parse_rule(two_atoms + "0 {BEFORE} 1 ; 0 {MEETS} 1")
    with pytest.raises(RuleError, match="empty relation set in '0 {} 1'"):
        parse_rule(two_atoms + "0 {} 1")
    # cells that contradict one another match nothing either: path
    # consistency empties a cell
    cycle = "0 {BEFORE} 1 ; 1 {BEFORE} 2 ; 0 {AFTER} 2"
    with pytest.raises(RuleError, match="temporal cells contradict one another"):
        parse_rule("w=0.0 Target() <- A(X0->X1) , B(X1->X2) , C(X2->X3) | " + cycle)
    # an event holds distinct entities in its head set and in its tail set,
    # so a variable named twice in one set, head atom included, matches nothing
    for line in ("w=0.0 T() <- B(X1,X1->X2)", "w=0.0 A(X0->X1,X1) <- B(X0->X1)",
                 "w=0.0 T(X0,X0->X1) <- B(X0->X1)", "w=0.0 T() <- B(X1->X2,X02)"):
        with pytest.raises(RuleError, match="named twice in one set of atom"):
            parse_rule(line)
    # a variable may name an entity in both sets, as a class label does
    assert parse_rule("w=0.0 L(X0->X0) <- K(X0->X0)").head == Atom("L", (0,), (0,))
    # a consistent rule keeps its cells as written, not their closure
    chain = "w=0.0 Target() <- A(X0->X1) , B(X1->X2) , C(X2->X3) | 0 {BEFORE} 1 ; 1 {BEFORE} 2"
    assert format_rule(parse_rule(chain)) == chain
