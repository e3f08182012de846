"""B-walk mechanics: enabling, weighting, sampling, and the networks of sampled traces."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewalk.allen import EMPTY_SET
from rulewalk.hypergraph import GraphError, TemporalHypergraph
from rulewalk.rules import Query, trace_network
from rulewalk.walk import (
    DEAD_END,
    WalkParams,
    WalkDiagnostics,
    derive_seed,
    init_walk,
    sample_walks,
    reach_probability,
    step,
)

from oracles import replay_walks


def chain_graph():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))
    g.add_event("Q", ["b"], ["c"], (2, 3))
    return g


def two_head_graph():
    # a has out-degree 2, b has out-degree 4; one B-edge needs both
    g = TemporalHypergraph()
    g.add_event("Join", ["a", "b"], ["z"], (0, 1))
    g.add_event("P", ["a"], ["x1"], (0, 1))
    g.add_event("P", ["b"], ["x2"], (0, 1))
    g.add_event("P", ["b"], ["x3"], (0, 1))
    g.add_event("P", ["b"], ["x4"], (0, 1))
    return g


def recorded_weight(g, state, event_id):
    """The weight `step` records for `event_id` among `state`'s options."""
    if state.options is None:
        step(g, state, random.Random(0))
    enabled, weights, _ = state.options
    return weights[enabled.index(event_id)]


def goal(g, heads, tail):
    """A target-mode query for `g`: its head entities and its tail, by id."""
    return Query("Goal", tuple(g.entities[n] for n in heads), (g.entities[tail],))


def test_init_walk_masses():
    g = chain_graph()
    a = g.entities["a"]
    state = init_walk(g, {a})
    assert state.arrival_mass.keys() == {a}
    assert state.arrival_mass[a] == 1.0
    assert state.trace == []


def test_init_walk_multi_start_unit_mass_each():
    g = chain_graph()
    ids = {g.entities["a"], g.entities["b"]}
    state = init_walk(g, ids)
    assert all(state.arrival_mass[s] == 1.0 for s in ids)


def test_init_walk_errors():
    g = chain_graph()
    with pytest.raises(ValueError):
        init_walk(g, set())
    with pytest.raises(GraphError):
        init_walk(g, {999})
    g.add_event("Multi", ["a"], ["b", "c"], (0, 1))
    with pytest.raises(GraphError):
        init_walk(g, {g.entities["a"]})


def test_edge_weight_examples():
    g = chain_graph()
    state = init_walk(g, {g.entities["a"]})
    assert recorded_weight(g, state, 0) == 1.0

    g2 = two_head_graph()
    state2 = init_walk(g2, {g2.entities["a"], g2.entities["b"]})
    assert recorded_weight(g2, state2, 0) == 0.25  # min(1/2, 1/4)


def test_edge_weight_halved_mass():
    g = TemporalHypergraph()
    g.add_event("P", ["s"], ["a"], (0, 1))
    g.add_event("P", ["s"], ["b"], (0, 1))
    g.add_event("Q", ["a"], ["c"], (2, 3))
    g.add_event("Q", ["a"], ["d"], (2, 3))
    s, a = g.entities["s"], g.entities["a"]
    for seed in range(20):
        state = step(g, init_walk(g, {s}), random.Random(seed))
        if state.trace == [0]:  # walked s -> a: mass(a) = 1/2, out_degree(a) = 2
            assert state.arrival_mass[a] == 0.5
            assert recorded_weight(g, state, 2) == 0.25
            assert recorded_weight(g, state, 3) == 0.25
            return
    pytest.fail("edge 0 never sampled in 20 seeds")


def test_step_records_the_chosen_edges_weight():
    g = two_head_graph()
    g.add_event("P", ["x1"], ["z"], (2, 3))
    starts = {g.entities["a"], g.entities["b"]}
    for seed in range(30):
        state = init_walk(g, starts)
        rng = random.Random(seed)
        while True:
            enabled = g.enabled_edges(state.arrival_mass.keys(), set(state.trace))
            # the raw weight: min over the heads of arrival mass / out-degree
            expected = {
                e: min(state.arrival_mass[h] / g.out_degree(h) for h in g.events[e].heads)
                for e in enabled
            }
            state = step(g, state, rng)
            if state is DEAD_END:
                break
            chosen = state.trace[-1]
            assert state.arrival_mass[g.events[chosen].tails[0]] == expected[chosen]


def test_step_returns_the_memoised_successor():
    g = chain_graph()
    a = g.entities["a"]
    root = init_walk(g, {a})
    rng = random.Random(1)
    first = step(g, root, rng)
    state = step(g, first, rng)
    assert state.trace == [0, 1]
    assert state.arrival_mass.keys() == {
        g.entities[n] for n in ("a", "b", "c")
    }
    assert step(g, state, rng) is DEAD_END
    # the parents are left as they were
    assert root.trace == [] and root.arrival_mass == {a: 1.0}
    assert first.trace == [0] and len(first.arrival_mass) == 2
    # a second walk through the same edges gets the same objects
    rng = random.Random(2)
    assert step(g, root, rng) is first
    assert step(g, first, rng) is state


def test_step_dead_end_on_empty_graph():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))  # intern a
    state = init_walk(g, {g.entities["b"]})
    assert step(g, state, random.Random(0)) is DEAD_END


def test_b_edge_never_sampled_before_heads_reached():
    g = TemporalHypergraph()
    g.add_event("Mix", ["onion", "garlic", "oil"], ["bowl"], (0, 1))
    g.add_event("P", ["onion"], ["garlic"], (0, 1))
    onion = g.entities["onion"]
    for seed in range(50):
        state = init_walk(g, {onion})
        rng = random.Random(seed)
        while True:
            result = step(g, state, rng)
            if result is DEAD_END:
                break
            state = result
        assert 0 not in state.trace  # oil is never reachable


def test_walk_time_net_is_observed_chain():
    g = chain_graph()
    state = init_walk(g, {g.entities["a"]})
    rng = random.Random(3)
    state = step(g, step(g, state, rng), rng)
    net = trace_network(g, state.trace, [])
    assert net.keys == [0, 1]
    from rulewalk.allen import Relation, rel_set

    assert net.cells[0][1] == rel_set(Relation.BEFORE)


def test_multi_start_paths_merge_via_join_edge():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["c"], (0, 1))
    g.add_event("Q", ["b"], ["d"], (4, 5))
    g.add_event("Join", ["c", "d"], ["z"], (8, 9))
    starts = {g.entities["a"], g.entities["b"]}
    # drive the walk deterministically until all three edges are taken
    for seed in range(30):
        state = init_walk(g, starts)
        rng = random.Random(seed)
        while True:
            succ = step(g, state, rng)
            if succ is DEAD_END:
                break
            state = succ
        if len(state.trace) == 3:
            net = trace_network(g, state.trace, [])
            # the join event was observed against both paths: one group
            join = state.trace.index(2)
            assert all(net.cells[join][i].bit_count() == 1 for i in range(3))
            assert all(
                net.cells[i][j] != EMPTY_SET for i in range(3) for j in range(3)
            )
            return
    pytest.fail("join edge never traversed in 30 seeds")


def test_reach_probability_examples():
    # one expansion scores every reached tail, keyed by entity id
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))
    a, b = g.entities["a"], g.entities["b"]
    assert reach_probability(g, {a}, 1) == {b: 1.0}

    g2 = TemporalHypergraph()
    g2.add_event("P", ["a"], ["b"], (0, 1))
    g2.add_event("P", ["a"], ["c"], (0, 1))
    a2, b2, c2 = (g2.entities[n] for n in "abc")
    assert reach_probability(g2, {a2}, 1) == {b2: 0.5, c2: 0.5}

    g3 = two_head_graph()
    ids = {g3.entities["a"], g3.entities["b"]}
    scores = reach_probability(g3, ids, 1)
    assert scores[g3.entities["z"]] == 0.25
    assert {g3.entity_names[e]: s for e, s in scores.items()} == {
        "z": 0.25, "x1": 0.5, "x2": 0.25, "x3": 0.25, "x4": 0.25}


def test_reach_probability_respects_horizon():
    g = chain_graph()
    a, b, c = (g.entities[n] for n in "abc")
    assert c not in reach_probability(g, {a}, 1)
    assert reach_probability(g, {a}, 2) == {b: 1.0, c: 1.0}
    with pytest.raises(ValueError):
        reach_probability(g, {a}, 0)


def test_sample_walks_finds_unique_path():
    g = chain_graph()
    query = goal(g, ["a"], "c")
    params = WalkParams(max_steps=3, num_walks=50, seed=5)
    results = sample_walks(g, query, params)
    assert results
    assert all(trace == [0, 1] for trace, _ in results)


def test_sample_walks_rejects_entity_ids_the_graph_lacks():
    g = chain_graph()
    a, c = g.entities["a"], g.entities["c"]
    params = WalkParams(max_steps=3, num_walks=5, seed=5)
    for heads, tails in (((len(g.entities),), (c,)), ((a,), (len(g.entities),)),
                         ((a,), (-1,)), ((a,), (c, a))):
        with pytest.raises(GraphError):
            sample_walks(g, Query("Goal", heads, tails), params)


def test_sample_walks_blocked_by_b_connectivity():
    g = TemporalHypergraph()
    g.add_event("Mix", ["a", "x"], ["c"], (0, 1))
    g.add_event("P", ["c"], ["x"], (0, 1))  # x only reachable after c
    query = goal(g, ["a"], "c")
    params = WalkParams(max_steps=4, num_walks=40, seed=1)
    assert sample_walks(g, query, params) == []


def test_sample_walks_seeded_determinism():
    g = two_head_graph()
    g.add_event("R", ["z"], ["w"], (2, 3))
    query = goal(g, ["a", "b"], "w")
    params = WalkParams(max_steps=4, num_walks=200, seed=99)
    first = sample_walks(g, query, params)
    second = sample_walks(g, query, params)
    assert first == second
    assert ([trace_network(g, t, []).cells for t, _ in first]
            == [trace_network(g, t, []).cells for t, _ in second])


def test_sample_walks_classification_mode_runs_full_length():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))
    g.add_event("Q", ["b"], ["c"], (2, 3))
    g.add_event("R", ["c"], ["d"], (4, 5))
    query = Query("Label")
    diag = WalkDiagnostics()
    params = WalkParams(max_steps=2, num_walks=20, seed=3)
    results = sample_walks(g, query, params, diag)
    assert results
    assert all(len(trace) == 2 for trace, _ in results)
    assert diag.walks == 20
    assert diag.kept == sum(walks for _, walks in results)


def test_sample_walks_diagnostics_count_dead_ends():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))
    query = Query("Label")
    diag = WalkDiagnostics()
    params = WalkParams(max_steps=3, num_walks=10, seed=0)
    results = sample_walks(g, query, params, diag)
    assert results == []
    assert diag.dead_ends == 10


def test_derive_seed_stable():
    assert derive_seed(42, "query", 0) == derive_seed(42, "query", 0)
    assert derive_seed(42, "query", 0) != derive_seed(42, "query", 1)


def test_returned_time_nets_are_closed_and_nonempty():
    from rulewalk.allen import EMPTY_SET, FULL_SET
    from rulewalk.constraints import resolve_time

    joined = TemporalHypergraph()
    joined.add_event("P", ["a"], ["c"], (0, 3))
    joined.add_event("Q", ["b"], ["d"], (2, 6))
    joined.add_event("Join", ["c", "d"], ["z"], (5, 9))
    joined.add_event("R", ["z"], ["w"], (10, 11))
    # the paths from a and b never meet: the target hangs off a's path only,
    # so the cells between Q and the other events stay unconstrained
    apart = TemporalHypergraph()
    apart.add_event("P", ["a"], ["c"], (0, 3))
    apart.add_event("Q", ["b"], ["d"], (2, 6))
    apart.add_event("R", ["c"], ["w"], (5, 9))
    params = WalkParams(max_steps=4, num_walks=120, seed=13)
    cross_paths = 0
    for g in (joined, apart):
        results = sample_walks(g, goal(g, ["a", "b"], "w"), params)
        assert results
        for trace, _ in results:
            net = trace_network(g, trace, [])
            assert all(
                net.cells[i][j] != EMPTY_SET
                for i in range(net.n)
                for j in range(net.n)
            )
            consistent, closed = resolve_time(net)
            assert consistent and closed.cells == net.cells
            if g is apart and 1 in trace:
                q = trace.index(1)
                assert all(net.cells[q][j] == FULL_SET for j in range(net.n) if j != q)
                cross_paths += 1
    assert cross_paths


def _assert_matches_replay(g, query, params):
    diag = WalkDiagnostics()
    results = sample_walks(g, query, params, diag)
    replayed, expected_diag = replay_walks(g, query, params)
    # the replay's kept walks grouped by trace, in first-seen order
    grouped = {}
    for trace, net in replayed:
        grouped.setdefault(tuple(trace), []).append(net)
    assert [tuple(trace) for trace, _ in results] == list(grouped)
    assert [[trace_network(g, trace, [])] * walks for trace, walks in results] == list(
        grouped.values())
    assert diag == expected_diag
    return results, diag


@st.composite
def walk_cases(draw):
    names = [f"e{i}" for i in range(draw(st.integers(2, 6)))]
    g = TemporalHypergraph()
    for _ in range(draw(st.integers(1, 12))):
        heads = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
        start = draw(st.integers(0, 8))
        g.add_event(draw(st.sampled_from(["P", "Q"])), heads,
                    [draw(st.sampled_from(names))], (start, start + draw(st.integers(0, 4))))
    known = range(len(g.entities))
    if draw(st.booleans()):
        heads = draw(st.lists(st.sampled_from(known), min_size=1, max_size=2, unique=True))
        query = Query("Goal", tuple(heads), (draw(st.sampled_from(known)),))
    else:
        query = Query("Label")
    params = WalkParams(max_steps=draw(st.integers(1, 4)),
                        num_walks=draw(st.integers(1, 25)),
                        seed=draw(st.integers(0, 1000)),
                        start_events=draw(st.integers(1, 3)))
    return g, query, params


@settings(max_examples=150, deadline=None)
@given(walk_cases())
def test_sample_walks_matches_memo_free_replay(case):
    _assert_matches_replay(*case)


def test_memo_free_replay_covers_modes_multi_heads_and_dead_ends():
    # fixed cases for the property above: target and classification mode,
    # a two-head event on kept traces, and walks that end in DEAD_END (a
    # walk dead-ends once it has used up every edge its starts reach)
    joined = two_head_graph()
    joined.add_event("R", ["z"], ["w"], (2, 3))
    joined.add_event("S", ["x2"], ["w"], (4, 6))
    stranded = chain_graph()
    stranded.add_event("P", ["d"], ["e"], (0, 1))
    cases = [
        (joined, goal(joined, ["a", "b"], "w"), WalkParams(max_steps=3, num_walks=120, seed=4)),
        (joined, Query("Label"), WalkParams(max_steps=3, num_walks=120, seed=5, start_events=5)),
        (stranded, goal(stranded, ["a"], "e"), WalkParams(max_steps=4, num_walks=10, seed=6)),
    ]
    kept = {}
    dead_ends = multi_head = 0
    for g, query, params in cases:
        results, diag = _assert_matches_replay(g, query, params)
        mode = "target" if query.tails else "classification"
        kept[mode] = kept.get(mode, 0) + sum(walks for _, walks in results)
        dead_ends += diag.dead_ends
        multi_head += sum(0 in trace for trace, _ in results)
    assert kept["target"] and kept["classification"]
    assert dead_ends and multi_head


def test_walks_with_one_trace_share_one_entry():
    g = chain_graph()
    results = sample_walks(g, goal(g, ["a"], "c"),
                           WalkParams(max_steps=3, num_walks=5, seed=1))
    assert results == [([0, 1], 5)]
