"""B-walk mechanics: enabling, weighting, sampling, temporal tracking."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewalk.allen import EMPTY_SET
from rulewalk.hypergraph import GraphError, TemporalHypergraph
from rulewalk.rules import Query
from rulewalk.walk import (
    DEAD_END,
    WalkParams,
    WalkDiagnostics,
    derive_seed,
    edge_weight,
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


def test_init_walk_masses():
    g = chain_graph()
    a = g.entities.id_of("a")
    state = init_walk(g, {a})
    assert state.reached == {a}
    assert state.arrival_mass[a] == 1.0
    assert state.trace == [] and state.step == 0


def test_init_walk_multi_start_unit_mass_each():
    g = chain_graph()
    ids = {g.entities.id_of("a"), g.entities.id_of("b")}
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
        init_walk(g, {g.entities.id_of("a")})


def test_edge_weight_examples():
    g = chain_graph()
    state = init_walk(g, {g.entities.id_of("a")})
    assert edge_weight(g, state, 0) == 1.0

    g2 = two_head_graph()
    state2 = init_walk(g2, {g2.entities.id_of("a"), g2.entities.id_of("b")})
    assert edge_weight(g2, state2, 0) == 0.25  # min(1/2, 1/4)


def test_edge_weight_halved_mass():
    g = TemporalHypergraph()
    g.add_event("P", ["s"], ["a"], (0, 1))
    g.add_event("P", ["s"], ["b"], (0, 1))
    g.add_event("Q", ["a"], ["c"], (2, 3))
    g.add_event("Q", ["a"], ["d"], (2, 3))
    s, a = g.entities.id_of("s"), g.entities.id_of("a")
    for seed in range(20):
        state = init_walk(g, {s})
        step(g, state, random.Random(seed))
        if state.trace == [0]:  # walked s -> a: mass(a) = 1/2, out_degree(a) = 2
            assert state.arrival_mass[a] == 0.5
            assert edge_weight(g, state, 2) == 0.25
            assert edge_weight(g, state, 3) == 0.25
            return
    pytest.fail("edge 0 never sampled in 20 seeds")


def test_step_records_the_chosen_edges_weight():
    g = two_head_graph()
    g.add_event("P", ["x1"], ["z"], (2, 3))
    starts = {g.entities.id_of("a"), g.entities.id_of("b")}
    for seed in range(30):
        state = init_walk(g, starts)
        rng = random.Random(seed)
        while True:
            enabled = g.enabled_edges(state.reached, set(state.trace))
            expected = {e: edge_weight(g, state, e) for e in enabled}
            if step(g, state, rng) is DEAD_END:
                break
            chosen = state.trace[-1]
            assert state.arrival_mass[g.events[chosen].tails[0]] == expected[chosen]


def test_edge_weight_disabled_edge_raises():
    g = chain_graph()
    state = init_walk(g, {g.entities.id_of("a")})
    with pytest.raises(ValueError):
        edge_weight(g, state, 1)  # b not reached yet


def test_step_walks_chain():
    g = chain_graph()
    state = init_walk(g, {g.entities.id_of("a")})
    rng = random.Random(1)
    assert step(g, state, rng) is state
    assert step(g, state, rng) is state
    assert state.trace == [0, 1]
    assert state.reached == {
        g.entities.id_of(n) for n in ("a", "b", "c")
    }
    assert step(g, state, rng) is DEAD_END


def test_step_dead_end_on_empty_graph():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))  # intern a
    state = init_walk(g, {g.entities.id_of("b")})
    assert step(g, state, random.Random(0)) is DEAD_END


def test_b_edge_never_sampled_before_heads_reached():
    g = TemporalHypergraph()
    g.add_event("Mix", ["onion", "garlic", "oil"], ["bowl"], (0, 1))
    g.add_event("P", ["onion"], ["garlic"], (0, 1))
    onion = g.entities.id_of("onion")
    for seed in range(50):
        state = init_walk(g, {onion})
        rng = random.Random(seed)
        while True:
            result = step(g, state, rng)
            if result is DEAD_END:
                break
        assert 0 not in state.trace  # oil is never reachable


def test_walk_time_net_is_observed_chain():
    g = chain_graph()
    state = init_walk(g, {g.entities.id_of("a")})
    rng = random.Random(3)
    step(g, state, rng)
    step(g, state, rng)
    net = state.time_net
    assert net.keys == [0, 1]
    from rulewalk.allen import Relation, rel_set

    assert net.cells[0][1] == rel_set(Relation.BEFORE)


def test_multi_start_paths_merge_via_join_edge():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["c"], (0, 1))
    g.add_event("Q", ["b"], ["d"], (4, 5))
    g.add_event("Join", ["c", "d"], ["z"], (8, 9))
    starts = {g.entities.id_of("a"), g.entities.id_of("b")}
    # drive the walk deterministically until all three edges are taken
    for seed in range(30):
        state = init_walk(g, starts)
        rng = random.Random(seed)
        while step(g, state, rng) is state:
            pass
        if len(state.trace) == 3:
            net = state.time_net
            assert len(state.paths) == 1
            assert all(
                net.cells[i][j] != EMPTY_SET for i in range(3) for j in range(3)
            )
            return
    pytest.fail("join edge never traversed in 30 seeds")


def test_reach_probability_examples():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))
    a, b = g.entities.id_of("a"), g.entities.id_of("b")
    assert reach_probability(g, {a}, b, 1) == 1.0

    g2 = TemporalHypergraph()
    g2.add_event("P", ["a"], ["b"], (0, 1))
    g2.add_event("P", ["a"], ["c"], (0, 1))
    a2, b2 = g2.entities.id_of("a"), g2.entities.id_of("b")
    assert reach_probability(g2, {a2}, b2, 1) == 0.5

    g3 = two_head_graph()
    ids = {g3.entities.id_of("a"), g3.entities.id_of("b")}
    assert reach_probability(g3, ids, g3.entities.id_of("z"), 1) == 0.25


def test_reach_probability_respects_horizon():
    g = chain_graph()
    a, c = g.entities.id_of("a"), g.entities.id_of("c")
    assert reach_probability(g, {a}, c, 1) == 0.0
    assert reach_probability(g, {a}, c, 2) == 1.0
    with pytest.raises(ValueError):
        reach_probability(g, {a}, c, 0)


def test_sample_walks_finds_unique_path():
    g = chain_graph()
    query = Query("Goal", ("a",), ("c",))
    params = WalkParams(max_steps=3, num_walks=50, seed=5)
    results = sample_walks(g, query, params)
    assert results
    assert all(trace == [0, 1] for trace, _ in results)


def test_sample_walks_blocked_by_b_connectivity():
    g = TemporalHypergraph()
    g.add_event("Mix", ["a", "x"], ["c"], (0, 1))
    g.add_event("P", ["c"], ["x"], (0, 1))  # x only reachable after c
    query = Query("Goal", ("a",), ("c",))
    params = WalkParams(max_steps=4, num_walks=40, seed=1)
    assert sample_walks(g, query, params) == []


def test_sample_walks_seeded_determinism():
    g = two_head_graph()
    g.add_event("R", ["z"], ["w"], (2, 3))
    query = Query("Goal", ("a", "b"), ("w",))
    params = WalkParams(max_steps=4, num_walks=200, seed=99)
    first = sample_walks(g, query, params)
    second = sample_walks(g, query, params)
    assert [t for t, _ in first] == [t for t, _ in second]
    assert [n.cells for _, n in first] == [n.cells for _, n in second]


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
    assert diag.kept == len(results)


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
    query = Query("Goal", ("a", "b"), ("w",))
    params = WalkParams(max_steps=4, num_walks=120, seed=13)
    cross_paths = 0
    for g in (joined, apart):
        results = sample_walks(g, query, params)
        assert results
        for trace, net in results:
            assert net.keys == trace
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
    expected, expected_diag = replay_walks(g, query, params)
    assert [t for t, _ in results] == [t for t, _ in expected]
    assert [n for _, n in results] == [n for _, n in expected]
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
    known = [g.entities.name_of(i) for i in range(len(g.entities))]
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
        (joined, Query("Goal", ("a", "b"), ("w",)), WalkParams(max_steps=3, num_walks=120, seed=4)),
        (joined, Query("Label"), WalkParams(max_steps=3, num_walks=120, seed=5, start_events=5)),
        (stranded, Query("Goal", ("a",), ("e",)), WalkParams(max_steps=4, num_walks=10, seed=6)),
    ]
    kept = {}
    dead_ends = multi_head = 0
    for g, query, params in cases:
        results, diag = _assert_matches_replay(g, query, params)
        mode = "target" if query.tails else "classification"
        kept[mode] = kept.get(mode, 0) + len(results)
        dead_ends += diag.dead_ends
        multi_head += sum(0 in trace for trace, _ in results)
    assert kept["target"] and kept["classification"]
    assert dead_ends and multi_head


def test_walks_with_one_trace_share_one_read_only_network():
    g = chain_graph()
    results = sample_walks(g, Query("Goal", ("a",), ("c",)), WalkParams(num_walks=5, seed=1))
    assert len(results) == 5
    assert all(net is results[0][1] for _, net in results)
    assert len({id(trace) for trace, _ in results}) == 5  # traces are copies
