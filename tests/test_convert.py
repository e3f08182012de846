"""Clique expansion, time-point ablation, snapshot-KG adaptation."""
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewalk.cli import main
from rulewalk.convert import clique_expand, temporal_kg_adapt, to_time_points
from rulewalk.hypergraph import GraphError, Interval, TemporalHypergraph


def test_clique_expand_counts():
    g = TemporalHypergraph()
    g.add_event("Mix", ["a", "b", "c"], ["d"], (0, 1))      # 3x1
    g.add_event("P", ["a", "b"], ["c", "d"], (0, 2))        # 2x2
    g.add_event("Bin", ["a"], ["b"], (1, 2))                # identity
    g.add_event("Oil", ["a"], ["a"], (0, 9))                # unary pass-through
    out = clique_expand(g)
    assert len(out) == 3 + 4 + 1 + 1
    assert all(len(e.heads) == 1 and len(e.tails) == 1 for e in out.events)
    assert out.event_names(len(out.events) - 1) == ("Oil", ("a",), ("a",))


def test_clique_expand_preserves_intervals():
    g = TemporalHypergraph()
    g.add_event("Mix", ["a", "b"], ["c"], (3, 7))
    out = clique_expand(g)
    assert all((e.interval.start, e.interval.end) == (3, 7) for e in out.events)


def test_to_time_points():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (3, 5))
    g.add_event("Q", ["b"], ["c"], (2, 2))
    out = to_time_points(g)
    assert [(e.interval.start, e.interval.end) for e in out.events] == [(3, 3), (2, 2)]
    twice = to_time_points(out)
    assert [(e.interval.start, e.interval.end) for e in twice.events] == [(3, 3), (2, 2)]


events_strategy = st.lists(
    st.tuples(
        st.sampled_from(["P", "Q"]),
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=3, unique=True),
        st.lists(st.sampled_from("vwxyz"), min_size=1, max_size=2, unique=True),
    ),
    max_size=8,
)


@settings(max_examples=50)
@given(events_strategy)
def test_clique_expansion_count_formula(raw_events):
    g = TemporalHypergraph()
    total = 0
    for pred, heads, tails in raw_events:
        try:
            g.add_event(pred, heads, tails, (0, 1))
        except GraphError:  # tail-arity conflict with an earlier event
            continue
        total += len(heads) * len(tails)
    assert len(clique_expand(g)) == total


def snapshots():
    return [
        (1, [("alice", "likes", "bob"), ("bob", "knows", "carol")]),
        (2, [("alice", "likes", "carol"), ("bob", "knows", "carol")]),
        (3, [("alice", "visits", "dave")]),
    ]


def test_temporal_kg_adapt_structure():
    g = temporal_kg_adapt(snapshots())
    assert g.is_b_graph()
    names = [g.event_names(i) for i in range(len(g))]
    # per-snapshot instances with degenerate intervals
    assert ("likes", ("alice@1",), ("bob@1",)) in names
    triple_events = [e for e in g.events if e.predicate != "IsSameEnt"]
    assert all(e.interval.start == e.interval.end for e in triple_events)


def test_temporal_kg_adapt_same_entity_bridges():
    g = temporal_kg_adapt(snapshots())
    bridges = [
        (g.event_names(e.event_id), (e.interval.start, e.interval.end))
        for e in g.events
        if e.predicate == "IsSameEnt"
    ]
    expected = {
        (("IsSameEnt", ("alice@1",), ("alice@2",)), (1, 2)),
        (("IsSameEnt", ("bob@1",), ("bob@2",)), (1, 2)),
        (("IsSameEnt", ("carol@1",), ("carol@2",)), (1, 2)),
        (("IsSameEnt", ("alice@2",), ("alice@3",)), (2, 3)),
    }
    assert set(bridges) == expected  # chained, never transitive


def test_entity_absent_from_consecutive_snapshot_gets_no_bridge():
    g = temporal_kg_adapt([(1, [("e", "p", "f")]), (2, [("x", "p", "y")])])
    assert all(e.predicate != "IsSameEnt" for e in g.events)


def test_unordered_snapshots_rejected():
    with pytest.raises(ValueError):
        temporal_kg_adapt([(2, [("a", "p", "b")]), (1, [("a", "p", "b")])])
    with pytest.raises(ValueError):
        temporal_kg_adapt([(1, []), (1, [])])


@settings(max_examples=40)
@given(st.lists(
    st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("pq"), st.sampled_from("abcd")),
             max_size=4),
    min_size=1, max_size=5,
), st.lists(st.integers(1, 3), min_size=5, max_size=5))
def test_temporal_kg_adapt_gives_each_event_its_snapshot_or_bridge_interval(triples, gaps):
    taus = [sum(gaps[:i + 1]) for i in range(len(triples))]
    g = temporal_kg_adapt(list(zip(taus, triples)))
    for e in g.events:
        pred, (head,), (tail,) = g.event_names(e.event_id)
        head_tau, tail_tau = int(head.split("@")[1]), int(tail.split("@")[1])
        if pred == "IsSameEnt":
            assert tail_tau == taus[taus.index(head_tau) + 1]
        else:
            assert tail_tau == head_tau
        assert e.interval == Interval(head_tau, tail_tau)
    assert len(g) == sum(map(len, triples)) + sum(
        len({n for h, _, t in a for n in (h, t)} & {n for h, _, t in b for n in (h, t)})
        for a, b in zip(triples, triples[1:])
    )


@pytest.mark.parametrize("enabled", [True, False])
def test_temporal_kg_adapt_pauses_the_gc_and_leaves_it_as_it_found_it(
    tmp_path, monkeypatch, capsys, enabled
):
    # the pause belongs to the command that calls `temporal_kg_adapt`
    src = tmp_path / "toy.tkg"
    src.write_text("".join(
        f"{tau} | {h} | {p} | {t}\n" for tau, triples in snapshots() for h, p, t in triples
    ))
    seen = []
    add_event = TemporalHypergraph.add_event

    def spy(self, *args):
        seen.append(gc.isenabled())
        return add_event(self, *args)

    monkeypatch.setattr(TemporalHypergraph, "add_event", spy)
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        argv = ["convert", "--in", str(src), "--out", str(tmp_path / "kg.thg"), "--from-tkg"]
        assert main(argv) == 0
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert seen and not any(seen)
