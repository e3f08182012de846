"""Event store, interning, indices, and B-graph queries."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rulewalk.dataio import DataFormatError, load_graph
from rulewalk.hypergraph import GraphError, Interval, TemporalHypergraph


def small_graph():
    g = TemporalHypergraph()
    g.add_event("Put", ["bacon"], ["pan"], (3, 5))
    g.add_event("MixInto", ["onion", "garlic", "oil"], ["bowl"], (7, 9))
    return g


def test_event_ids_are_contiguous():
    g = TemporalHypergraph()
    assert g.add_event("Put", ["bacon"], ["pan"], (3, 5)) == 0
    assert g.add_event("MixInto", ["onion", "garlic", "oil"], ["bowl"], (7, 9)) == 1


def test_duplicate_head_rejected():
    g = TemporalHypergraph()
    with pytest.raises(GraphError):
        g.add_event("Cut", ["lettuce", "lettuce"], ["lettuce"], (1, 2))


def test_bad_interval_rejected():
    g = TemporalHypergraph()
    with pytest.raises(GraphError):
        g.add_event("Put", ["a"], ["b"], (5, 3))


def test_empty_heads_rejected():
    g = TemporalHypergraph()
    with pytest.raises(GraphError):
        g.add_event("Put", [], ["b"], (1, 2))
    with pytest.raises(GraphError):
        g.add_event("Put", ["a"], [], (1, 2))


def test_heads_stored_sorted_with_set_semantics():
    g = TemporalHypergraph()
    g.add_event("Mix", ["c", "a", "b"], ["z"], (0, 1))
    ids = g.events[0].heads
    assert list(ids) == sorted(ids)
    assert {g.entity_names[i] for i in ids} == {"a", "b", "c"}


def test_out_degree_counts_head_appearances():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))
    g.add_event("P", ["a"], ["c"], (0, 1))
    g.add_event("Q", ["b"], ["a"], (0, 1))
    assert g.out_degree(g.entities["a"]) == 2
    assert g.out_degree(g.entities["b"]) == 1
    # c appears only as a tail
    assert g.out_degree(g.entities["c"]) == 0


def test_out_degree_unknown_entity():
    g = small_graph()
    with pytest.raises(GraphError):
        g.out_degree(999)


def test_is_b_graph():
    g = small_graph()
    assert g.is_b_graph()
    g.add_event("P", ["a"], ["b", "c"], (0, 1))
    assert not g.is_b_graph()
    assert TemporalHypergraph().is_b_graph()


def test_enabled_edges_requires_all_heads():
    g = small_graph()
    ids = {n: g.entities[n] for n in ("onion", "garlic", "oil", "bacon")}
    partial = {ids["onion"], ids["garlic"]}
    assert 1 not in g.enabled_edges(partial, set())
    full = {ids["onion"], ids["garlic"], ids["oil"]}
    assert g.enabled_edges(full, set()) == [1]
    assert g.enabled_edges(full | {ids["bacon"]}, {0, 1}) == []


def test_enabled_edges_ascending_order():
    g = TemporalHypergraph()
    for i in range(5):
        g.add_event("P", ["a"], [f"t{i}"], (0, 1))
    a = g.entities["a"]
    assert g.enabled_edges({a}, set()) == [0, 1, 2, 3, 4]
    assert g.enabled_edges({a}, {1, 3}) == [0, 2, 4]


def test_predicate_tail_arity_stays_declared():
    g = TemporalHypergraph()
    g.add_event("Mix", ["a", "b"], ["z"], (0, 1))
    g.add_event("Mix", ["a", "b", "c"], ["z"], (0, 1))
    with pytest.raises(GraphError):
        g.add_event("Mix", ["a"], ["y", "z"], (0, 1))


def test_add_event_rejects_a_predicate_that_is_not_a_str():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))
    before = graph_state(g)
    for predicate in (3, None, b"P", ("P",)):
        with pytest.raises(GraphError) as err:
            g.add_event(predicate, ["a"], ["b"], (0, 1))
        assert str(err.value) == f"predicate must be a str: {predicate!r}"
        assert graph_state(g) == before
    # a str subclass is a str, and is stored as one
    g.add_event(np.str_("Q"), ["a"], ["b"], (0, 1))
    assert type(g.events[-1].predicate) is str and list(g.predicates) == ["P", "Q"]


def test_the_events_of_one_predicate_share_one_name_object():
    g = TemporalHypergraph()
    for i in range(3):
        g.add_event("".join(["Pu", "t"]), [f"a{i}"], ["b"], (0, 1))
    first = g.events[0].predicate
    assert all(e.predicate is first for e in g.events)
    assert all(key[0] is first for key in g.shape_index)


def test_span():
    g = small_graph()
    span = g.span()
    assert (span.start, span.end) == (3, 9)
    assert TemporalHypergraph().span() is None


events_strategy = st.lists(
    st.tuples(
        st.sampled_from(["P", "Q", "R"]),
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=3, unique=True),
        st.sampled_from("abcdef"),
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
    ),
    max_size=12,
)


@given(events_strategy)
def test_index_round_trip(raw_events):
    g = TemporalHypergraph()
    for pred, heads, tail, (s, e) in raw_events:
        g.add_event(pred, heads, [tail], (min(s, e), max(s, e)))

    # every interned entity has a slot, tail-only ones too
    rebuilt_heads: dict[int, list[int]] = {x: [] for x in range(len(g.entities))}
    for event in g.events:
        for h in event.heads:
            rebuilt_heads[h].append(event.event_id)
    assert rebuilt_heads == g.head_index
    for x in g.head_index:
        assert g.out_degree(x) == len(g.head_index[x])
    # the two entity fields are inverse, and the name map runs in id order
    for name in g.entities:
        assert g.entity_names[g.entities[name]] == name
    assert list(g.entities) == g.entity_names


@given(events_strategy, st.sets(st.sampled_from("abcdef")))
def test_enabled_edges_monotone_in_reached(raw_events, extra):
    g = TemporalHypergraph()
    for pred, heads, tail, (s, e) in raw_events:
        g.add_event(pred, heads, [tail], (min(s, e), max(s, e)))
    interned = [n for n in "abc" if n in g.entities]
    reached = {g.entities[n] for n in interned}
    bigger = reached | {g.entities[n] for n in extra if n in g.entities}
    small = set(g.enabled_edges(reached, set()))
    large = set(g.enabled_edges(bigger, set()))
    assert small <= large


shaped_events_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["P", "Q"]),
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=3, unique=True),
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=1),
        ),
        st.tuples(
            st.just("M"),
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=2, unique=True),
            st.lists(st.sampled_from("abcdef"), min_size=2, max_size=2, unique=True),
        ),
    ),
    max_size=14,
)


@given(shaped_events_strategy)
def test_shape_index_equals_scan_and_b_graph_flips_on_first_multi_tail(raw_events):
    g = TemporalHypergraph()
    seen_multi_tail = False
    for i, (pred, heads, tails) in enumerate(raw_events):
        g.add_event(pred, heads, tails, (i, i + 1))
        seen_multi_tail = seen_multi_tail or len(tails) > 1
        assert g.is_b_graph() == (not seen_multi_tail)

    scanned: dict[tuple[str, int, int], list[int]] = {}
    for event in g.events:
        shape = (event.predicate, len(event.heads), len(event.tails))
        scanned.setdefault(shape, []).append(event.event_id)
    assert scanned == g.shape_index
    assert g.is_b_graph() == all(len(e.tails) == 1 for e in g.events)


def test_graph_error_messages_are_pinned():
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b", "c"], (0, 1))
    with pytest.raises(GraphError) as err:
        g.add_event("P", ["a"], ["b"], (0, 1))
    assert str(err.value) == "predicate 'P' declared with 2 tails, event has 1"
    with pytest.raises(GraphError) as err:
        g.add_event("Q", ["a"], ["b", "b"], (0, 1))
    assert str(err.value) == "duplicate tail entity in ['b', 'b']"
    with pytest.raises(GraphError) as err:
        g.add_event("Q", ["a", "a"], ["b"], (0, 1))
    assert str(err.value) == "duplicate head entity in ['a', 'a']"


def test_interval_rejects_start_after_end_however_built():
    builds = [
        lambda: Interval(3, 1),
        lambda: Interval(start=3, end=1),
        lambda: Interval._make((3, 1)),
        lambda: Interval(1, 1)._replace(start=3),
        lambda: Interval(3, 4)._replace(end=1),
    ]
    for build in builds:
        with pytest.raises(GraphError) as err:
            build()
        assert str(err.value) == "interval start 3 > end 1"
    assert Interval._make((1, 3)) == Interval(1, 3)
    assert Interval(1, 3)._replace(end=5) == Interval(1, 5)


def test_a_reversed_interval_is_rejected_by_add_event_and_by_the_loader(tmp_path):
    g = TemporalHypergraph()
    with pytest.raises(GraphError) as err:
        g.add_event("P", ["a"], ["b"], (3, 1))
    assert str(err.value) == "interval start 3 > end 1"
    assert len(g) == 0 and len(g.entities) == 0 and len(g.predicates) == 0
    path = tmp_path / "g.thg"
    path.write_text("#thg v1\nP | a | b | 3 1\n")
    with pytest.raises(DataFormatError) as err:
        load_graph(path)
    assert str(err.value) == f"{path}:2: interval start 3 > end 1"


def test_add_event_rejects_ticks_that_are_not_integers():
    # int() would truncate (3.7, 5.9) to [3, 5] and parse ("4", "6")
    g = TemporalHypergraph()
    for ticks in ((3.7, 5.9), ("4", "6"), (1, 2.0), (None, 1)):
        with pytest.raises(GraphError) as err:
            g.add_event("P", ["a"], ["b"], ticks)
        assert str(err.value) == f"interval ticks must be integers: {ticks!r}"
    assert len(g) == 0 and len(g.entities) == 0 and len(g.predicates) == 0
    # numpy integers are integers
    g.add_event("P", ["a"], ["b"], (np.int64(3), np.int32(5)))
    assert g.events[0].interval == Interval(3, 5)
    assert type(g.events[0].interval.start) is int


def test_interval_rejects_ticks_that_are_not_integers_however_built():
    builds = [
        lambda: Interval(3.7, 5.9),
        lambda: Interval("4", "6"),
        lambda: Interval(start=1, end=2.0),
        lambda: Interval._make((3.7, 5.9)),
        lambda: Interval(1, 2)._replace(end=2.5),
    ]
    for build in builds:
        with pytest.raises(GraphError, match="interval ticks must be integers"):
            build()
    for interval in (Interval(np.int64(3), np.int32(5)), Interval._make(np.array([3, 5]))):
        assert interval == (3, 5)
        assert type(interval.start) is int and type(interval.end) is int
    # an event added with an Interval built directly holds integer ticks too
    g = TemporalHypergraph()
    with pytest.raises(GraphError, match="interval ticks must be integers"):
        g.add_event("P", ["a"], ["b"], Interval(3.7, 5.9))
    assert len(g) == 0


def test_add_event_rejects_an_interval_that_is_not_a_pair():
    g = TemporalHypergraph()
    for ticks in ((3,), (1, 2, 3), ()):
        with pytest.raises(GraphError) as err:
            g.add_event("P", ["a"], ["b"], ticks)
        assert str(err.value) == f"interval must be a pair of ticks: {ticks!r}"
    assert len(g) == 0 and len(g.entities) == 0 and len(g.predicates) == 0


def test_interval_and_event_fields_cannot_be_assigned():
    g = small_graph()
    event, interval = g.events[0], g.events[0].interval
    for record, field in ((interval, "start"), (interval, "end"), (event, "event_id"),
                          (event, "heads"), (event, "interval")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    with pytest.raises(AttributeError):
        interval.length = 2


def test_an_event_is_the_tuple_of_its_fields():
    g = small_graph()
    event = g.events[1]
    fields = (1, event.predicate, event.heads, event.tails, (7, 9))
    assert event == fields and event.interval == (7, 9)
    # the hash a frozen dataclass of the same fields had: set and dict order stay put
    assert hash(event) == hash(fields)
    assert hash(event.interval) == hash((7, 9))
    assert repr(event.interval) == "Interval(start=7, end=9)"


def graph_state(g):
    """Everything a rejected event must leave as it was."""
    return (
        list(g.entity_names), dict(g.entities),
        list(g.predicates.items()),
        list(g.events), {x: list(ids) for x, ids in g.head_index.items()},
        {shape: list(ids) for shape, ids in g.shape_index.items()},
        g.is_b_graph(),
    )


@st.composite
def rejected_events(draw, g):
    """(predicate, heads, tails, interval) that `add_event` must reject."""
    names = st.sampled_from("abcdefxyz")  # x, y, z are never in the graph
    kinds = ["empty heads", "empty tails", "duplicate head", "duplicate tail",
             "reversed interval", "unhashable head", "unhashable tail"]
    if len(g.predicates):
        kinds.append("tail arity")
    kind = draw(st.sampled_from(kinds))
    pred = draw(st.sampled_from(["P", "Q", "M", "N"]))
    heads = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    tails = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    interval = (0, 1)
    if kind == "empty heads":
        heads = []
    elif kind == "empty tails":
        tails = []
    elif kind == "duplicate head":
        heads = heads + [draw(st.sampled_from(heads))]
    elif kind == "duplicate tail":
        tails = tails + [draw(st.sampled_from(tails))]
    elif kind == "reversed interval":
        interval = (draw(st.integers(1, 9)), 0)
    elif kind in ("unhashable head", "unhashable tail"):
        # a lone name or one of several, new to the graph or not
        side = heads if kind == "unhashable head" else tails
        at = draw(st.integers(0, len(side) - 1))
        side[at] = [side[at]]
    else:
        # a declared predicate with any other tail count: a multi-tail event
        # against a single-tail predicate, or the other way round
        pred = draw(st.sampled_from(list(g.predicates)))
        declared = g.predicates[pred]
        count = draw(st.sampled_from([n for n in (1, 2, 3) if n != declared]))
        tails = draw(st.lists(names, min_size=count, max_size=count, unique=True))
    return pred, heads, tails, interval


@given(shaped_events_strategy, st.data())
def test_a_rejected_event_leaves_the_graph_as_it_was(raw_events, data):
    g = TemporalHypergraph()
    for i, (pred, heads, tails) in enumerate(raw_events):
        g.add_event(pred, heads, tails, (i, i + 1))
    before = graph_state(g)
    pred, heads, tails, interval = data.draw(rejected_events(g))
    with pytest.raises(GraphError):
        g.add_event(pred, heads, tails, interval)
    assert graph_state(g) == before
