"""Graph file format and corpus round trips."""
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewalk.cli import main
from rulewalk.dataio import (
    DataFormatError,
    check_name,
    check_predicate,
    load_corpus,
    load_graph,
    load_snapshots,
    save_corpus,
    save_graph,
)
from rulewalk.hypergraph import TemporalHypergraph


def events_of(graph):
    return [
        (graph.event_names(e.event_id), (e.interval.start, e.interval.end)) for e in graph.events
    ]


def test_save_load_round_trip(tmp_path):
    g = TemporalHypergraph()
    g.add_event("Put", ["bacon"], ["pan"], (3, 5))
    g.add_event("MixInto", ["onion", "garlic", "oil"], ["bowl"], (7, 9))
    path = tmp_path / "g.thg"
    save_graph(g, path, label="BLT")
    loaded, label = load_graph(path)
    assert label == "BLT"
    assert events_of(loaded) == events_of(g)


def test_file_shape(tmp_path):
    g = TemporalHypergraph()
    g.add_event("Put", ["a"], ["b"], (1, 2))
    path = tmp_path / "g.thg"
    save_graph(g, path)
    text = path.read_text()
    assert text.splitlines()[0] == "#thg v1"
    assert "Put | a | b | 1 2" in text


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "g.thg"
    path.write_text("#thg v1\n# a comment\n\nPut | a | b | 1 2\n")
    loaded, label = load_graph(path)
    assert len(loaded) == 1
    assert label is None


def test_multi_tail_rejected_without_flag(tmp_path):
    path = tmp_path / "g.thg"
    path.write_text("#thg v1\nMix | a,b | c,d | 1 2\n")
    with pytest.raises(DataFormatError) as err:
        load_graph(path)
    assert ":2:" in str(err.value)


def test_multi_tail_split(tmp_path):
    path = tmp_path / "g.thg"
    path.write_text("#thg v1\nMix | a,b | c,d | 1 2\n")
    loaded, _ = load_graph(path, split_multi_tail=True)
    assert len(loaded) == 2
    names = [loaded.event_names(i) for i in range(2)]
    assert names[0] == ("Mix", ("a", "b"), ("c",))
    assert names[1] == ("Mix", ("a", "b"), ("d",))
    assert loaded.is_b_graph()


def test_parse_errors_carry_line_numbers(tmp_path):
    bad_lines = [
        "Bad | | x | 1 2",          # empty head
        "Bad | x | | 1 2",          # empty tail
        "Bad | x | y | 1",          # missing end tick
        "Bad | x | y | 2 1",        # start > end
        "Bad | x,x | y | 1 2",      # duplicate head
        "Bad | x | y",              # missing field
    ]
    for bad in bad_lines:
        path = tmp_path / "g.thg"
        path.write_text(f"#thg v1\n{bad}\n")
        with pytest.raises(DataFormatError) as err:
            load_graph(path)
        assert ":2:" in str(err.value)


def test_reserved_characters_rejected_on_save(tmp_path):
    g = TemporalHypergraph()
    g.add_event("P|Q", ["a"], ["b"], (0, 1))
    with pytest.raises(DataFormatError):
        save_graph(g, tmp_path / "g.thg")
    # an entity name, on a later event
    g = TemporalHypergraph()
    g.add_event("P", ["a"], ["b"], (0, 1))
    g.add_event("P", ["b"], ["c,d"], (2, 3))
    path = tmp_path / "h.thg"
    with pytest.raises(DataFormatError) as err:
        save_graph(g, path)
    assert str(err.value) == f"{path}: reserved character ',' in 'c,d'"
    assert not path.exists()
    # a predicate load_graph would reject, since no rule file can carry it
    g = TemporalHypergraph()
    g.add_event("Put It", ["a"], ["b"], (0, 1))
    with pytest.raises(DataFormatError, match="predicate 'Put It' holds whitespace"):
        save_graph(g, path)
    assert not path.exists()
    # a predicate whose line would begin with '#' and load as a comment
    g = TemporalHypergraph()
    g.add_event("#likes", ["a"], ["b"], (0, 1))
    with pytest.raises(DataFormatError) as err:
        save_graph(g, path)
    assert str(err.value) == (
        f"{path}: predicate '#likes' begins with '#', "
        "which makes its graph file line a comment"
    )
    assert not path.exists()


def test_a_name_that_is_not_a_str_is_a_data_error(tmp_path):
    for name in (3, None, b"a"):
        for check in (check_name, check_predicate):
            with pytest.raises(DataFormatError) as err:
                check(name, "here")
            assert str(err.value) == f"here: name {name!r} is not a str"
    # add_event interns any hashable entity name; save_graph refuses to write one
    g = TemporalHypergraph()
    g.add_event("P", ["a"], [7], (0, 1))
    path = tmp_path / "g.thg"
    with pytest.raises(DataFormatError) as err:
        save_graph(g, path)
    assert str(err.value) == f"{path}: name 7 is not a str"
    assert not path.exists()


def test_corpus_round_trip(tmp_path):
    graphs = []
    labels = []
    for i in range(3):
        g = TemporalHypergraph()
        g.add_event("P", [f"a{i}"], [f"b{i}"], (i, i + 1))
        graphs.append(g)
        labels.append(f"label{i}")
    save_corpus(tmp_path / "corpus", graphs, labels)
    loaded, loaded_labels = load_corpus(tmp_path / "corpus")
    assert loaded_labels == labels
    assert [events_of(g) for g in loaded] == [events_of(g) for g in graphs]


def test_empty_corpus_dir_errors(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DataFormatError):
        load_corpus(tmp_path / "empty")


name_strategy = st.text(
    alphabet="abcdefgXYZ0123456789_.@", min_size=1, max_size=6
)
event_strategy = st.tuples(
    name_strategy,
    st.lists(name_strategy, min_size=1, max_size=3, unique=True),
    name_strategy,
    st.tuples(st.integers(-50, 50), st.integers(0, 60)),
)


@settings(max_examples=40)
@given(st.lists(event_strategy, min_size=0, max_size=10), st.booleans())
def test_round_trip_random_graphs(tmp_path_factory, raw_events, with_label):
    g = TemporalHypergraph()
    tail_arity_by_pred = {}
    for pred, heads, tail, (s, d) in raw_events:
        if tail_arity_by_pred.setdefault(pred, 1) != 1:
            continue
        g.add_event(pred, heads, [tail], (s, s + abs(d)))
    path = tmp_path_factory.mktemp("rt") / "g.thg"
    save_graph(g, path, label="L" if with_label else None)
    loaded, label = load_graph(path)
    assert events_of(loaded) == events_of(g)
    assert (label == "L") == with_label


def graph_state(graph):
    """Everything loading must reproduce: events, interning, indices."""
    return {
        "events": [
            (e.event_id, e.predicate, e.heads, e.tails, (e.interval.start, e.interval.end))
            for e in graph.events
        ],
        "entities": list(graph.entity_names),
        # a list, since dict equality ignores the first-seen order
        "predicates": list(graph.predicates.items()),
        "head_index": sorted(graph.head_index.items()),
        "shape_index": sorted(graph.shape_index.items()),
        "is_b_graph": graph.is_b_graph(),
    }


hyperedge_strategy = st.tuples(
    st.sampled_from(["P", "Q", "R"]),
    st.lists(name_strategy, min_size=1, max_size=3, unique=True),
    st.lists(name_strategy, min_size=1, max_size=3, unique=True),
    st.tuples(st.integers(-50, 50), st.integers(0, 60)),
)


@settings(max_examples=60)
@given(st.lists(hyperedge_strategy, max_size=12), st.booleans())
def test_load_rebuilds_the_graph_add_event_built(tmp_path_factory, raw_events,
                                                 multi_tail):
    """Round trip through the file: same events, interning order and indices.

    With multi-tail events the file is loaded with `split_multi_tail`, and
    the oracle adds one single-tail event per tail, in the stored order.
    """
    g = TemporalHypergraph()
    tail_arity = {}
    first_seen = {}
    for pred, heads, tails, (s, d) in raw_events:
        tails = tails if multi_tail else tails[:1]
        if tail_arity.setdefault(pred, len(tails)) != len(tails):
            continue
        g.add_event(pred, heads, tails, (s, s + abs(d)))
        for name in heads + tails:
            first_seen.setdefault(name, None)
    # entities are interned heads first, then tails, each in the given order
    assert list(g.entity_names) == list(first_seen)
    expected = TemporalHypergraph()
    for e in g.events:
        pred, heads, tails = g.event_names(e.event_id)
        for tail in tails:
            expected.add_event(pred, heads, [tail], e.interval)
    path = tmp_path_factory.mktemp("rt") / "g.thg"
    save_graph(g, path)
    loaded, _ = load_graph(path, split_multi_tail=multi_tail)
    state = graph_state(loaded)
    assert state == graph_state(expected)
    if g.is_b_graph():
        assert state == graph_state(g)
    for index in (loaded.head_index, loaded.shape_index):
        assert all(ids == sorted(ids) for ids in index.values())
    # every interned entity has a slot in the entity index
    assert set(loaded.head_index) == set(range(len(loaded.entities)))


# Each message is pinned in full.  The graph's own tail-arity check cannot
# fire here, since the loader adds only single-tail events (its text is
# pinned in test_hypergraph); a duplicate tail is rejected before a
# multi-tail event is split, with the graph's message.
@pytest.mark.parametrize("line, split, message", [
    ("Bad | x | y", False, "expected 4 pipe-separated fields, got 3"),
    ("Bad | x | y | 1 2 | z", False, "expected 4 pipe-separated fields, got 5"),
    ("Bad | | x | 1 2", False, "empty head entity"),
    ("Bad | a, | x | 1 2", False, "empty head entity"),
    ("Bad | x | | 1 2", False, "empty tail entity"),
    ("Bad | x | y, ,z | 1 2", True, "empty tail entity"),
    ("Bad | x | y | 1", False, "expected '<start> <end>', got '1'"),
    ("Bad | x | y |  1 2 3 ", False, "expected '<start> <end>', got '1 2 3'"),
    ("Bad | x | y | 1 z", False, "invalid literal for int() with base 10: 'z'"),
    ("Bad | x | y | 2 1", False, "interval start 2 > end 1"),
    ("Bad | x | y,z | 1 2", False,
     "multi-tail event (pass --split-multi-tail, or split_multi_tail=True to "
     "load_graph, to expand into single-tail edges)"),
    ("Bad | x,x | y | 1 2", False, "duplicate head entity in ['x', 'x']"),
    ("Bad | x, x | y,z | 1 2", True, "duplicate head entity in ['x', 'x']"),
    ("Bad | x | y,y | 1 2", True, "duplicate tail entity in ['y', 'y']"),
    # a predicate must be a name the rule grammar can carry
    (" | x | y | 1 2", False, "empty name"),
    ("B,ad | x | y | 1 2", False, "reserved character ',' in 'B,ad'"),
    ("Put It | x | y | 1 2", False,
     "predicate 'Put It' holds whitespace or one of '();', which a rule file cannot carry"),
    ("Bad(x) | x | y | 1 2", False,
     "predicate 'Bad(x)' holds whitespace or one of '();', which a rule file cannot carry"),
    ("B;ad | x | y,z | 1 2", True,
     "predicate 'B;ad' holds whitespace or one of '();', which a rule file cannot carry"),
])
def test_load_error_messages_are_pinned(tmp_path, line, split, message):
    path = tmp_path / "g.thg"
    path.write_text(f"#thg v1\n{line}\n")
    with pytest.raises(DataFormatError) as err:
        load_graph(path, split_multi_tail=split)
    assert str(err.value) == f"{path}:2: {message}"


def test_a_bad_predicate_is_rejected_at_its_first_line(tmp_path):
    path = tmp_path / "g.thg"
    path.write_text("#thg v1\nGood | a | b | 1 2\nPut It | a | b | 1 2\nPut It | b | a | 1 2\n")
    with pytest.raises(DataFormatError, match=f"^{path}:3: predicate 'Put It' "):
        load_graph(path)


def test_load_snapshots_groups_triples_by_rising_time_point(tmp_path):
    path = tmp_path / "s.tkg"
    path.write_text("# snapshots\n3 | a | p | b\n\n1 | b | q | c\n3 | c | p | a\n")
    assert load_snapshots(path) == [
        (1, [("b", "q", "c")]),
        (3, [("a", "p", "b"), ("c", "p", "a")]),
    ]


def test_label_needs_whitespace_or_the_line_end_after_it(tmp_path):
    path = tmp_path / "g.thg"
    path.write_text("#thg v1\n#labelled by hand\nPut | a | b | 1 2\n")
    assert load_graph(path)[1] is None
    path.write_text("#thg v1\n#label\tBLT \nPut | a | b | 1 2\n")
    assert load_graph(path)[1] == "BLT"
    path.write_text("#thg v1\n#label\nPut | a | b | 1 2\n")
    assert load_graph(path)[1] == ""


def test_a_second_label_line_is_a_data_error(tmp_path):
    path = tmp_path / "g.thg"
    path.write_text("#thg v1\n#label BLT\nPut | a | b | 1 2\n#label other\n")
    with pytest.raises(DataFormatError) as err:
        load_graph(path)
    assert str(err.value) == f"{path}:4: a second #label line; a graph has one label"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("line", ["Put | a | b | 1 2", "Put | a | b | 2 1"])
def test_load_graph_pauses_the_gc_and_leaves_it_as_it_found_it(
    tmp_path, monkeypatch, capsys, enabled, line
):
    # the pause belongs to the command that calls `load_graph`, and it is
    # lifted also when the file turns out bad (a reversed interval: exit 2)
    path = tmp_path / "g.thg"
    path.write_text(f"#thg v1\nGet | b | a | 0 1\n{line}\n")
    seen = []
    add_event = TemporalHypergraph.add_event

    def spy(self, *args):
        seen.append(gc.isenabled())
        return add_event(self, *args)

    monkeypatch.setattr(TemporalHypergraph, "add_event", spy)
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(["inspect", "--data", str(path)]) == (2 if line.endswith("2 1") else 0)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert seen and not any(seen)


# a few distinct times, each written with varying inner whitespace
time_field_strategy = st.tuples(
    st.sampled_from([(0, 0), (0, 3), (2, 5), (-4, 7)]),
    st.sampled_from(["{} {}", " {}  {} ", "{}\t{}", "\t{} {}  "]),
)


@settings(max_examples=60)
@given(st.lists(st.tuples(hyperedge_strategy, time_field_strategy), max_size=16))
def test_repeated_time_fields_load_as_add_event_builds(tmp_path_factory, rows):
    expected = TemporalHypergraph()
    lines = ["#thg v1"]
    for (pred, heads, tails, _), ((start, end), spacing) in rows:
        expected.add_event(pred, heads, tails[:1], (start, end))
        lines.append(f"{pred} | {','.join(heads)} | {tails[0]} | "
                     + spacing.format(start, end))
    path = tmp_path_factory.mktemp("times") / "g.thg"
    path.write_text("\n".join(lines) + "\n")
    loaded, _ = load_graph(path)
    assert graph_state(loaded) == graph_state(expected)


@pytest.mark.parametrize("field, message", [
    ("2 1", "interval start 2 > end 1"),
    ("1 z", "invalid literal for int() with base 10: 'z'"),
    ("1", "expected '<start> <end>', got '1'"),
])
def test_a_repeated_bad_time_field_is_rejected_at_its_first_line(tmp_path, field, message):
    path = tmp_path / "g.thg"
    path.write_text(f"#thg v1\nP | a | b | 0 1\nP | a | b | {field}\n"
                    f"P | b | a | 0 1\nP | b | a | {field}\n")
    with pytest.raises(DataFormatError) as err:
        load_graph(path)
    assert str(err.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("lines, lineno, name", [
    (["P | a\tb | c | 1 2"], 2, "a\tb"),
    (["P | a | c | 1 2", "P | c | a\tb | 1 2", "P | a\tb | c | 1 2"], 3, "a\tb"),
    (["P | a, b\tc | d | 1 2"], 2, "b\tc"),
    (["P | a | b,c\td | 1 2"], 2, "c\td"),
])
def test_a_tab_in_an_entity_name_is_rejected_at_its_first_line(tmp_path, lines, lineno,
                                                                name):
    """`save_graph` refuses such a name, so `load_graph` must refuse it too."""
    path = tmp_path / "g.thg"
    path.write_text("#thg v1\n" + "\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_graph(path, split_multi_tail=True)
    assert str(err.value) == f"{path}:{lineno}: reserved character '\\t' in {name!r}"
