"""Constraint networks: construction, closure, merging, generalization."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewalk import allen
from rulewalk.allen import FULL_SET, Relation, rel_set
from rulewalk.constraints import (
    IANetwork,
    KeyMismatchError,
    generalize,
    merge_paths,
    observe,
    resolve_time,
)
from rulewalk.hypergraph import Interval

from oracles import from_observed, path_consistency_bruteforce, realizable

R = Relation

intervals_small = st.tuples(st.integers(0, 8), st.integers(0, 4)).map(
    lambda p: Interval(p[0], p[0] + p[1])
)
singletons = st.sampled_from([rel_set(r) for r in Relation])
nonempty_sets = st.integers(1, FULL_SET)


def test_resolve_time_composes_chain():
    net = IANetwork(["a", "b", "c"])
    net.set_pair(0, 1, rel_set(R.BEFORE))
    net.set_pair(1, 2, rel_set(R.BEFORE))
    consistent, refined = resolve_time(net)
    assert consistent
    assert refined.cells[0][2] == rel_set(R.BEFORE)
    # input untouched
    assert net.cells[0][2] == FULL_SET


def test_resolve_time_detects_cycle_contradiction():
    net = IANetwork(["a", "b", "c"])
    net.set_pair(0, 1, rel_set(R.BEFORE))
    net.set_pair(1, 2, rel_set(R.BEFORE))
    net.set_pair(0, 2, rel_set(R.AFTER))
    consistent, _ = resolve_time(net)
    assert not consistent


def test_resolve_time_observed_fixpoint():
    net = from_observed(
        [("a", Interval(0, 4)), ("b", Interval(2, 6)), ("c", Interval(2, 2))]
    )
    consistent, refined = resolve_time(net)
    assert consistent
    assert refined.cells == net.cells


def test_resolve_time_monotone_and_idempotent():
    rng = random.Random(7)
    base_relations = list(Relation)
    for _ in range(50):
        n = rng.randint(2, 4)
        net = IANetwork(list(range(n)))
        for i in range(n):
            for j in range(i + 1, n):
                chosen = rng.sample(base_relations, rng.randint(1, 4))
                net.set_pair(i, j, rel_set(*chosen))
        consistent, refined = resolve_time(net)
        for i in range(n):
            for j in range(n):
                assert refined.cells[i][j] & ~net.cells[i][j] == 0  # shrink only
        if consistent:
            again_ok, again = resolve_time(refined)
            assert again_ok
            assert again.cells == refined.cells
            # closure property
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        comp = allen.compose_sets(
                            refined.cells[i][k], refined.cells[k][j]
                        )
                        assert refined.cells[i][j] & ~comp == 0


def test_resolve_time_matches_realization_oracle_on_singletons():
    rng = random.Random(11)
    for _ in range(120):
        n = 4
        net = IANetwork(list(range(n)))
        for i in range(n):
            for j in range(i + 1, n):
                net.set_pair(i, j, 1 << rng.choice(list(Relation)))
        consistent, _ = resolve_time(net)
        assert consistent == realizable(net, max_endpoint=8)


def test_merge_disjoint_paths_keeps_cross_cells_wide():
    net_a = from_observed([(0, Interval(0, 1)), (1, Interval(2, 3))])
    net_b = from_observed([(2, Interval(5, 6))])
    net_c = from_observed([(3, Interval(1, 4)), (4, Interval(7, 8))])
    merged = merge_paths([net_a, net_b, net_c], [3, 0, 2, 4, 1])
    assert merged.keys == [3, 0, 2, 4, 1]
    i0, i1, i2 = merged.keys.index(0), merged.keys.index(1), merged.keys.index(2)
    i3, i4 = merged.keys.index(3), merged.keys.index(4)
    assert merged.cells[i0][i1] == net_a.cells[0][1]
    assert merged.cells[i3][i4] == net_c.cells[0][1]
    for i, j in ((i0, i2), (i2, i4), (i1, i3), (i0, i4)):
        assert merged.cells[i][j] == merged.cells[j][i] == FULL_SET


def test_merge_paths_rejects_a_shared_key():
    net_a = IANetwork(["a", "s"])
    net_b = IANetwork(["s", "b"])
    with pytest.raises(KeyMismatchError, match="'s' is held by two networks"):
        merge_paths([net_a, IANetwork(["c"]), net_b], ["a", "s", "b", "c"])


def test_merge_paths_rejects_a_network_key_missing_from_keys():
    with pytest.raises(KeyMismatchError, match="'b' is missing from keys"):
        merge_paths([IANetwork(["a"]), IANetwork(["b"])], ["a"])


def test_merge_paths_rejects_a_key_no_network_holds():
    with pytest.raises(KeyMismatchError, match=r"\['c'\] are held by no network"):
        merge_paths([IANetwork(["a"]), IANetwork(["b"])], ["a", "c", "b"])


def test_merge_paths_rejects_keys_that_name_a_node_twice():
    with pytest.raises(KeyMismatchError, match="'a' is named twice"):
        merge_paths([IANetwork(["a"])], ["a", "a"])


def test_observe_rejects_a_key_named_twice():
    interval_of = {"a": Interval(0, 1), "b": Interval(2, 3)}.__getitem__
    with pytest.raises(KeyMismatchError, match="'a' is named twice"):
        observe(IANetwork(["a"]), "a", interval_of)
    with pytest.raises(KeyMismatchError, match="'b' is named twice"):
        observe(IANetwork(["b", "a"]), "b", interval_of)


def test_observe_leaves_the_closure_to_its_caller():
    # the old cell says a BEFORE b, but the intervals put a after b, and c
    # lies between them; closing would empty the a-b cell, and observe only
    # appends c's observed cells
    net = IANetwork(["a", "b"])
    net.set_pair(0, 1, rel_set(R.BEFORE))
    intervals = {"a": Interval(5, 6), "b": Interval(0, 1), "c": Interval(2, 3)}
    observed = observe(net, "c", intervals.__getitem__)
    assert observed.keys == ["a", "b", "c"]
    assert observed.cells[0] == [rel_set(R.EQUAL), rel_set(R.BEFORE), rel_set(R.AFTER)]
    assert observed.cells[1][2] == rel_set(R.BEFORE)
    assert observed.cells[2] == [rel_set(R.BEFORE), rel_set(R.AFTER), rel_set(R.EQUAL)]
    assert not resolve_time(observed)[0]


def test_generalize_unions_cells():
    rule_net = IANetwork([0, 1])
    rule_net.set_pair(0, 1, rel_set(R.BEFORE))
    observed = IANetwork([0, 1])
    observed.set_pair(0, 1, rel_set(R.MEETS))
    widened = generalize(rule_net, observed)
    assert widened.cells[0][1] & rel_set(R.BEFORE, R.MEETS) == rel_set(R.BEFORE, R.MEETS)


def test_generalize_idempotent_on_same_network():
    net = IANetwork([0, 1])
    net.set_pair(0, 1, rel_set(R.BEFORE))
    assert generalize(net, net).cells == net.cells


def test_generalize_closes_under_pc():
    # widen a closed chain by an observation of it: the union of the two
    # closed networks is closed as it stands
    rule_net = IANetwork([0, 1, 2])
    rule_net.set_pair(0, 1, rel_set(R.BEFORE))
    rule_net.set_pair(1, 2, rel_set(R.BEFORE))
    consistent, rule_net = resolve_time(rule_net)
    assert consistent
    observed = from_observed(
        [(0, Interval(0, 1)), (1, Interval(2, 3)), (2, Interval(4, 5))]
    )
    widened = generalize(rule_net, observed)
    ok, closed = resolve_time(widened)
    assert ok
    assert closed.cells == widened.cells
    # every observed relation survives
    for i in range(3):
        for j in range(3):
            assert widened.cells[i][j] & observed.cells[i][j] == observed.cells[i][j]


def test_generalize_key_mismatch():
    with pytest.raises(KeyMismatchError):
        generalize(IANetwork([0, 1]), IANetwork([1, 0]))


def test_generalize_commutative_and_associative_over_observed():
    # unions of realizable singleton networks are already path-consistent,
    # so generalization order cannot matter
    rng = random.Random(23)
    for _ in range(30):
        nets = []
        for _ in range(3):
            intervals = []
            for k in range(3):
                s = rng.randint(0, 8)
                intervals.append((k, Interval(s, s + rng.randint(0, 4))))
            nets.append(from_observed(intervals))
        o0, o1, o2 = nets
        ab = generalize(generalize(o0, o1), o2)
        ba = generalize(generalize(o0, o2), o1)
        assert ab.cells == ba.cells
        left = generalize(generalize(o0, o1), o2)
        right = generalize(o0, generalize(o1, o2))
        assert left.cells == right.cells


@settings(max_examples=300)
@given(st.data())
def test_resolve_time_matches_the_bruteforce_closure(data):
    # random converse-symmetric cells, mostly singletons or FULL_SET, so
    # that both verdicts come up and a closure often takes several passes
    n = data.draw(st.integers(2, 5), label="nodes")
    net = IANetwork(list(range(n)))
    for i in range(n):
        for j in range(i + 1, n):
            net.set_pair(i, j, data.draw(st.one_of(singletons, st.just(FULL_SET), nonempty_sets)))
    consistent, closed = resolve_time(net)
    expected_ok, expected = path_consistency_bruteforce(net)
    assert consistent == expected_ok
    if consistent:
        assert closed.cells == expected


def _draw_closed(data, keys, intervals=None):
    # observed relations of random intervals, widened at random, then closed:
    # consistent, since the intervals still realise it
    if intervals is None:
        intervals = data.draw(st.lists(intervals_small, min_size=len(keys), max_size=len(keys)))
    net = IANetwork(keys)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            observed = 1 << allen.classify(intervals[i], intervals[j])
            net.set_pair(i, j, observed | data.draw(st.integers(0, FULL_SET)))
    consistent, net = resolve_time(net)
    assert consistent
    return net


@settings(max_examples=200)
@given(st.data())
def test_merge_paths_of_disjoint_closed_networks_is_the_closed_join(data):
    sizes = data.draw(st.lists(st.integers(0, 3), max_size=4), label="network sizes")
    nets = [_draw_closed(data, [10 * m + i for i in range(size)])
            for m, size in enumerate(sizes)]
    keys = data.draw(st.permutations([k for net in nets for k in net.keys]), label="keys")
    pos = {k: i for i, k in enumerate(keys)}
    join = IANetwork(keys)
    for net in nets:
        for a, row in zip(net.keys, net.cells):
            for b, s in zip(net.keys, row):
                join.cells[pos[a]][pos[b]] = s
    expected_ok, expected = resolve_time(join)
    assert expected_ok
    assert merge_paths(nets, keys) == expected


@settings(max_examples=200)
@given(st.data())
def test_generalize_is_the_closure_of_the_union(data):
    # the reference closes the cellwise union; generalize does not need to,
    # since the union of two closed networks is already closed
    keys = list(range(data.draw(st.integers(1, 5))))
    rule_net, observed = _draw_closed(data, keys), _draw_closed(data, keys)
    union = rule_net.copy()
    for i in range(len(keys)):
        for j in range(len(keys)):
            if i != j:
                union.cells[i][j] |= observed.cells[i][j]
    consistent, closed = resolve_time(union)
    assert consistent
    assert generalize(rule_net, observed) == closed


@settings(max_examples=200)
@given(st.data())
def test_generalize_is_identity_once_the_observation_is_contained(data):
    # any closed K containing a closed B is the closure of K's own cells,
    # a superset of B; the closure keeps B, so widening K by B changes nothing
    keys = list(range(data.draw(st.integers(1, 5))))
    observed = _draw_closed(data, keys)
    wider = observed.copy()
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            wider.set_pair(i, j, wider.cells[i][j] | data.draw(st.integers(0, FULL_SET)))
    consistent, rule_net = resolve_time(wider)
    assert consistent
    assert all(
        rule_net.cells[i][j] & observed.cells[i][j] == observed.cells[i][j]
        for i in range(len(keys)) for j in range(len(keys))
    )
    assert generalize(rule_net, observed) == rule_net


@settings(max_examples=200)
@given(st.data())
def test_observe_on_a_closed_observed_network_is_the_full_closure(data):
    old = data.draw(st.integers(0, 5), label="old nodes")
    intervals = data.draw(st.lists(intervals_small, min_size=old + 1, max_size=old + 1))
    events = [(10 + k, iv) for k, iv in enumerate(intervals)]
    consistent, closed = resolve_time(from_observed(events[:old]))
    assert consistent
    observed = observe(closed, events[old][0], dict(events).__getitem__)
    assert observed == resolve_time(from_observed(events))[1]


@settings(max_examples=200)
@given(st.data())
def test_observe_on_a_widened_closed_network_matches_the_from_scratch_closure(data):
    # walk paths are joined with FULL cross cells, so the closed input need
    # not be fully observed; the new node's cells are still observed ones
    old = data.draw(st.integers(0, 5), label="old nodes")
    intervals = data.draw(st.lists(intervals_small, min_size=old + 1, max_size=old + 1))
    keys = list(range(old))
    closed = _draw_closed(data, keys, intervals[:old])
    interval_of = intervals.__getitem__
    full = IANetwork(keys + [old])
    for i in range(old):
        full.cells[i][:old] = closed.cells[i]
        full.set_pair(i, old, 1 << allen.classify(interval_of(i), interval_of(old)))
    expected_ok, expected = resolve_time(full)
    assert expected_ok
    assert resolve_time(observe(closed, old, interval_of)) == (True, expected)
