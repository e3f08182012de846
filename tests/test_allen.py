"""Interval algebra: classification, inverses, and the composition table."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewalk import allen
from rulewalk.allen import (
    COMPOSITION_TABLE,
    EMPTY_SET,
    FULL_SET,
    Relation,
    classify,
    classify_grid,
    compose_sets,
    inverse_set,
    iter_members,
    rel_set,
)
from rulewalk.hypergraph import Interval
from rulewalk.synthetic import MAX_SPAN

from oracles import compose_table_bruteforce, interval_grid

R = Relation


def inverse(r):
    """The converse base relation: `inverse_set` of the singleton {r}."""
    (converse,) = iter_members(inverse_set(rel_set(r)))
    return converse


relation_sets = st.integers(EMPTY_SET, FULL_SET)

intervals_small = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
    lambda p: Interval(min(p), max(p))
)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ((1, 2), (3, 4), R.BEFORE),
        ((3, 4), (1, 2), R.AFTER),
        ((1, 3), (3, 5), R.MEETS),
        ((3, 5), (1, 3), R.MET_BY),
        ((1, 4), (2, 3), R.CONTAINS),
        ((2, 3), (1, 4), R.DURING),
        ((2, 2), (2, 2), R.EQUAL),
        ((1, 3), (2, 5), R.OVERLAPS),
        ((2, 5), (1, 3), R.OVERLAPPED_BY),
        ((1, 2), (1, 5), R.STARTS),
        ((1, 5), (1, 2), R.STARTED_BY),
        ((4, 5), (1, 5), R.FINISHES),
        ((1, 5), (4, 5), R.FINISHED_BY),
    ],
)
def test_classify_proper_pairs(a, b, expected):
    assert classify(Interval(*a), Interval(*b)) is expected


@pytest.mark.parametrize(
    "a,b,expected",
    [
        # point intervals take the documented collapse branches
        ((3, 3), (3, 5), R.STARTS),
        ((5, 5), (3, 5), R.FINISHES),
        ((4, 4), (3, 5), R.DURING),
        ((3, 3), (3, 3), R.EQUAL),
        ((2, 2), (2, 4), R.STARTS),  # start equality beats the meets branch
        ((2, 2), (1, 2), R.FINISHES),
        ((2, 2), (3, 3), R.BEFORE),
    ],
)
def test_classify_degenerate_points(a, b, expected):
    assert classify(Interval(*a), Interval(*b)) is expected


def test_classify_is_a_partition_over_small_endpoints():
    # the branch order makes classify total and single-valued; check against
    # first-principles conditions with the documented precedence
    def reference(a, b):
        if a.start == b.start and a.end == b.end:
            return R.EQUAL
        if a.start == b.start:
            return R.STARTS if a.end < b.end else R.STARTED_BY
        if a.end == b.end:
            return R.FINISHES if a.start > b.start else R.FINISHED_BY
        if a.end == b.start:
            return R.MEETS
        if b.end == a.start:
            return R.MET_BY
        if a.end < b.start:
            return R.BEFORE
        if b.end < a.start:
            return R.AFTER
        if b.start < a.start and a.end < b.end:
            return R.DURING
        if a.start < b.start and b.end < a.end:
            return R.CONTAINS
        if a.start < b.start:
            return R.OVERLAPS
        return R.OVERLAPPED_BY

    for a in interval_grid(6):
        for b in interval_grid(6):
            assert classify(a, b) is reference(a, b)


def test_classify_grid_matches_classify_on_every_pair():
    grid = interval_grid(8)  # degenerate points included
    starts = np.array([b.start for b in grid])
    ends = np.array([b.end for b in grid])
    for a in grid:
        row = classify_grid(a, starts, ends)
        assert row.tolist() == [classify(a, b) for b in grid]


def test_classify_grid_of_no_intervals_is_an_empty_int8_row():
    empty = np.array([], dtype=np.int64)
    row = classify_grid(Interval(2, 5), empty, empty)
    assert row.shape == (0,)
    assert row.dtype == np.int8


@settings(max_examples=200)
@given(st.data())
def test_classify_grid_matches_classify_up_to_the_span_bound(data):
    endpoint = st.integers(0, MAX_SPAN)
    a = Interval(*sorted(data.draw(st.tuples(endpoint, endpoint))))
    # half the endpoints repeat one of a's, so equal endpoints, meeting
    # intervals and points on a's ends turn up often
    near = st.one_of(endpoint, st.sampled_from([a.start, a.end]))
    grid = [Interval(*sorted(p))
            for p in data.draw(st.lists(st.tuples(near, near), max_size=50))]
    row = classify_grid(a, np.array([b.start for b in grid], dtype=np.int64),
                        np.array([b.end for b in grid], dtype=np.int64))
    assert row.dtype == np.int8
    assert row.tolist() == [classify(a, b) for b in grid]


def test_inverse_pairing_is_fixed():
    assert inverse(R.BEFORE) is R.AFTER
    assert inverse(R.MEETS) is R.MET_BY
    assert inverse(R.OVERLAPS) is R.OVERLAPPED_BY
    assert inverse(R.STARTS) is R.STARTED_BY
    assert inverse(R.DURING) is R.CONTAINS
    assert inverse(R.FINISHES) is R.FINISHED_BY
    assert inverse(R.EQUAL) is R.EQUAL
    for r in Relation:
        assert inverse(inverse(r)) is r


def test_inverse_coherence_exhaustive():
    for a in interval_grid(6):
        for b in interval_grid(6):
            assert classify(a, b) is inverse(classify(b, a))


def test_inverse_set_elementwise():
    assert inverse_set(rel_set(R.MEETS, R.DURING)) == rel_set(R.MET_BY, R.CONTAINS)
    assert inverse_set(FULL_SET) == FULL_SET
    assert inverse_set(EMPTY_SET) == EMPTY_SET


def test_composition_table_matches_bruteforce_oracle():
    oracle = compose_table_bruteforce(8)
    for r1 in Relation:
        for r2 in Relation:
            assert COMPOSITION_TABLE[r1][r2] == oracle[r1][r2], (r1, r2)


def test_compose_known_cells():
    assert COMPOSITION_TABLE[R.BEFORE][R.BEFORE] == rel_set(R.BEFORE)
    assert COMPOSITION_TABLE[R.MEETS][R.MEETS] == rel_set(R.BEFORE)
    # frozen from the enumeration oracle
    assert COMPOSITION_TABLE[R.DURING][R.OVERLAPS] == rel_set(
        R.BEFORE, R.MEETS, R.OVERLAPS, R.STARTS, R.DURING
    )


def test_equal_is_identity():
    for r in Relation:
        assert COMPOSITION_TABLE[r][R.EQUAL] == rel_set(r)
        assert COMPOSITION_TABLE[R.EQUAL][r] == rel_set(r)


def test_inverse_distributes_over_composition():
    for r1 in Relation:
        for r2 in Relation:
            assert inverse_set(COMPOSITION_TABLE[r1][r2]) == \
                COMPOSITION_TABLE[inverse(r2)][inverse(r1)]


def compose_sets_bruteforce(s1, s2):
    """Union of the frozen table's cells over every (r1, r2) in s1 x s2."""
    out = EMPTY_SET
    for r1 in range(13):
        for r2 in range(13):
            if s1 >> r1 & 1 and s2 >> r2 & 1:
                out |= allen.COMPOSITION_TABLE[r1][r2]
    return out


def test_compose_sets():
    assert compose_sets(rel_set(R.BEFORE), rel_set(R.BEFORE)) == rel_set(R.BEFORE)
    assert compose_sets(EMPTY_SET, FULL_SET) == EMPTY_SET
    assert compose_sets(FULL_SET, EMPTY_SET) == EMPTY_SET
    assert compose_sets(FULL_SET, FULL_SET) == FULL_SET


def test_compose_sets_matches_bruteforce_union_for_every_left_set():
    columns = [rel_set(r) for r in Relation] + [EMPTY_SET, FULL_SET]
    for s2 in columns:
        # the union is linear in s1, so one column per base relation suffices
        unit = [compose_sets_bruteforce(1 << r1, s2) for r1 in range(13)]
        for s1 in range(FULL_SET + 1):
            expected = EMPTY_SET
            for r1 in range(13):
                if s1 >> r1 & 1:
                    expected |= unit[r1]
            assert compose_sets(s1, s2) == expected, (s1, s2)
    # walks join path networks by unconstrained cells and rely on this
    for s in range(1, FULL_SET + 1):
        assert compose_sets(s, FULL_SET) == FULL_SET
        assert compose_sets(FULL_SET, s) == FULL_SET


@given(relation_sets, relation_sets)
def test_compose_sets_property(s1, s2):
    assert compose_sets(s1, s2) == compose_sets_bruteforce(s1, s2)


def test_set_operations():
    # relation sets are bitmasks: & intersects, | unites, and the converse
    # distributes over both
    a, b = rel_set(R.BEFORE, R.MEETS), rel_set(R.MEETS, R.OVERLAPS)
    assert a & b == rel_set(R.MEETS)
    assert a | b == rel_set(R.BEFORE, R.MEETS, R.OVERLAPS)
    assert inverse_set(a & b) == inverse_set(a) & inverse_set(b)
    assert inverse_set(a | b) == inverse_set(a) | inverse_set(b)


def test_format_parse_round_trip():
    for s in (EMPTY_SET, FULL_SET, rel_set(R.BEFORE, R.EQUAL), rel_set(R.MET_BY)):
        assert allen.parse_set(allen.format_set(s)) == s
    assert allen.format_set(rel_set(R.BEFORE, R.MEETS)) == "{BEFORE,MEETS}"


def test_members_ordering():
    assert tuple(iter_members(rel_set(R.EQUAL, R.BEFORE))) == (R.BEFORE, R.EQUAL)
    assert tuple(iter_members(FULL_SET)) == tuple(Relation)
    assert tuple(iter_members(EMPTY_SET)) == ()
    for s in range(FULL_SET + 1):
        assert rel_set(*iter_members(s)) == s


@given(intervals_small, intervals_small, intervals_small)
def test_composition_soundness_property(a, b, c):
    r = classify(a, c)
    assert COMPOSITION_TABLE[classify(a, b)][classify(b, c)] & (1 << r)


@given(intervals_small, intervals_small)
def test_inverse_coherence_property(a, b):
    assert classify(a, b) is inverse(classify(b, a))
