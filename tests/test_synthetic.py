"""Planted-corpus generation: the planted-interval search and its lazy shuffle."""
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rulewalk.allen import FULL_SET, classify
from rulewalk.constraints import IANetwork
from rulewalk.rules import Atom, TemporalRule
from rulewalk.synthetic import (
    GenerationError,
    _interval_grid,
    _lazy_shuffle,
    _sample_satisfying_intervals,
)

from oracles import satisfying_intervals_exist_bruteforce


@st.composite
def chain_rules(draw):
    """A 1-3 atom chain rule whose every cell is a random non-empty set.

    The cells are not closed, so some networks have no realisation at all
    and some realise only at larger spans.
    """
    n = draw(st.integers(1, 3))
    net = IANetwork(list(range(n)))
    for i in range(n):
        for j in range(i + 1, n):
            net.set_pair(i, j, draw(st.integers(1, FULL_SET)))
    body = tuple(Atom(f"P{i}", (i,), (i + 1,)) for i in range(n))
    return TemporalRule(Atom("Target", (), ()), body, net)


@settings(max_examples=300, deadline=None)
@given(chain_rules(), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_planted_interval_search_agrees_with_the_bruteforce_oracle(rule, span, seed):
    # the search either places every atom inside every cell, or fails
    # exactly when no tuple of grid intervals fits the span
    exists = satisfying_intervals_exist_bruteforce(rule, span)
    try:
        intervals = _sample_satisfying_intervals(
            rule, _interval_grid(rule, span), random.Random(seed))
    except GenerationError as err:
        assert not exists
        assert str(err) == ("the planted constraints admit no interval assignment "
                            f"within a span of {span} ticks")
        return
    assert exists
    assert len(intervals) == len(rule.body)
    assert all(0 <= iv.start <= iv.end <= span for iv in intervals)
    cells = rule.time_net.cells
    for i, a in enumerate(intervals):
        for j, b in enumerate(intervals):
            if i != j:
                assert cells[i][j] & (1 << classify(a, b))


def shuffled_by_random(n, rng):
    """The oracle: the standard library's own shuffle of `range(n)`."""
    order = list(range(n))
    rng.shuffle(order)
    return order


def assert_same_draws(n, seed):
    expected, actual = random.Random(seed), random.Random(seed)
    drawn = list(_lazy_shuffle(list(range(n)), actual))
    assert drawn[::-1] == shuffled_by_random(n, expected)
    # the same draws leave the same state, so later draws are unchanged too
    assert actual.getstate() == expected.getstate()


# every size up to 70 crosses several bit-count blocks; 255-257 straddle a
# block edge; 496 is the grid of the default span of 30
@pytest.mark.parametrize("n", [*range(71), 255, 256, 257, 496, 1000])
def test_shuffled_range_matches_random_shuffle(n):
    for seed in (0, 1, 17):
        assert_same_draws(n, seed)


@settings(max_examples=200)
@given(st.integers(0, 600), st.integers(0, 2**64 - 1))
def test_shuffled_range_matches_random_shuffle_for_any_seed(n, seed):
    assert_same_draws(n, seed)
