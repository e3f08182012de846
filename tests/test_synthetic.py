"""Planted-corpus generation: the exact-stream shuffle behind the interval search."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulewalk.synthetic import _shuffled_range


def shuffled_by_random(n, rng):
    """The oracle: the standard library's own shuffle of `range(n)`."""
    order = list(range(n))
    rng.shuffle(order)
    return order


def assert_same_draws(n, seed):
    expected, actual = random.Random(seed), random.Random(seed)
    assert _shuffled_range(n, actual) == shuffled_by_random(n, expected)
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
