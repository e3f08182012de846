"""`from_observed`, the singleton-network builder behind many test inputs."""
from rulewalk.allen import Relation, rel_set
from rulewalk.hypergraph import Interval

from oracles import from_observed

R = Relation


def test_from_observed_singletons():
    net = from_observed([("a", Interval(1, 2)), ("b", Interval(3, 4))])
    ia, ib = net.keys.index("a"), net.keys.index("b")
    assert net.cells[ia][ib] == rel_set(R.BEFORE)
    assert net.cells[ib][ia] == rel_set(R.AFTER)
    assert net.cells[ia][ia] == rel_set(R.EQUAL)


def test_from_observed_single_node():
    net = from_observed([("a", Interval(2, 2))])
    assert net.n == 1
    assert net.cells[0][0] == rel_set(R.EQUAL)


def test_from_observed_equal_intervals():
    net = from_observed([("a", Interval(1, 3)), ("b", Interval(1, 3))])
    assert net.cells[0][1] == rel_set(R.EQUAL)
