"""Qualitative temporal constraint networks and the path-consistency solver.

An `IANetwork` stores one relation set per ordered pair of nodes (events or
rule body atoms).  `resolve_time` is Mackworth's (1977) PC-1 over Allen's
(1983) composition table: it sweeps every cell (i, k), i < k, through every
third node j, intersecting the cell with the composition of (i, j) and
(j, k), until a sweep changes nothing; an empty cell means the network is
inconsistent.  A PC-2 worklist would revisit fewer triangles, but the miner
closes only small networks, a few hundred per benchmark rep, whose sweeps
compose little, so the plain sweep is the whole solver.

Closed-input contract: a lift is closed once, after its last observation.
`observe` only appends a node's observed relations; `rules.trace_network`
observes each trace event against its group and each class event against
every node, then closes the network with one `resolve_time`.  The cells
outside the observed ones are FULL_SET, so the graph's own intervals
realise the network (Allen 1983) and the closure never empties a cell;
`trace_network` raises if it ever does.  The closure of a fixed set of
cells is unique (Mackworth 1977), so closing once equals closing after each
observation.  `merge_paths` joins any networks that share no node with
FULL_SET cells between them, and composing a non-empty set with FULL_SET
gives FULL_SET, so a join of closed networks is closed.  `generalize`
widens a closed rule network by its cellwise union with another closed
network; composition distributes over union, so the union is closed as it
stands (Mackworth 1977).
"""
from __future__ import annotations

from typing import Callable, Hashable, Sequence

from . import allen
from .allen import EMPTY_SET, FULL_SET, RelationSet


class KeyMismatchError(ValueError):
    """Node key lists of two networks do not line up as required."""


def _check_distinct(keys: Sequence[Hashable]) -> None:
    seen = set()
    for k in keys:
        if k in seen:
            raise KeyMismatchError(f"key {k!r} is named twice")
        seen.add(k)


_EQUAL = 1 << allen.Relation.EQUAL
# the converse of each singleton relation, as a relation set
_CONVERSE = tuple(allen.inverse_set(1 << r) for r in allen.Relation)


class IANetwork:
    """Square matrix of relation sets over a list of node keys.

    Invariants: the diagonal is {EQUAL}, cells are converse-symmetric
    (m[j][i] == inverse_set(m[i][j])), and an empty cell marks the whole
    network inconsistent.
    """

    __slots__ = ("keys", "cells")

    def __init__(self, keys: Sequence[Hashable], cells: list[list[int]] | None = None):
        self.keys = list(keys)
        n = len(self.keys)
        if cells is None:
            cells = [
                [_EQUAL if i == j else FULL_SET for j in range(n)] for i in range(n)
            ]
        self.cells = cells

    @property
    def n(self) -> int:
        return len(self.keys)

    def set_pair(self, i: int, j: int, s: RelationSet) -> None:
        """Constrain the (i, j) cell, keeping converse symmetry."""
        if i == j:
            raise ValueError("diagonal cells are fixed to {EQUAL}")
        self.cells[i][j] = s
        self.cells[j][i] = allen.inverse_set(s)

    def copy(self) -> "IANetwork":
        return IANetwork(self.keys, [row[:] for row in self.cells])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IANetwork)
            and self.keys == other.keys
            and self.cells == other.cells
        )

    def __repr__(self) -> str:
        return f"IANetwork(n={self.n}, keys={self.keys!r})"


def resolve_time(net: IANetwork) -> tuple[bool, IANetwork]:
    """Path-consistency closure; returns (consistent, refined copy).

    Refinement only ever shrinks cells.  On the first empty cell the
    sweeps stop and the partially refined network is returned with
    consistent == False.
    """
    out = net.copy()
    n = out.n
    cells = out.cells
    compose = allen.compose_sets
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for k in range(i + 1, n):
                for j in range(n):
                    if j == i or j == k:
                        continue
                    refined = cells[i][k] & compose(cells[i][j], cells[j][k])
                    if refined != cells[i][k]:
                        out.set_pair(i, k, refined)
                        if refined == EMPTY_SET:
                            return False, out
                        changed = True
    return True, out


def merge_paths(nets: Sequence[IANetwork], keys: Sequence[Hashable]) -> IANetwork:
    """Join networks that share no key, their nodes laid out in `keys` order.

    Cells within each input are copied and cells between inputs are
    FULL_SET, so a join of closed networks is closed (see above).  Raises
    KeyMismatchError when `keys` names a node twice, when two networks share
    a key, or when a network key and `keys` do not name the same nodes.
    """
    _check_distinct(keys)
    free = {k: i for i, k in enumerate(keys)}
    # each node's diagonal cell is copied from the one network that holds it
    cells = [[FULL_SET] * len(keys) for _ in keys]
    for net in nets:
        try:
            idx = [free.pop(k) for k in net.keys]
        except KeyError as exc:
            key = exc.args[0]
            why = "held by two networks" if key in keys else "missing from keys"
            raise KeyMismatchError(f"key {key!r} is {why}") from None
        for i, row in zip(idx, net.cells):
            out = cells[i]
            for j, s in zip(idx, row):
                out[j] = s
    if free:
        raise KeyMismatchError(f"keys {list(free)!r} are held by no network")
    return IANetwork(keys, cells)


def observe(net: IANetwork, key: Hashable, interval_of: Callable) -> IANetwork:
    """`net` extended by node `key`, observed against every earlier node.

    The cell between `key` and each earlier node is the singleton relation
    of their intervals, as `interval_of` gives them.  No cell is closed: the
    caller closes the network once, after its last observation.  Raises
    KeyMismatchError when `key` is already a node.
    """
    keys = net.keys + [key]
    _check_distinct(keys)
    b = interval_of(key)
    rels = [allen.classify(interval_of(k), b) for k in net.keys]
    cells = [row + [1 << rel] for row, rel in zip(net.cells, rels)]
    cells.append([_CONVERSE[rel] for rel in rels] + [_EQUAL])
    return IANetwork(keys, cells)


def generalize(rule_net: IANetwork, observed_net: IANetwork) -> IANetwork:
    """Widen a closed rule network to also admit a closed observed network.

    The cellwise union, which is closed (see above).
    """
    if rule_net.keys != observed_net.keys:
        raise KeyMismatchError(
            f"node keys differ: {rule_net.keys!r} vs {observed_net.keys!r}"
        )
    return IANetwork(rule_net.keys, [
        [a | b for a, b in zip(row, other)]
        for row, other in zip(rule_net.cells, observed_net.cells)
    ])
