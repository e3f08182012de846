"""Qualitative temporal constraint networks and the path-consistency solver.

An `IANetwork` stores one relation set per ordered pair of nodes (events or
rule body atoms).  `resolve_time` is the classic worklist propagation: each
cell is repeatedly intersected with the composition of the relations along
every two-leg path between its endpoints until a fixpoint; an empty cell
means the network is inconsistent.

Closed-prefix contract: a caller that appends nodes to a network which is
already path-consistent passes the number of old nodes as `closed_prefix`,
and only the pairs touching the appended nodes seed the worklist (the
incremental idea of PC-2).  A triangle of old nodes can only stop being
path-consistent after one of its cells shrank, and every shrunk cell is
queued again, so the propagation reaches the same (unique) closure.

Closed-input contract: `observe` is the only operation that closes a
network.  It appends nodes with the observed relations of their intervals
and closes through the closed prefix; `rules.trace_network` observes the
events of each group of a trace in one batch, `rules.Lift.rule` the
class atoms.  The closure of the same input cells is unique, so observing
events one call at a time or all in one call gives the same cells.  Every
cell then holds the relation of the graph's own intervals, which realise the
network (Allen 1983), so the closure never empties a cell; `observe` raises
if it ever does.  The other operations take closed networks and only copy or OR
their cells, since the result is closed as it stands.  Composition
distributes over union, so each cell of a cellwise union of two closed
networks lies inside the composition of the union's legs (Mackworth 1977):
`generalize`, which widens a rule network to admit another grounding, is
that union.  `merge_paths` joins networks that share no node with FULL_SET
cells between them, and composing a non-empty set with FULL_SET gives
FULL_SET, so no cross cell tightens anything.
"""
from __future__ import annotations

from collections import deque
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


def resolve_time(net: IANetwork, closed_prefix: int = 0) -> tuple[bool, IANetwork]:
    """Path-consistency closure; returns (consistent, refined copy).

    Refinement only ever shrinks cells.  On the first empty cell the
    propagation stops and the partially refined network is returned with
    consistent == False.

    `closed_prefix` = p states that the sub-network over the first p nodes
    is already path-consistent, so the worklist starts with only the pairs
    (i, j), i < j, whose node j is at index >= p.  The closure is unique, so
    the result and the consistency flag are those of the full closure; a
    network whose first p nodes are not closed may come back unclosed.
    """
    out = net.copy()
    n = out.n
    cells = out.cells
    compose = allen.compose_sets
    inverse = allen.inverse_set
    # the worklist holds pairs i < j: working on (i, j) checks every
    # triangle that has the pair as a leg, whichever end is the middle node
    queue: deque[tuple[int, int]] = deque(
        (i, j) for j in range(max(closed_prefix, 1), n) for i in range(j)
    )
    queued = set(queue)
    while queue:
        pair = queue.popleft()
        queued.discard(pair)
        i, j = pair
        rel_ij = cells[i][j]
        for k in range(n):
            if k == i or k == j:
                continue
            # tighten (i, k) through j
            refined = cells[i][k] & compose(rel_ij, cells[j][k])
            if refined != cells[i][k]:
                cells[i][k] = refined
                cells[k][i] = inverse(refined)
                if refined == EMPTY_SET:
                    return False, out
                pair = (i, k) if i < k else (k, i)
                if pair not in queued:
                    queue.append(pair)
                    queued.add(pair)
            # tighten (k, j) through i
            refined = cells[k][j] & compose(cells[k][i], rel_ij)
            if refined != cells[k][j]:
                cells[k][j] = refined
                cells[j][k] = inverse(refined)
                if refined == EMPTY_SET:
                    return False, out
                pair = (k, j) if k < j else (j, k)
                if pair not in queued:
                    queue.append(pair)
                    queued.add(pair)
    return True, out


def merge_paths(nets: Sequence[IANetwork], keys: Sequence[Hashable]) -> IANetwork:
    """Join closed networks that share no key, their nodes laid out in `keys` order.

    Cells within each input are copied and cells between inputs are
    FULL_SET, so the join is closed (see above).  Raises KeyMismatchError
    when `keys` names a node twice, when two networks share a key, or when a
    network key and `keys` do not name the same nodes.
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


def observe(
    net: IANetwork, new_keys: Sequence[Hashable], interval_of: Callable
) -> IANetwork:
    """A closed `net` extended by `new_keys`, each observed against every earlier node.

    The cell between a new node and any earlier node (old or new) is the
    singleton relation of their intervals, `interval_of(key)`; the result
    is closed through `net`'s closed prefix.  Raises KeyMismatchError when
    a key is named twice, and ValueError if the closure empties a cell,
    which observed relations of real intervals never do.
    """
    keys = net.keys + list(new_keys)
    _check_distinct(keys)
    old, n = net.n, len(keys)
    cells = [row + [0] * (n - old) for row in net.cells]
    intervals = [interval_of(k) for k in keys]
    classify = allen.classify
    for j in range(old, n):
        b = intervals[j]
        row = [0] * n
        row[j] = _EQUAL
        for i in range(j):
            rel = classify(intervals[i], b)
            cells[i][j] = 1 << rel
            row[i] = _CONVERSE[rel]
        cells.append(row)
    consistent, closed = resolve_time(IANetwork(keys, cells), closed_prefix=old)
    if not consistent:
        raise ValueError(f"observed network over {keys!r} is inconsistent")
    return closed


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
