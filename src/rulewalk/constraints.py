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

Walks and rules grow their networks through two operations on closed
inputs.  `merge_paths` joins the networks of two walk paths, which never
share an event: the join's cross cells are FULL_SET, and composing a
non-empty set with FULL_SET gives FULL_SET, so no cross cell tightens
anything and the join is closed as it stands.  `observe` appends nodes
with the observed relations of their intervals and closes through the
closed prefix; walks observe each new event, rules their class atoms.
Every cell then holds the relation of the graph's own intervals, which
realise the network (Allen 1983), so the closure never empties a cell;
`observe` raises if it ever does.

`generalize` widens a rule network to admit a newly observed grounding.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Sequence

from . import allen
from .allen import EMPTY_SET, FULL_SET, RelationSet


class KeyMismatchError(ValueError):
    """Node key lists of two networks do not line up as required."""


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
            eq = 1 << allen.Relation.EQUAL
            cells = [
                [eq if i == j else FULL_SET for j in range(n)] for i in range(n)
            ]
        self.cells = cells

    @property
    def n(self) -> int:
        return len(self.keys)

    def index_of(self, key: Hashable) -> int:
        return self.keys.index(key)

    def set_pair(self, i: int, j: int, s: RelationSet) -> None:
        """Constrain the (i, j) cell, keeping converse symmetry."""
        if i == j:
            raise ValueError("diagonal cells are fixed to {EQUAL}")
        self.cells[i][j] = s
        self.cells[j][i] = allen.inverse_set(s)

    def copy(self) -> "IANetwork":
        return IANetwork(self.keys, [row[:] for row in self.cells])

    def render(self) -> str:
        """Triples `keyA {REL,...} keyB` for the upper triangle, one per line."""
        lines = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                lines.append(
                    f"{self.keys[i]} {allen.format_set(self.cells[i][j])} {self.keys[j]}"
                )
        return "\n".join(lines)

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


def merge_paths(net_a: IANetwork, net_b: IANetwork) -> IANetwork:
    """Join two closed networks that share no key: `net_a`'s nodes, then `net_b`'s.

    Cells within each input are copied and cells between them are FULL_SET,
    so the join is closed (see above).  Raises KeyMismatchError on a shared
    key.
    """
    shared = set(net_a.keys).intersection(net_b.keys)
    if shared:
        raise KeyMismatchError(f"networks share keys {sorted(shared, key=repr)!r}")
    merged = IANetwork(net_a.keys + net_b.keys)
    n = net_a.n
    for i, row in enumerate(net_a.cells):
        merged.cells[i][:n] = row
    for i, row in enumerate(net_b.cells):
        merged.cells[n + i][n:] = row
    return merged


def observe(
    net: IANetwork, new_keys: Sequence[Hashable], interval_of: Callable
) -> IANetwork:
    """A closed `net` extended by `new_keys`, each observed against every earlier node.

    The cell between a new node and any earlier node (old or new) is the
    singleton relation of their intervals, `interval_of(key)`; the result
    is closed through `net`'s closed prefix.  Raises ValueError if the
    closure empties a cell, which observed relations of real intervals
    never do.
    """
    old = net.n
    out = IANetwork(net.keys + list(new_keys))
    for i, row in enumerate(net.cells):
        out.cells[i][:old] = row
    intervals = [interval_of(k) for k in out.keys]
    classify = allen.classify
    for j in range(old, out.n):
        for i in range(j):
            out.set_pair(i, j, 1 << classify(intervals[i], intervals[j]))
    consistent, closed = resolve_time(out, closed_prefix=old)
    if not consistent:
        raise ValueError(f"observed network over {out.keys!r} is inconsistent")
    return closed


def generalize(rule_net: IANetwork, observed_net: IANetwork) -> IANetwork:
    """Widen a rule network to also admit an observed grounding.

    Cellwise union followed by path-consistency closure.  When the observed
    network is realisable (the singleton relations of concrete intervals)
    the closure can never drop an observed relation, so the result still
    admits it.
    """
    if rule_net.keys != observed_net.keys:
        raise KeyMismatchError(
            f"node keys differ: {rule_net.keys!r} vs {observed_net.keys!r}"
        )
    widened = rule_net.copy()
    for i in range(widened.n):
        for j in range(widened.n):
            if i != j:
                widened.cells[i][j] |= observed_net.cells[i][j]
    consistent, closed = resolve_time(widened)
    if not consistent:
        # union of two consistent networks over the same nodes; unreachable
        # for observed groundings, kept as a guard for hand-built inputs
        raise ValueError("generalization produced an inconsistent network")
    return closed
