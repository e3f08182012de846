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
queued again, so the propagation reaches the same (unique) closure.  Walks
use this when they observe one more event against a closed path network,
and rules when they append class atoms to a closed trace network.

Closed-input contract of `merge_paths`: both inputs are path-consistent.
When they share no key the join, whose cross cells are FULL_SET, is closed
already (composing a non-empty set with FULL_SET gives FULL_SET, so no
cross cell tightens anything) and comes back without propagation; a walk's
paths never share an event, so every walk merge takes this route.

`merge_paths` joins the constraint networks of two walk paths, and
`generalize` widens a rule network to admit a newly observed grounding.
"""
from __future__ import annotations

from collections import deque
from typing import Hashable, Sequence

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

    def get(self, i: int, j: int) -> RelationSet:
        return self.cells[i][j]

    def set_pair(self, i: int, j: int, s: RelationSet) -> None:
        """Constrain the (i, j) cell, keeping converse symmetry."""
        if i == j:
            raise ValueError("diagonal cells are fixed to {EQUAL}")
        self.cells[i][j] = s
        self.cells[j][i] = allen.inverse_set(s)

    def copy(self) -> "IANetwork":
        return IANetwork(self.keys, [row[:] for row in self.cells])

    def is_trivially_empty(self) -> bool:
        return any(EMPTY_SET in row for row in self.cells)

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


def merge_paths(
    net_a: IANetwork, net_b: IANetwork, shared_keys: Sequence[Hashable] = ()
) -> tuple[bool, IANetwork]:
    """Join two closed path networks over the union of their keys.

    Keys common to both networks are unified; cells known on both sides are
    intersected, cells connecting the two paths default to the full set.
    With a shared key the join is refined by `resolve_time`; with none it
    is closed already (see the closed-input contract above).
    """
    for key in shared_keys:
        if key not in net_a.keys or key not in net_b.keys:
            raise KeyMismatchError(f"shared key {key!r} missing from one network")
    if net_a.keys and net_b.keys:
        if type(net_a.keys[0]) is not type(net_b.keys[0]):  # noqa: E721
            raise KeyMismatchError(
                f"cannot merge networks keyed by {type(net_a.keys[0]).__name__} "
                f"and {type(net_b.keys[0]).__name__}"
            )

    keys = list(net_a.keys) + [k for k in net_b.keys if k not in net_a.keys]
    merged = IANetwork(keys)
    pos = {k: i for i, k in enumerate(keys)}
    in_a = {k: i for i, k in enumerate(net_a.keys)}
    in_b = {k: i for i, k in enumerate(net_b.keys)}
    for x in keys:
        for y in keys:
            if x == y:
                continue
            cell = FULL_SET
            if x in in_a and y in in_a:
                cell &= net_a.cells[in_a[x]][in_a[y]]
            if x in in_b and y in in_b:
                cell &= net_b.cells[in_b[x]][in_b[y]]
            merged.cells[pos[x]][pos[y]] = cell
    if merged.is_trivially_empty():
        return False, merged
    if len(keys) == net_a.n + net_b.n:  # no shared key: the join is closed
        return True, merged
    return resolve_time(merged)


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
