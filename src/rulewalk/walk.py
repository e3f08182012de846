"""Random walks over B-graphs with temporal constraint tracking.

A walk starts from a set of entities that each carry unit mass and only
ever crosses an edge once all of its head entities have been reached
(B-connectivity).  Each enabled edge is weighted by the minimum over its
heads of (arrival mass / head out-degree); sampling normalizes those
weights over the enabled set, while the recorded arrival mass keeps the
unnormalized quantity, so the same walk yields both a sampler and a score.

Every start entity opens its own path.  A path's constraint network holds
the observed pairwise relations of its events, closed by path
consistency; when an edge joins two paths their networks are joined with
`constraints.merge_paths` (cross-path cells stay unconstrained, never
re-observed) and the new event is added with `constraints.observe`.  The
graph's own intervals realise every such network, so the closure never
finds one inconsistent; `observe` raises if it ever does.

A walk's state depends only on its start set and its trace, so the states
form a prefix tree rooted at the start set.  Each node computes its
sampling options, each of its successors and its trace network once, the
first time a walk needs them; later walks through the same prefix reuse
them.  Nodes are never mutated once built, so walks that share a trace
share its `IANetwork`, which callers must treat as read-only.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from . import constraints
from .constraints import IANetwork
from .hypergraph import GraphError, TemporalHypergraph


#: step() result for a walk that cannot continue
DEAD_END = object()


def derive_seed(seed: int, *parts) -> int:
    """Stable 63-bit sub-seed from a base seed and any hashable labels."""
    text = ":".join([str(seed), *map(str, parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class WalkParams:
    max_steps: int = 3
    num_walks: int = 100
    seed: int = 0
    start_events: int = 3  # classification mode: heads of the k earliest events

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.num_walks < 1:
            raise ValueError("num_walks must be >= 1")


@dataclass
class WalkDiagnostics:
    """Counters over one sample_walks invocation (or many, when shared)."""

    walks: int = 0
    dead_ends: int = 0
    missed_target: int = 0
    kept: int = 0


class _Path:
    """One sub-walk: its entity territory and its closed event constraint network.

    Never mutated once built: successor nodes share the paths a step leaves
    untouched with their parent.
    """

    __slots__ = ("entities", "net")

    def __init__(self, entities: frozenset[int], net: IANetwork):
        self.entities = entities
        self.net = net


class _Prefix:
    """A prefix-tree node: the walk state after one trace from the root's starts.

    `reached`, `arrival_mass`, `trace` and `paths` are never mutated once
    the node is built.  The memo slots fill in on first use: `options` holds
    the sampling options (enabled event ids, their weights, the weights'
    sum), `successors` maps a chosen event id to the next node, and `net`
    caches the trace network.
    """

    __slots__ = ("reached", "arrival_mass", "trace", "paths", "options", "successors", "net")

    def __init__(self, reached: set[int], arrival_mass: dict[int, float],
                 trace: list[int], paths: list[_Path]) -> None:
        self.reached = reached
        self.arrival_mass = arrival_mass
        self.trace = trace
        self.paths = paths
        self.options: tuple[list[int], list[float], float] | None = None
        self.successors: dict[int, _Prefix] = {}
        self.net: IANetwork | None = None


class WalkState:
    """A cursor onto one node of a walk's prefix tree.

    `reached`, `arrival_mass`, `trace`, `paths` and `time_net` belong to the
    node, which other walks may share: read them, never mutate them.
    `step` moves the cursor to the next node in place.
    """

    __slots__ = ("_node",)

    def __init__(self, node: _Prefix) -> None:
        self._node = node

    @property
    def reached(self) -> set[int]:
        return self._node.reached

    @property
    def arrival_mass(self) -> dict[int, float]:
        return self._node.arrival_mass

    @property
    def trace(self) -> list[int]:
        return self._node.trace

    @property
    def step(self) -> int:
        return len(self._node.trace)

    @property
    def paths(self) -> list[_Path]:
        return self._node.paths

    @property
    def time_net(self) -> IANetwork:
        """Path-consistent constraint network over the trace, built once per node.

        It joins the closed path networks by unconstrained cross-path
        cells.  Composing any non-empty set with FULL_SET gives FULL_SET,
        so no cross-path cell can tighten anything: the join is closed.
        """
        node = self._node
        if node.net is None:
            net = IANetwork(node.trace)
            pos = {k: i for i, k in enumerate(node.trace)}
            for path in node.paths:
                idx = [pos[k] for k in path.net.keys]
                for i, row in zip(idx, path.net.cells):
                    out = net.cells[i]
                    for j, s in zip(idx, row):
                        out[j] = s
            node.net = net
        return node.net


def init_walk(graph: TemporalHypergraph, starts: set[int]) -> WalkState:
    """A cursor on a fresh prefix-tree root: every start entity reached with unit mass."""
    if not starts:
        raise ValueError("walk requires a non-empty start set")
    for s in starts:
        if not 0 <= s < len(graph.entities):
            raise GraphError(f"unknown start entity id {s}")
    if not graph.is_b_graph():
        raise GraphError("random B-walks require a B-graph (single-tail events)")
    paths = [_Path(frozenset((s,)), IANetwork([])) for s in sorted(starts)]
    return WalkState(_Prefix(set(starts), {s: 1.0 for s in starts}, [], paths))


def edge_weight(graph: TemporalHypergraph, state: WalkState, event_id: int) -> float:
    """min over heads of arrival_mass / out_degree; the walk's raw weight."""
    event = graph.events[event_id]
    if event_id in state.trace or not all(h in state.reached for h in event.heads):
        raise ValueError(f"event {event_id} is not enabled in this state")
    return _weight(graph, state.arrival_mass, event)


def _weight(graph: TemporalHypergraph, mass: dict[int, float], event) -> float:
    return min(mass[h] / graph.out_degree(h) for h in event.heads)


def step(graph: TemporalHypergraph, state: WalkState, rng: random.Random):
    """Sample one enabled edge and move the cursor to that successor in place.

    Returns the state, or DEAD_END (the cursor stays where it was) when
    nothing is enabled.  Draws `rng.random()` once per sampled edge.
    """
    node = state._node
    if node.options is None:
        enabled = graph.enabled_edges(node.reached, set(node.trace))
        weights = [_weight(graph, node.arrival_mass, graph.events[e]) for e in enabled]
        node.options = (enabled, weights, sum(weights))
    enabled, weights, total = node.options
    if not enabled:
        return DEAD_END
    pick = rng.random() * total
    chosen, mass = enabled[-1], weights[-1]
    acc = 0.0
    for e, w in zip(enabled, weights):
        acc += w
        if pick < acc:
            chosen, mass = e, w
            break
    succ = node.successors.get(chosen)
    if succ is None:
        succ = node.successors[chosen] = _successor(graph, node, chosen, mass)
    state._node = succ
    return state


def _successor(graph, node: _Prefix, event_id: int, mass: float) -> _Prefix:
    """The node one step past `node` along `event_id`.

    The paths the event touches are joined into one, which observes it.
    """
    event = graph.events[event_id]
    tail = event.tails[0]
    touched = [
        path for path in node.paths
        if any(h in path.entities for h in event.heads) or tail in path.entities
    ]
    entities, net = touched[0].entities, touched[0].net
    for other in touched[1:]:
        net = constraints.merge_paths(net, other.net)
        entities = entities | other.entities
    net = constraints.observe(net, [event_id], lambda e: graph.events[e].interval)
    paths = [p for p in node.paths if p not in touched]
    paths.append(_Path(entities.union(event.heads, (tail,)), net))
    arrival_mass = dict(node.arrival_mass)
    arrival_mass[tail] = mass
    return _Prefix(node.reached | {tail}, arrival_mass, node.trace + [event_id], paths)


def reach_probability(
    graph: TemporalHypergraph, starts: set[int], target: int, horizon: int
) -> float:
    """Analytic reach score of `target` within `horizon` breadth steps.

    Breadth-order expansion: at each step every currently enabled edge
    fires once, contributing its weight to its tail; a node's mass is
    frozen at its first arrival.  The returned value sums the weights of
    all edges into `target` and is a score, not a probability (converging
    paths can push it above 1).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    reached = set(starts)
    mass = {s: 1.0 for s in starts}
    traversed: set[int] = set()
    score = 0.0
    for _ in range(horizon):
        enabled = graph.enabled_edges(reached, traversed)
        if not enabled:
            break
        arrivals: dict[int, float] = {}
        for e in enabled:
            event = graph.events[e]
            w = min(mass[h] / graph.out_degree(h) for h in event.heads)
            traversed.add(e)
            tail = event.tails[0]
            arrivals[tail] = arrivals.get(tail, 0.0) + w
            if tail == target:
                score += w
        for tail, m in arrivals.items():
            if tail not in reached:
                reached.add(tail)
                mass[tail] = m
    return score


def sample_walks(
    graph: TemporalHypergraph,
    query,
    params: WalkParams,
    diagnostics: WalkDiagnostics | None = None,
) -> list[tuple[list[int], IANetwork]]:
    """Run seeded walks for one query; return kept (trace, time_net) pairs.

    Target mode (the query has a tail): walks start from the query's head
    entities and stop as soon as a step lands on the target; walks that
    exhaust max_steps elsewhere are dropped.  Classification mode (no
    tail): walks start from the heads of the graph's earliest events and
    must complete all max_steps steps.  Each kept time_net is
    path-consistent and shared by every kept walk with the same trace, so
    it is read-only.  All walks of one call move through one prefix tree.
    Identical inputs give identical output, walk by walk.
    """
    diag = diagnostics if diagnostics is not None else WalkDiagnostics()
    starts = _resolve_starts(graph, query, params)
    target = _resolve_target(graph, query)
    root = init_walk(graph, starts)._node
    kept: list[tuple[list[int], IANetwork]] = []
    for w in range(params.num_walks):
        diag.walks += 1
        rng = random.Random(f"{params.seed}:{w}")
        state = WalkState(root)
        hit = dead_end = False
        while state.step < params.max_steps:
            if step(graph, state, rng) is DEAD_END:
                dead_end = True
                break
            if target is not None and graph.events[state.trace[-1]].tails[0] == target:
                hit = True
                break
        if dead_end:
            diag.dead_ends += 1
            continue
        if target is not None and not hit:
            diag.missed_target += 1
            continue
        diag.kept += 1
        kept.append((list(state.trace), state.time_net))
    return kept


def _resolve_starts(graph, query, params: WalkParams) -> set[int]:
    if query.heads:
        return {graph.entities.id_of(h) for h in query.heads}
    # classification mode: heads of the earliest-starting events
    order = sorted(graph.events, key=lambda e: (e.interval.start, e.event_id))
    starts: set[int] = set()
    for event in order[: params.start_events]:
        starts.update(event.heads)
    if not starts:
        raise GraphError("cannot derive walk starts from an empty graph")
    return starts


def _resolve_target(graph, query) -> int | None:
    if not query.tails:
        return None
    if len(query.tails) != 1:
        raise GraphError("walk queries must have a single tail entity")
    return graph.entities.id_of(query.tails[0])
