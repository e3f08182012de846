"""Random walks over B-graphs.

A walk starts from a set of entities that each carry unit mass and only
ever crosses an edge once all of its head entities have been reached
(B-connectivity).  Each enabled edge is weighted by the minimum over its
heads of (arrival mass / head out-degree); sampling normalizes those
weights over the enabled set, while the recorded arrival mass keeps the
unnormalized quantity, so the same walk yields both a sampler and a score.

A walk only samples a trace: the temporal constraint network of a kept
trace is a function of the graph and the trace alone, and
`rules.trace_network` builds it when the trace is lifted into a rule.

A walk's state depends only on its start set and its trace, so the states
form a prefix tree rooted at the start set, and a `WalkState` is one node
of that tree.  Each state computes its sampling options and each of its
successors once, the first time a walk needs them; later walks through
the same prefix reuse them.  `step` returns the successor rather than
changing its argument, so walks that share a trace share its state.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

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
    num_walks: int = 200
    max_steps: int = 2
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
    kept: int = 0


class WalkState:
    """A walk's state: the prefix-tree node reached by one trace from the root's starts.

    `arrival_mass` (whose keys are the reached entities) and `trace` are
    never mutated once the state is built, and other walks may share it:
    read them, never mutate them.  The memo slots fill in on first use:
    `options` holds the sampling options (enabled event ids, their
    weights, the weights' sum), and `successors` maps a chosen event id to
    the next state.
    """

    __slots__ = ("arrival_mass", "trace", "options", "successors")

    def __init__(self, arrival_mass: dict[int, float], trace: list[int]) -> None:
        self.arrival_mass = arrival_mass
        self.trace = trace
        self.options: tuple[list[int], list[float], float] | None = None
        self.successors: dict[int, WalkState] = {}


def init_walk(graph: TemporalHypergraph, starts: set[int]) -> WalkState:
    """A fresh prefix-tree root: every start entity reached with unit mass."""
    if not starts:
        raise ValueError("walk requires a non-empty start set")
    if not graph.has_entities(starts):
        raise GraphError(f"unknown start entity in {sorted(starts)}")
    if not graph.is_b_graph():
        raise GraphError("random B-walks require a B-graph (single-tail events)")
    return WalkState({s: 1.0 for s in starts}, [])


def _weight(graph: TemporalHypergraph, mass: dict[int, float], event) -> float:
    """min over heads of arrival mass / out-degree; the walk's raw edge weight."""
    return min(mass[h] / graph.out_degree(h) for h in event.heads)


def step(graph: TemporalHypergraph, state: WalkState, rng: random.Random):
    """Sample one enabled edge and return the successor state along it.

    Returns DEAD_END when nothing is enabled.  The successor is memoised on
    `state`, so a later walk that samples the same edge gets the same
    object; `state` itself is left as it was.  Draws `rng.random()` once
    per sampled edge.
    """
    if state.options is None:
        enabled = graph.enabled_edges(state.arrival_mass.keys(), set(state.trace))
        weights = [_weight(graph, state.arrival_mass, graph.events[e]) for e in enabled]
        state.options = (enabled, weights, sum(weights))
    enabled, weights, total = state.options
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
    succ = state.successors.get(chosen)
    if succ is None:
        arrival_mass = dict(state.arrival_mass)
        arrival_mass[graph.events[chosen].tails[0]] = mass
        succ = state.successors[chosen] = WalkState(arrival_mass, state.trace + [chosen])
    return succ


def reach_probability(
    graph: TemporalHypergraph, starts: set[int], horizon: int
) -> dict[int, float]:
    """Analytic reach score of every entity reached within `horizon` breadth steps.

    Breadth-order expansion: at each step every currently enabled edge
    fires once, contributing its weight to its tail; a node's mass is
    frozen at its first arrival.  An entity's value sums the weights of
    all edges into it, in firing order, and is a score, not a probability
    (converging paths can push it above 1).  An entity no edge reaches is
    absent, which reads as a score of 0.  One expansion scores every tail
    reached from `starts`.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    mass = {s: 1.0 for s in starts}
    traversed: set[int] = set()
    scores: dict[int, float] = {}
    for _ in range(horizon):
        enabled = graph.enabled_edges(mass.keys(), traversed)
        if not enabled:
            break
        arrivals: dict[int, float] = {}
        for e in enabled:
            event = graph.events[e]
            w = _weight(graph, mass, event)
            traversed.add(e)
            tail = event.tails[0]
            arrivals[tail] = arrivals.get(tail, 0.0) + w
            scores[tail] = scores.get(tail, 0.0) + w
        for tail, m in arrivals.items():
            if tail not in mass:
                mass[tail] = m
    return scores


def sample_walks(
    graph: TemporalHypergraph,
    query,
    params: WalkParams,
    diagnostics: WalkDiagnostics | None = None,
) -> list[tuple[list[int], int]]:
    """Run seeded walks for one query; return one (trace, walks) per kept trace.

    Target mode (the query has a tail): walks start from the query's head
    entities and stop as soon as a step lands on the target; walks that
    exhaust max_steps elsewhere are dropped.  Classification mode (no
    tail): walks start from the heads of the graph's earliest events and
    must complete all max_steps steps.  Each distinct kept trace comes
    once, in the order of its first kept walk, with the number of kept
    walks that ended on it; each trace is a fresh list of event ids.
    Identical inputs give identical output.
    """
    diag = diagnostics if diagnostics is not None else WalkDiagnostics()
    starts = _resolve_starts(graph, query, params)
    target = _resolve_target(graph, query)
    root = init_walk(graph, starts)
    # a state is a prefix-tree node and hashes by identity: one per trace
    kept: dict[WalkState, int] = {}
    for w in range(params.num_walks):
        diag.walks += 1
        rng = random.Random(f"{params.seed}:{w}")
        state, hit = root, False
        while not hit and len(state.trace) < params.max_steps:
            state = step(graph, state, rng)
            if state is DEAD_END:
                break
            hit = target is not None and graph.events[state.trace[-1]].tails[0] == target
        if state is DEAD_END:
            diag.dead_ends += 1
        elif target is None or hit:
            diag.kept += 1
            kept[state] = kept.get(state, 0) + 1
    return [(list(state.trace), walks) for state, walks in kept.items()]


def _resolve_starts(graph, query, params: WalkParams) -> set[int]:
    if query.heads:
        return set(query.heads)
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
    if len(query.tails) != 1 or not graph.has_entities(query.tails):
        raise GraphError(f"walk queries need a single known tail entity, not {query.tails}")
    return query.tails[0]
