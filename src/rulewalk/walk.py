"""Random walks over B-graphs with temporal constraint tracking.

A walk starts from a set of entities that each carry unit mass and only
ever crosses an edge once all of its head entities have been reached
(B-connectivity).  Each enabled edge is weighted by the minimum over its
heads of (arrival mass / head out-degree); sampling normalizes those
weights over the enabled set, while the recorded arrival mass keeps the
unnormalized quantity, so the same walk yields both a sampler and a score.

When temporal recording is on, every start entity opens its own path; a
path's constraint network accumulates the observed pairwise relations of
its events, and when an edge joins two paths their networks are merged
with `constraints.merge_paths` (cross-path cells resolved by path
consistency rather than re-observed).  Walks whose merge turns out
inconsistent are discarded, not resampled.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from . import allen, constraints
from .constraints import IANetwork
from .hypergraph import GraphError, TemporalHypergraph


#: step() results for a walk that cannot continue / must be discarded
DEAD_END = object()
TIME_CONFLICT = object()


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
    target: int | None = None
    record_temporal: bool = True
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
    inconsistent: int = 0
    missed_target: int = 0
    kept: int = 0


class _Path:
    """One sub-walk: its entity territory and its event constraint network."""

    __slots__ = ("entities", "net")

    def __init__(self, entities: set[int], net: IANetwork | None = None):
        self.entities = entities
        self.net = net if net is not None else IANetwork([])


class WalkState:
    """Mutable state of a single walk."""

    def __init__(self, starts: set[int], record_temporal: bool) -> None:
        self.reached: set[int] = set(starts)
        self.arrival_mass: dict[int, float] = {s: 1.0 for s in starts}
        self.trace: list[int] = []
        self.step: int = 0
        self.record_temporal = record_temporal
        self.paths: list[_Path] = (
            [_Path({s}) for s in sorted(starts)] if record_temporal else []
        )

    @property
    def time_net(self) -> IANetwork | None:
        """Path-consistent constraint network over the trace.

        It joins the closed path networks by unconstrained cross-path
        cells.  Composing any non-empty set with FULL_SET gives FULL_SET,
        so no cross-path cell can tighten anything: the join is closed.
        """
        if not self.record_temporal:
            return None
        net = IANetwork(self.trace)
        pos = {k: i for i, k in enumerate(self.trace)}
        for path in self.paths:
            idx = [pos[k] for k in path.net.keys]
            for i, row in zip(idx, path.net.cells):
                out = net.cells[i]
                for j, s in zip(idx, row):
                    out[j] = s
        return net


def init_walk(graph: TemporalHypergraph, starts: set[int], record_temporal: bool = True) -> WalkState:
    """Fresh walk state: every start entity reached with unit mass."""
    if not starts:
        raise ValueError("walk requires a non-empty start set")
    for s in starts:
        if not 0 <= s < len(graph.entities):
            raise GraphError(f"unknown start entity id {s}")
    if not graph.is_b_graph():
        raise GraphError("random B-walks require a B-graph (single-tail events)")
    return WalkState(set(starts), record_temporal)


def edge_weight(graph: TemporalHypergraph, state: WalkState, event_id: int) -> float:
    """min over heads of arrival_mass / out_degree; the walk's raw weight."""
    event = graph.events[event_id]
    if event_id in state.trace or not all(h in state.reached for h in event.heads):
        raise ValueError(f"event {event_id} is not enabled in this state")
    return _weight(graph, state.arrival_mass, event)


def _weight(graph: TemporalHypergraph, mass: dict[int, float], event) -> float:
    return min(mass[h] / graph.out_degree(h) for h in event.heads)


def step(graph: TemporalHypergraph, state: WalkState, rng: random.Random):
    """Sample one enabled edge and advance the walk in place.

    Returns the state, or DEAD_END when nothing is enabled, or
    TIME_CONFLICT when temporal recording finds the extended network
    inconsistent (the walk is then to be discarded).
    """
    enabled = graph.enabled_edges(state.reached, set(state.trace))
    if not enabled:
        return DEAD_END
    weights = [_weight(graph, state.arrival_mass, graph.events[e]) for e in enabled]
    total = sum(weights)
    pick = rng.random() * total
    chosen, mass = enabled[-1], weights[-1]
    acc = 0.0
    for e, w in zip(enabled, weights):
        acc += w
        if pick < acc:
            chosen, mass = e, w
            break
    event = graph.events[chosen]
    tail = event.tails[0]

    if state.record_temporal:
        if not _record_event(graph, state, chosen, event, tail):
            return TIME_CONFLICT

    state.arrival_mass[tail] = mass
    state.reached.add(tail)
    state.trace.append(chosen)
    state.step += 1
    return state


def _record_event(graph, state, event_id, event, tail) -> bool:
    """Merge the paths the event touches and observe it against that path."""
    touched = []
    for path in state.paths:
        if any(h in path.entities for h in event.heads) or tail in path.entities:
            touched.append(path)
    merged = touched[0]
    for other in touched[1:]:
        consistent, net = constraints.merge_paths(merged.net, other.net)
        if not consistent:
            return False
        merged = _Path(merged.entities | other.entities, net)
    # extend the closed path network with the observed relations of the new
    # event; only the new node's cells need propagating
    old = merged.net
    new = old.n
    net = IANetwork(old.keys + [event_id])
    for i, row in enumerate(old.cells):
        net.cells[i][:new] = row
    for i, other_id in enumerate(old.keys):
        rel = allen.classify(graph.events[other_id].interval, event.interval)
        net.set_pair(i, new, 1 << rel)
    consistent, net = constraints.resolve_time(net, closed_prefix=new)
    if not consistent:
        return False
    merged.entities.update(event.heads)
    merged.entities.add(tail)
    merged.net = net
    state.paths = [p for p in state.paths if p not in touched] + [merged]
    return True


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
) -> list[tuple[list[int], IANetwork | None]]:
    """Run seeded walks for one query; return kept (trace, time_net) pairs.

    Target mode (the query has a tail): walks start from the query's head
    entities and stop as soon as a step lands on the target; walks that
    exhaust max_steps elsewhere are dropped.  Classification mode (no
    tail): walks start from the heads of the graph's earliest events and
    must complete all max_steps steps.  Each kept time_net is
    path-consistent.  Identical inputs give identical output, walk by walk.
    """
    diag = diagnostics if diagnostics is not None else WalkDiagnostics()
    starts = _resolve_starts(graph, query, params)
    target = params.target if params.target is not None else _resolve_target(graph, query)
    kept: list[tuple[list[int], IANetwork | None]] = []
    for w in range(params.num_walks):
        diag.walks += 1
        rng = random.Random(f"{params.seed}:{w}")
        state = init_walk(graph, starts, params.record_temporal)
        hit = False
        discarded = False
        while state.step < params.max_steps:
            result = step(graph, state, rng)
            if result is DEAD_END:
                diag.dead_ends += 1
                discarded = True
                break
            if result is TIME_CONFLICT:
                diag.inconsistent += 1
                discarded = True
                break
            if target is not None and graph.events[state.trace[-1]].tails[0] == target:
                hit = True
                break
        if discarded:
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
