"""Independent brute-force oracles the tests check the library against.

Nothing here reuses the code paths under test: composition is re-derived
by endpoint enumeration, network consistency by interval assignment
search, the path-consistency closure by a naive fixpoint over that
re-derived table, rule matching by full tuple enumeration, walks by a
plain replay that recomputes everything at every step, and gradients by
central finite differences.  `from_observed` builds the singleton network
of concrete intervals, which is path-consistent because the intervals
realise it.  `trace_network_per_event` is the lift of a trace without
batching: it observes each event against its group with its own closure.
"""
from __future__ import annotations

import functools
import random
from itertools import permutations, product

import numpy as np

from rulewalk import learner
from rulewalk.allen import classify
from rulewalk.constraints import IANetwork, merge_paths, observe, resolve_time
from rulewalk.hypergraph import Interval
from rulewalk.walk import WalkDiagnostics


def interval_grid(max_endpoint: int) -> list[Interval]:
    return [
        Interval(s, e)
        for s in range(max_endpoint + 1)
        for e in range(s, max_endpoint + 1)
    ]


def compose_table_bruteforce(max_endpoint: int = 8) -> list[list[int]]:
    """13x13 relation-set masks from exhaustive (A, B, C) enumeration."""
    grid = interval_grid(max_endpoint)
    rel = {}
    for a in grid:
        for b in grid:
            rel[(a, b)] = classify(a, b)
    table = [[0] * 13 for _ in range(13)]
    for a in grid:
        for b in grid:
            row = table[rel[(a, b)]]
            for c in grid:
                row[rel[(b, c)]] |= 1 << rel[(a, c)]
    return table


@functools.cache
def _bruteforce_table() -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, compose_table_bruteforce()))


def path_consistency_bruteforce(net) -> tuple[bool, list[list[int]]]:
    """(consistent, cells) of the path-consistency closure of `net`.

    Every ordered triple (i, j, k) tightens cell (i, k) by the composition
    of (i, j) and (j, k), read from `compose_table_bruteforce`, until a
    pass over all triples changes nothing.  Each cell and its converse are
    tightened by their own triples, so nothing here computes a converse.
    """
    table = _bruteforce_table()
    cells = [row[:] for row in net.cells]
    n = len(cells)
    changed = True
    while changed:
        changed = False
        for i, j, k in product(range(n), repeat=3):
            composed = 0
            for r1 in range(13):
                if cells[i][j] >> r1 & 1:
                    for r2 in range(13):
                        if cells[j][k] >> r2 & 1:
                            composed |= table[r1][r2]
            refined = cells[i][k] & composed
            if refined != cells[i][k]:
                cells[i][k] = refined
                changed = True
    return all(all(row) for row in cells), cells


def from_observed(events) -> IANetwork:
    """Singleton network of the pairwise relations of (key, interval) pairs."""
    net = IANetwork([k for k, _ in events])
    for i, (_, a) in enumerate(events):
        for j in range(i + 1, len(events)):
            net.set_pair(i, j, 1 << classify(a, events[j][1]))
    return net


def replay_walks(graph, query, params):
    """`sample_walks` walk by walk, without any memo.

    Returns one (trace, time_net) pair per kept walk, and the diagnostics.
    Every walk starts from fresh state and recomputes the enabled edges and
    their weights at every step, drawing from the same per-walk generator.
    Paths are entity sets plus the event pairs observed together; a
    touched path's network is closed from scratch over its observed pairs
    at every step, and must come out consistent.  The kept network is the
    from-scratch closure over the whole trace, whose cells between
    different paths stay FULL.
    """
    if query.heads:
        starts = set(query.heads)
    else:
        order = sorted(graph.events, key=lambda e: (e.interval.start, e.event_id))
        starts = {h for e in order[: params.start_events] for h in e.heads}
    target = query.tails[0] if query.tails else None
    diag = WalkDiagnostics()
    kept = []
    for w in range(params.num_walks):
        diag.walks += 1
        rng = random.Random(f"{params.seed}:{w}")
        reached = set(starts)
        mass = {s: 1.0 for s in starts}
        trace: list[int] = []
        paths = [({s}, []) for s in sorted(starts)]  # (entities, event ids)
        observed: set[tuple[int, int]] = set()
        dead_end = False
        while len(trace) < params.max_steps:
            enabled = sorted(
                e.event_id for e in graph.events
                if e.event_id not in trace and all(h in reached for h in e.heads)
            )
            if not enabled:
                dead_end = True
                break
            weights = [
                min(mass[h] / graph.out_degree(h) for h in graph.events[e].heads)
                for e in enabled
            ]
            pick = rng.random() * sum(weights)
            chosen, chosen_mass = enabled[-1], weights[-1]
            acc = 0.0
            for e, wt in zip(enabled, weights):
                acc += wt
                if pick < acc:
                    chosen, chosen_mass = e, wt
                    break
            event = graph.events[chosen]
            tail = event.tails[0]
            touched = [p for p in paths if p[0] & (set(event.heads) | {tail})]
            entities = set().union(*(p[0] for p in touched), event.heads, {tail})
            events = [k for p in touched for k in p[1]]
            observed |= {(k, chosen) for k in events}
            assert _observed_closure(graph, events + [chosen], observed)[0]
            paths = [p for p in paths if p not in touched] + [(entities, events + [chosen])]
            mass[tail] = chosen_mass
            reached.add(tail)
            trace.append(chosen)
            if tail == target:
                break
        if dead_end:
            diag.dead_ends += 1
        elif target is None or graph.events[trace[-1]].tails[0] == target:
            diag.kept += 1
            kept.append((trace, _observed_closure(graph, trace, observed)[1]))
    return kept, diag


def trace_network_per_event(graph, trace) -> IANetwork:
    """`rules.trace_network`, with one `observe` call per event.

    Each event joins the groups it touches with `merge_paths` and is
    observed against the joined group at once; the groups are laid out in
    trace order at the end.
    """
    groups: list[tuple[set[int], IANetwork]] = []  # (entities, closed network)
    for eid in trace:
        event = graph.events[eid]
        entities = set(event.heads).union(event.tails)
        touched = [g for g in groups if not entities.isdisjoint(g[0])]
        groups = [g for g in groups if entities.isdisjoint(g[0])]
        if len(touched) > 1:
            net = merge_paths([n for _, n in touched], [k for _, n in touched for k in n.keys])
        else:
            net = touched[0][1] if touched else IANetwork([])
        entities.update(*(ents for ents, _ in touched))
        groups.append((entities, observe(net, [eid], lambda e: graph.events[e].interval)))
    return merge_paths([net for _, net in groups], trace)


def _observed_closure(graph, keys, observed):
    """Full path-consistency closure of the observed relations among `keys`."""
    net = IANetwork(keys)
    for i, a in enumerate(keys):
        for j in range(i + 1, len(keys)):
            b = keys[j]
            if (a, b) in observed or (b, a) in observed:
                rel = classify(graph.events[a].interval, graph.events[b].interval)
                net.set_pair(i, j, 1 << rel)
    return resolve_time(net)


def realizable(net, max_endpoint: int = 8) -> bool:
    """Does any assignment of integer intervals satisfy every cell?"""
    grid = interval_grid(max_endpoint)
    rel_bit = {}
    for a in grid:
        for b in grid:
            rel_bit[(a, b)] = 1 << classify(a, b)

    n = net.n
    assigned: list[Interval] = []

    def extend() -> bool:
        i = len(assigned)
        if i == n:
            return True
        for candidate in grid:
            if all(
                rel_bit[(assigned[j], candidate)] & net.cells[j][i]
                for j in range(i)
            ):
                assigned.append(candidate)
                if extend():
                    return True
                assigned.pop()
        return False

    return extend()


def grounding_exists_bruteforce(rule, graph, query) -> bool:
    """Full enumeration of event tuples and entity bijections."""
    if len(query.heads) != len(rule.head.head_vars):
        return False
    if len(query.tails) != len(rule.head.tail_vars):
        return False
    if not set(query.heads + query.tails) <= set(range(len(graph.entities))):
        return False

    candidates = []
    for atom in rule.body:
        if atom.predicate in graph.predicates:
            pid = graph.predicates.id_of(atom.predicate)
        else:
            return False
        matching = [
            e
            for e in graph.events
            if e.predicate == pid
            and len(e.heads) == len(atom.head_vars)
            and len(e.tails) == len(atom.tail_vars)
        ]
        if not matching:
            return False
        candidates.append(matching)

    for combo in product(*candidates):
        ok = True
        for i in range(len(combo)):
            for j in range(len(combo)):
                if i == j:
                    continue
                rel = classify(combo[i].interval, combo[j].interval)
                if not rule.time_net.cells[i][j] & (1 << rel):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if _consistent_assignment_exists(rule, combo, query.heads, query.tails):
            return True
    return False


def _consistent_assignment_exists(rule, combo, head_entities, tail_entities) -> bool:
    groups = [(rule.head.head_vars, head_entities), (rule.head.tail_vars, tail_entities)]
    for atom, event in zip(rule.body, combo):
        groups.append((atom.head_vars, event.heads))
        groups.append((atom.tail_vars, event.tails))

    def assign(idx: int, binding: dict) -> bool:
        if idx == len(groups):
            return True
        variables, entities = groups[idx]
        for perm in permutations(entities):
            trial = dict(binding)
            ok = True
            for var, ent in zip(variables, perm):
                if trial.get(var, ent) != ent:
                    ok = False
                    break
                trial[var] = ent
            if ok and assign(idx + 1, trial):
                return True
        return False

    return assign(0, {})


def finite_difference_gradient(matrix, params, l2: float, h: float = 1e-5):
    """Central differences of learner.loss in every parameter."""
    theta = np.array(params.theta, dtype=float)
    grad_theta = np.zeros_like(theta)
    for i in range(theta.size):
        up = learner.ModelParams(theta.copy(), params.bias)
        up.theta[i] += h
        down = learner.ModelParams(theta.copy(), params.bias)
        down.theta[i] -= h
        grad_theta[i] = (
            learner.loss(matrix, up, l2) - learner.loss(matrix, down, l2)
        ) / (2 * h)
    up = learner.ModelParams(theta.copy(), params.bias + h)
    down = learner.ModelParams(theta.copy(), params.bias - h)
    grad_bias = (learner.loss(matrix, up, l2) - learner.loss(matrix, down, l2)) / (2 * h)
    return grad_theta, grad_bias


def reach_score_per_target(graph, starts, target, horizon: int) -> float:
    """The breadth-order reach score of one target, summing only the edges into it.

    The same expansion as `walk.reach_probability`, with each edge weight
    recomputed from the arrival masses, and one running sum for `target`
    in the order the edges fire.
    """
    mass = {s: 1.0 for s in starts}
    traversed: set[int] = set()
    score = 0.0
    for _ in range(horizon):
        enabled = graph.enabled_edges(mass.keys(), traversed)
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
            mass.setdefault(tail, m)
    return score
