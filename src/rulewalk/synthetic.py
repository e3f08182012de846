"""Synthetic corpora with one planted temporal rule.

Positive graphs embed a grounding of the planted rule whose intervals are
drawn to satisfy its constraint network (checked by classification, not
trusted); negative graphs keep the same relational skeleton but resample
intervals until no grounding of the rule survives.  Noise events use a
separate predicate pool so they can never complete a planted grounding,
and on positive graphs their intervals stay inside the planted span so the
planted chain both covers the graph and starts it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from . import allen
from .constraints import resolve_time
from .hypergraph import Interval, TemporalHypergraph
from .rules import Query, TemporalRule, evaluate
from .walk import derive_seed

NOISE_PREDICATES = ("noise0", "noise1", "noise2", "noise3")


class GenerationError(ValueError):
    pass


@dataclass
class SynthSpec:
    planted_rule: TemporalRule
    num_pos: int = 20
    num_neg: int = 20
    noise_events: int = 5
    seed: int = 0
    span: int = 30  # interval endpoints are drawn from [0, span]

    @property
    def label(self) -> str:
        return self.planted_rule.head.predicate


def synth_generate(spec: SynthSpec) -> tuple[list[TemporalHypergraph], list[str]]:
    """Deterministic corpus: positives first, then negatives labelled `not_<label>`."""
    rule = spec.planted_rule
    if not rule.body:
        raise GenerationError("planted rule needs a non-empty body")
    if all(
        rule.time_net.cells[i][j] == allen.FULL_SET
        for i in range(rule.time_net.n)
        for j in range(rule.time_net.n)
        if i != j
    ):
        raise GenerationError("planted rule carries no temporal constraint")
    consistent, _ = resolve_time(rule.time_net)
    if not consistent:
        raise GenerationError("planted rule's constraint network is unsatisfiable")

    graphs = []
    labels = []
    for i in range(spec.num_pos):
        rng = random.Random(derive_seed(spec.seed, "pos", i))
        graphs.append(_positive_graph(spec, rng))
        labels.append(spec.label)
    for i in range(spec.num_neg):
        rng = random.Random(derive_seed(spec.seed, "neg", i))
        graphs.append(_negative_graph(spec, rng))
        labels.append(f"not_{spec.label}")
    return graphs, labels


def _entity_name(var: int) -> str:
    return f"v{var}"


def _all_intervals(span: int) -> list[Interval]:
    return [Interval(s, e) for s in range(span + 1) for e in range(s, span + 1)]


def _sample_satisfying_intervals(rule: TemporalRule, span: int, rng) -> list[Interval]:
    """One interval per body atom, satisfying every pairwise constraint.

    Backtracking over the shuffled endpoint grid: each atom takes the first
    interval consistent (by classification) with everything placed so far,
    undoing earlier picks when a branch runs dry.
    """
    grid = _all_intervals(span)
    orders = []
    for _ in rule.body:
        candidates = list(grid)
        rng.shuffle(candidates)
        orders.append(candidates)
    placed: list[Interval] = []

    def extend() -> bool:
        j = len(placed)
        if j == len(rule.body):
            return True
        for candidate in orders[j]:
            ok = all(
                rule.time_net.cells[i][j] & (1 << allen.classify(earlier, candidate))
                for i, earlier in enumerate(placed)
            )
            if ok:
                placed.append(candidate)
                if extend():
                    return True
                placed.pop()
        return False

    if not extend():
        raise GenerationError(
            f"the planted constraints admit no interval assignment within "
            f"a span of {span} ticks"
        )
    return placed


def _add_planted_events(graph, rule, intervals) -> None:
    for atom, interval in zip(rule.body, intervals):
        graph.add_event(
            atom.predicate,
            [_entity_name(v) for v in atom.head_vars],
            [_entity_name(v) for v in atom.tail_vars],
            interval,
        )


def _add_noise(graph, spec, rng, lo: int, hi: int) -> None:
    variables = sorted({v for atom in spec.planted_rule.body for v in atom.variables()})
    entity_pool = [_entity_name(v) for v in variables] + [
        f"n{i}" for i in range(max(2, spec.noise_events // 2))
    ]
    for _ in range(spec.noise_events):
        pred = rng.choice(NOISE_PREDICATES)
        head = rng.choice(entity_pool)
        tail = rng.choice(entity_pool)
        start = rng.randint(lo, hi)
        end = rng.randint(start, hi)
        graph.add_event(pred, [head], [tail], Interval(start, end))


def _positive_graph(spec: SynthSpec, rng) -> TemporalHypergraph:
    rule = spec.planted_rule
    intervals = _sample_satisfying_intervals(rule, spec.span, rng)
    # shift the grounding to open the graph at tick 0; noise stays inside
    # its span, so the grounding covers the graph and starts it
    lo = min(iv.start for iv in intervals)
    hi = max(iv.end for iv in intervals)
    intervals = [Interval(iv.start - lo, iv.end - lo) for iv in intervals]
    hi -= lo
    if hi == 0:
        hi = 1  # degenerate grounding; give noise one tick of room
    graph = TemporalHypergraph()
    _add_planted_events(graph, rule, intervals)
    _add_noise(graph, spec, rng, 0, hi)
    query = Query(spec.label)
    if not evaluate(rule, graph, query):
        raise GenerationError("positive graph does not satisfy the planted rule")
    return graph


def _negative_graph(spec: SynthSpec, rng) -> TemporalHypergraph:
    rule = spec.planted_rule
    query = Query(spec.label)
    for _ in range(200):
        graph = TemporalHypergraph()
        grid = _all_intervals(spec.span)
        intervals = [rng.choice(grid) for _ in rule.body]
        _add_planted_events(graph, rule, intervals)
        _add_noise(graph, spec, rng, 0, spec.span)
        if not evaluate(rule, graph, query):
            return graph
    raise GenerationError(
        "could not violate the planted constraints; are they vacuous?"
    )
