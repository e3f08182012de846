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
from typing import NamedTuple

import numpy as np

from . import allen
from .constraints import resolve_time
from .hypergraph import Interval, TemporalHypergraph
from .rules import Query, TemporalRule, evaluate, render_atom
from .walk import derive_seed

NOISE_PREDICATES = ("noise0", "noise1", "noise2", "noise3")

#: the largest span `gen` accepts: the grid's two endpoint arrays, and each
#: admissibility mask and relation row of the planted-interval search, hold
#: one entry per interval, (span+1)(span+2)/2 of them, about half a million
#: at this bound; memory grows with the square of the span
MAX_SPAN = 1000


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
    if rule.head.variables():
        # a corpus query is a bare graph label, and a grounding search binds
        # the head's variables to the query's entities
        raise GenerationError(
            f"planted rule's head {render_atom(rule.head)} names variables, "
            "but a graph's label binds no entity, so the rule could match no graph"
        )
    reserved = sorted({atom.predicate for atom in rule.body}.intersection(NOISE_PREDICATES))
    if reserved:
        raise GenerationError(
            f"planted rule's body uses {', '.join(reserved)}: "
            f"{', '.join(NOISE_PREDICATES)} are reserved for noise events"
        )
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

    grid = _interval_grid(rule, spec.span)
    graphs = []
    labels = []
    for i in range(spec.num_pos):
        rng = random.Random(derive_seed(spec.seed, "pos", i))
        graphs.append(_positive_graph(spec, grid, rng))
        labels.append(spec.label)
    for i in range(spec.num_neg):
        rng = random.Random(derive_seed(spec.seed, "neg", i))
        graphs.append(_negative_graph(spec, grid, rng))
        labels.append(f"not_{spec.label}")
    return graphs, labels


def _entity_name(var: int) -> str:
    return f"v{var}"


class _Grid(NamedTuple):
    """The planted-interval search space of one corpus.

    Every interval with endpoints in [0, span], in (start, end) order, as
    two arrays: interval k is [starts[k], ends[k]].  And the rule's
    admissibility tables: `admits[i][j][r]` says whether base relation r
    from atom i's interval to atom j's is allowed.
    """

    starts: np.ndarray
    ends: np.ndarray
    admits: list[list[np.ndarray]]

    def interval(self, k: int) -> Interval:
        return Interval(int(self.starts[k]), int(self.ends[k]))


def _interval_grid(rule: TemporalRule, span: int) -> _Grid:
    starts, ends = np.triu_indices(span + 1)
    return _Grid(
        starts,
        ends,
        [
            [np.array([(cell >> r) & 1 for r in range(13)], dtype=bool) for cell in row]
            for row in rule.time_net.cells
        ],
    )


def _lazy_shuffle(items: list, rng):
    """Yield `items` in a random order, drawing from `rng` only when asked.

    These are `random.shuffle`'s swaps, run from the end: the k-th item
    yielded is the k-th from the end of `rng.shuffle(items)` on the same
    state, and reading every item leaves `rng` as the shuffle would.
    """
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]
        yield items[i]
    if items:
        yield items[0]


def _sample_satisfying_intervals(rule: TemporalRule, grid: _Grid, rng) -> list[Interval]:
    """One interval per body atom, satisfying every pairwise constraint.

    Backtracking, atom by atom: on entering an atom's depth, one boolean
    mask over the grid marks the admissible candidates.  For each earlier
    atom whose cell constrains this one, `allen.classify_grid` relates its
    placed interval to the whole grid, and the cell's row of `grid.admits`
    turns the codes into a test.  The atom then draws the admissible
    candidates from `rng` one at a time (`_lazy_shuffle`) until one
    leaves the later atoms a placement; a depth that runs dry undoes the
    pick above it.  So the search is exhaustive: it fails only when no
    assignment of grid intervals satisfies the rule.
    """
    placed: list[Interval] = []
    if not _extend(placed, rule.time_net.cells, grid, rng):
        raise GenerationError(
            f"the planted constraints admit no interval assignment within "
            f"a span of {grid.ends[-1]} ticks"
        )
    return placed


def _extend(placed: list[Interval], cells, grid: _Grid, rng) -> bool:
    """Place the atoms after `placed`, one per row of `cells`: one depth of
    `_sample_satisfying_intervals`' search.

    It is not nested in its caller: a nested function that calls itself
    holds itself through its closure, and that reference cycle would keep
    each search's intervals and `rng` alive until a collection.
    """
    j = len(placed)
    if j == len(cells):
        return True
    admissible = np.ones(len(grid.starts), dtype=bool)
    for i, interval in enumerate(placed):
        if cells[i][j] != allen.FULL_SET:
            relations = allen.classify_grid(interval, grid.starts, grid.ends)
            admissible &= grid.admits[i][j][relations]
    for k in _lazy_shuffle(np.flatnonzero(admissible).tolist(), rng):
        placed.append(grid.interval(k))
        if _extend(placed, cells, grid, rng):
            return True
        placed.pop()
    return False


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


def _positive_graph(spec: SynthSpec, grid: _Grid, rng) -> TemporalHypergraph:
    rule = spec.planted_rule
    intervals = _sample_satisfying_intervals(rule, grid, rng)
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


def _negative_graph(spec: SynthSpec, grid: _Grid, rng) -> TemporalHypergraph:
    rule = spec.planted_rule
    query = Query(spec.label)
    for _ in range(200):
        graph = TemporalHypergraph()
        intervals = [grid.interval(rng.randrange(len(grid.starts))) for _ in rule.body]
        _add_planted_events(graph, rule, intervals)
        _add_noise(graph, spec, rng, 0, spec.span)
        if not evaluate(rule, graph, query):
            return graph
    raise GenerationError(
        "could not violate the planted constraints; are they vacuous?"
    )
