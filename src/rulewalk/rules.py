"""Temporal rules: chain bodies with pairwise interval constraints.

A rule is a head atom, an ordered body of atoms over logical variables,
and a constraint network over body positions.  Rules reference predicates
by name so they can travel between graphs; variables are canonicalized at
construction so that isomorphic traces produce byte-identical signatures.

Text format, one rule per line::

    w=<weight> Head(X0->X1) <- P1(X0->X1) , P2(X1,X2->X3) | 0 {BEFORE,MEETS} 1

Head variables before `->` are the atom's head set, after it the tail set;
a head atom with no variables renders as `Head()`.  The temporal block
lists upper-triangle cells that constrain anything; an omitted block (or
cell) means the full relation set.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from . import allen
from .allen import FULL_SET
from .constraints import IANetwork, observe
from .hypergraph import TemporalHypergraph

DEFAULT_EVAL_BUDGET = 1_000_000


class RuleError(ValueError):
    """Malformed rule construction or rule text."""


@dataclass(frozen=True)
class Query:
    """What a rule answers: a predicate over optional concrete entities.

    Event queries name head/tail entities; classification queries carry a
    bare label (no entities) and refer to a whole graph.  `event_id`
    distinguishes otherwise identical event queries inside ranking pools.
    """

    predicate: str
    heads: tuple[str, ...] = ()
    tails: tuple[str, ...] = ()
    graph_index: int = 0
    event_id: int | None = None


@dataclass(frozen=True)
class Atom:
    predicate: str
    head_vars: tuple[int, ...]
    tail_vars: tuple[int, ...]

    def variables(self) -> set[int]:
        return set(self.head_vars) | set(self.tail_vars)


@dataclass
class TemporalRule:
    head: Atom
    body: tuple[Atom, ...]
    time_net: IANetwork        # keyed by body indices 0..len(body)-1
    signature: str
    weight: float = 0.0
    support: int = 0           # occurrence count assigned by the miner

    def __post_init__(self) -> None:
        if len(self.body) != self.time_net.n:
            raise RuleError("time_net node count must equal body length")


@dataclass
class Grounding:
    variables: dict[int, int]     # variable id -> entity id
    atom_events: tuple[int, ...]  # body index -> event id


def render_atom(atom: Atom) -> str:
    if not atom.head_vars and not atom.tail_vars:
        return f"{atom.predicate}()"
    heads = ",".join(f"X{v}" for v in atom.head_vars)
    tails = ",".join(f"X{v}" for v in atom.tail_vars)
    return f"{atom.predicate}({heads}->{tails})"


def signature_of(head: Atom, body: tuple[Atom, ...]) -> str:
    return f"{render_atom(head)} <- {' , '.join(render_atom(a) for a in body)}"


# -- trace to rule ---------------------------------------------------------


def chain_connected(graph: TemporalHypergraph, trace: list[int], query: Query) -> bool:
    """True when the trace forms a connected chain seeded by the query.

    Every event after the first must share an entity with the query's
    entities or with an earlier trace event; otherwise the rule built from
    it would contain floating atoms.
    """
    seen: set[int] = set()
    for name in query.heads + query.tails:
        if name in graph.entities:
            seen.add(graph.entities.id_of(name))
    for pos, eid in enumerate(trace):
        event = graph.events[eid]
        entities = set(event.heads) | set(event.tails)
        if pos > 0 and entities.isdisjoint(seen):
            return False
        seen |= entities
    return True


def trace_to_rule(
    graph: TemporalHypergraph,
    trace: list[int],
    time_net: IANetwork,
    query: Query,
) -> TemporalRule:
    """Lift a walk trace into a rule with canonical variables.

    Entities become variables consistently (same entity, same variable);
    the query's entities become the head atom's variables.  A unary class
    atom is appended for every variable whose entity carries a class-label
    event in the graph, at most one per variable.  `time_net` must be
    path-consistent and keyed by the trace, in order, as `sample_walks`
    returns it; the rule's network observes the class atoms against it and
    is keyed by body indices.
    """
    if not trace:
        raise RuleError("cannot build a rule from an empty trace")
    if time_net.keys != trace:
        raise RuleError("time_net keys are not the trace events in order")

    query_heads = tuple(graph.entities.id_of(h) for h in query.heads)
    query_tails = tuple(graph.entities.id_of(t) for t in query.tails)

    class_events = _class_events(graph, trace)
    body_events = trace + class_events
    atom_entities = [
        (graph.events[e].heads, graph.events[e].tails) for e in body_events
    ]

    var_of = _canonical_variables(query_heads, query_tails, atom_entities)
    for eid in trace:
        ev = graph.events[eid]
        for x in ev.heads + ev.tails:
            if x not in var_of:
                raise RuleError(f"trace entity {x} missing from every atom")

    head = Atom(
        query.predicate,
        tuple(sorted(var_of[x] for x in query_heads)),
        tuple(sorted(var_of[x] for x in query_tails)),
    )
    body = tuple(
        Atom(
            graph.predicates.name_of(graph.events[e].predicate),
            tuple(sorted(var_of[x] for x in graph.events[e].heads)),
            tuple(sorted(var_of[x] for x in graph.events[e].tails)),
        )
        for e in body_events
    )
    _check_chain(head, body)

    observed = observe(time_net, class_events, lambda e: graph.events[e].interval)
    net = IANetwork(range(len(body_events)), observed.cells)
    return TemporalRule(head, body, net, signature_of(head, body))


def _class_events(graph: TemporalHypergraph, trace: list[int]) -> list[int]:
    """First class-label event per trace entity, skipping walked ones."""
    in_trace = set(trace)
    covered: set[int] = set()
    for eid in trace:
        ev = graph.events[eid]
        if ev.heads == ev.tails and len(ev.heads) == 1:
            covered.add(ev.heads[0])
    ordered_entities: list[int] = []
    for eid in trace:
        ev = graph.events[eid]
        for x in ev.heads + ev.tails:
            if x not in ordered_entities:
                ordered_entities.append(x)
    extra = []
    for x in ordered_entities:
        if x in covered:
            continue
        for eid in graph.head_index.get(x, ()):
            ev = graph.events[eid]
            if ev.heads == (x,) and ev.tails == (x,) and eid not in in_trace:
                extra.append(eid)
                covered.add(x)
                break
    return extra


def _canonical_variables(query_heads, query_tails, atom_entities) -> dict[int, int]:
    """Assign variable ids invariant under graph entity renaming.

    Entities are ordered by their occurrence pattern over the body (which
    positions they fill); entities with identical patterns are
    interchangeable, so the remaining tie-break by id cannot change the
    rendered signature.
    """
    patterns: dict[int, list[tuple[int, int]]] = {}
    for pos, (heads, tails) in enumerate(atom_entities):
        for x in heads:
            patterns.setdefault(x, []).append((pos, 0))
        for x in tails:
            patterns.setdefault(x, []).append((pos, 1))

    var_of: dict[int, int] = {}

    def assign(group) -> None:
        for x in sorted(set(group), key=lambda x: (patterns.get(x, []), x)):
            if x not in var_of:
                var_of[x] = len(var_of)

    assign(query_heads)
    assign(query_tails)
    for heads, tails in atom_entities:
        assign(heads)
        assign(tails)
    return var_of


def _check_chain(head: Atom, body: tuple[Atom, ...]) -> None:
    union = head.variables()
    for pos, atom in enumerate(body):
        if pos > 0 and atom.variables().isdisjoint(union):
            raise RuleError(f"body atom {pos} shares no variable with the chain")
        union |= atom.variables()


# -- grounding and evaluation ----------------------------------------------


class _BudgetExhausted(Exception):
    pass


def evaluate(
    rule: TemporalRule,
    graph: TemporalHypergraph,
    query: Query,
    budget: int = DEFAULT_EVAL_BUDGET,
    diagnostics: dict | None = None,
) -> bool:
    """True iff some grounding of the rule body matches graph and query.

    The query's entities are bound to the head atom's variables; body
    atoms are matched in order by exhaustive backtracking over events in
    ascending id order, with every pairwise interval relation required to
    lie in the rule's constraint network.  Each atom visits only the events
    of its shape that contain its already-bound entities, and each visit
    costs one budget step.  Exhausting the step budget returns False and
    flags `diagnostics['budget_exhausted']`.
    """
    try:
        return next(iter_groundings(rule, graph, query, budget), None) is not None
    except _BudgetExhausted:
        if diagnostics is not None:
            diagnostics["budget_exhausted"] = True
        return False


def iter_groundings(
    rule: TemporalRule,
    graph: TemporalHypergraph,
    query: Query,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> Iterator[Grounding]:
    """All groundings, in deterministic backtracking order.

    Raises _BudgetExhausted when the step budget runs out; `evaluate`
    converts that into a False verdict.
    """
    if len(query.heads) != len(rule.head.head_vars):
        return
    if len(query.tails) != len(rule.head.tail_vars):
        return
    for name in query.heads + query.tails:
        if name not in graph.entities:
            return

    candidates = _candidate_events(rule, graph)
    if any(not events for _, events in candidates):
        return

    head_entities = tuple(graph.entities.id_of(h) for h in query.heads)
    tail_entities = tuple(graph.entities.id_of(t) for t in query.tails)
    steps = [budget]

    for head_bind in _set_bindings(rule.head.head_vars, head_entities, {}):
        for bind in _set_bindings(rule.head.tail_vars, tail_entities, head_bind):
            yield from _match_body(rule, graph, candidates, bind, [], steps)


def _candidate_events(
    rule: TemporalRule, graph: TemporalHypergraph
) -> list[tuple[tuple[int, int, int], list[int]]]:
    """Per body atom: its shape key and the graph's events of that shape."""
    out = []
    for atom in rule.body:
        if atom.predicate in graph.predicates:
            pid = graph.predicates.id_of(atom.predicate)
        else:
            pid = -1
        shape = (pid, len(atom.head_vars), len(atom.tail_vars))
        out.append((shape, graph.shape_index.get(shape, [])))
    return out


def _narrowed(graph, atom, shape, events, binding) -> list[int]:
    """Candidate events of one body atom under the current binding.

    A head (tail) variable that is already bound confines the atom to the
    events with that entity in their head (tail) set.  The shortest of those
    index lists, filtered to the atom's shape, replaces the shape list; all
    of them are in ascending event-id order, so the grounding order is the
    same as over the shape list.
    """
    best = events
    for variables, index in (
        (atom.head_vars, graph.head_index),
        (atom.tail_vars, graph.tail_index),
    ):
        for var in variables:
            if var in binding:
                bound = index[binding[var]]
                if len(bound) < len(best):
                    best = bound
    if best is events:
        return events
    all_events = graph.events
    return [
        e
        for e in best
        if (all_events[e].predicate, len(all_events[e].heads), len(all_events[e].tails))
        == shape
    ]


def _set_bindings(variables, entities, base: dict[int, int]) -> Iterator[dict[int, int]]:
    """Bind a variable tuple to an entity set via every consistent bijection."""
    if not variables:
        yield dict(base)
        return
    for perm in permutations(entities):
        bound = dict(base)
        ok = True
        for var, ent in zip(variables, perm):
            if bound.get(var, ent) != ent:
                ok = False
                break
            bound[var] = ent
        if ok:
            yield bound


def _match_body(rule, graph, candidates, binding, chosen, steps) -> Iterator[Grounding]:
    pos = len(chosen)
    if pos == len(rule.body):
        yield Grounding(dict(binding), tuple(chosen))
        return
    atom = rule.body[pos]
    net = rule.time_net.cells
    shape, events = candidates[pos]
    for eid in _narrowed(graph, atom, shape, events, binding):
        event = graph.events[eid]
        steps[0] -= 1
        if steps[0] < 0:
            raise _BudgetExhausted
        ok_temporal = True
        for other_pos, other_eid in enumerate(chosen):
            rel = allen.classify(graph.events[other_eid].interval, event.interval)
            if not net[other_pos][pos] & (1 << rel):
                ok_temporal = False
                break
        if not ok_temporal:
            continue
        for head_bind in _set_bindings(atom.head_vars, event.heads, binding):
            for bind in _set_bindings(atom.tail_vars, event.tails, head_bind):
                chosen.append(eid)
                yield from _match_body(rule, graph, candidates, bind, chosen, steps)
                chosen.pop()


# -- time-span coverage ------------------------------------------------------


def coverage_span(grounding: Grounding, graph: TemporalHypergraph) -> tuple[int, int]:
    """Earliest start and latest end over the grounded events."""
    starts = [graph.events[e].interval.start for e in grounding.atom_events]
    ends = [graph.events[e].interval.end for e in grounding.atom_events]
    return min(starts), max(ends)


def coverage_filter(
    rule: TemporalRule,
    graph: TemporalHypergraph,
    rho: float,
    query: Query | None = None,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> bool:
    """True iff some grounding spans at least rho of the graph's own span."""
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    graph_span = graph.span()
    if graph_span is None:
        return False
    required = rho * (graph_span.end - graph_span.start)
    if query is None:
        query = Query(rule.head.predicate)
    try:
        for grounding in iter_groundings(rule, graph, query, budget):
            lo, hi = coverage_span(grounding, graph)
            if hi - lo >= required:
                return True
    except _BudgetExhausted:
        return False
    return False


# -- text format -------------------------------------------------------------

_ATOM_RE = re.compile(r"^\s*([^\s(),|;]+)\(([^()]*)\)\s*$")


def format_rule(rule: TemporalRule) -> str:
    parts = [f"w={rule.weight!r} {rule.signature}"]
    cells = []
    for i in range(rule.time_net.n):
        for j in range(i + 1, rule.time_net.n):
            s = rule.time_net.cells[i][j]
            if s != FULL_SET:
                cells.append(f"{i} {allen.format_set(s)} {j}")
    if cells:
        parts.append(" | " + " ; ".join(cells))
    return "".join(parts)


def parse_rule(line: str) -> TemporalRule:
    """Inverse of `format_rule`; raises RuleError on malformed text."""
    text = line.strip()
    if not text.startswith("w="):
        raise RuleError(f"rule line must start with 'w=': {line!r}")
    weight_token, _, rest = text.partition(" ")
    try:
        weight = float(weight_token[2:])
    except ValueError as exc:
        raise RuleError(f"bad weight in {weight_token!r}") from exc

    sig_part, _, net_part = rest.partition(" | ")
    head_text, sep, body_text = sig_part.partition(" <- ")
    if not sep:
        raise RuleError(f"missing '<-' in rule {line!r}")
    head = _parse_atom(head_text)
    body = tuple(_parse_atom(a) for a in body_text.split(" , "))

    net = IANetwork(list(range(len(body))))
    if net_part.strip():
        for cell in net_part.split(" ; "):
            m = re.match(r"^\s*(\d+)\s+(\{[^}]*\})\s+(\d+)\s*$", cell)
            if not m:
                raise RuleError(f"bad temporal cell {cell!r}")
            i, j = int(m.group(1)), int(m.group(3))
            if not (0 <= i < len(body) and 0 <= j < len(body) and i != j):
                raise RuleError(f"temporal cell indices out of range in {cell!r}")
            try:
                net.set_pair(i, j, allen.parse_set(m.group(2)))
            except KeyError as exc:
                raise RuleError(f"unknown relation in {cell!r}") from exc

    rule = TemporalRule(head, body, net, signature_of(head, body), weight=weight)
    return rule


def _parse_atom(text: str) -> Atom:
    m = _ATOM_RE.match(text)
    if not m:
        raise RuleError(f"bad atom {text!r}")
    name, inner = m.group(1), m.group(2).strip()
    if not inner:
        return Atom(name, (), ())
    head_text, sep, tail_text = inner.partition("->")
    if not sep:
        raise RuleError(f"atom {text!r} lacks the '->' head/tail separator")
    return Atom(name, _parse_vars(head_text, text), _parse_vars(tail_text, text))


def _parse_vars(csv: str, context: str) -> tuple[int, ...]:
    csv = csv.strip()
    if not csv:
        raise RuleError(f"empty variable list in atom {context!r}")
    out = []
    for token in csv.split(","):
        token = token.strip()
        if not token.startswith("X") or not token[1:].isdigit():
            raise RuleError(f"bad variable {token!r} in atom {context!r}")
        out.append(int(token[1:]))
    return tuple(out)
