"""Temporal rules: chain bodies with pairwise interval constraints.

A rule is a head atom, an ordered body of atoms over logical variables,
and a constraint network over body positions.  Rules reference predicates
by name so they can travel between graphs; variables are canonicalized at
construction so that isomorphic traces produce byte-identical signatures.
A walk trace carries no network: `trace_to_rule` lifts a trace to its
atoms and signature, and the lift's `network()` builds the network with
`trace_network` from the graph's intervals.

Text format, one rule per line::

    w=0.0 Head(X0->X1) <- P1(X0->X1) , P2(X1,X2->X3) | 0 {BEFORE,MEETS} 1

`w=` takes a number that `parse_rule` checks and drops: learned weights
live in model files.  Head variables before `->` are the atom's head set,
after it the tail set; a head atom with no variables renders as `Head()`.
The temporal block lists upper-triangle cells that constrain anything; an
omitted block (or cell) means the full relation set.  A rule file
(`read_rules` / `write_rules`) holds each rule line after a `# support=<n>`
line.
"""
from __future__ import annotations

import re
from dataclasses import KW_ONLY, dataclass, field
from itertools import permutations, product
from typing import Iterator, NamedTuple

from . import allen
from .allen import EMPTY_SET, FULL_SET
from .constraints import IANetwork, merge_paths, observe
from .dataio import NAME_TOKEN, DataFormatError, check_predicate, open_text
from .hypergraph import GraphError, TemporalHypergraph

# candidate events and bindings one grounding search may try; read at call time
GROUNDING_BUDGET = 1_000_000


class RuleError(ValueError):
    """Malformed rule construction or rule text."""


class GroundingBudgetError(RuleError):
    """A grounding search tried more than GROUNDING_BUDGET candidate events and bindings."""


@dataclass(frozen=True)
class Query:
    """What a rule answers: a predicate over optional concrete entities.

    Event queries carry head/tail entity ids of their own graph
    (`graph_index`); classification queries carry a bare label (no
    entities) and refer to a whole graph.  A grounding search binds only
    the heads; the tails are looked up in the tail tuples it collects.  The
    predicate stays a name, since rules carry predicates by name from graph
    to graph.  `event_id` distinguishes otherwise identical event queries
    inside ranking pools.
    """

    predicate: str
    heads: tuple[int, ...] = ()
    tails: tuple[int, ...] = ()
    graph_index: int = 0
    event_id: int | None = None


class Atom(NamedTuple):
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
    signature: str = field(init=False)  # the rendered head and body
    _: KW_ONLY
    support: int = 0           # occurrence count assigned by the miner

    def __post_init__(self) -> None:
        if len(self.body) != self.time_net.n:
            raise RuleError("time_net node count must equal body length")
        self.signature = render_signature(self.head, self.body)


def render_signature(head: Atom, body: tuple[Atom, ...]) -> str:
    return f"{render_atom(head)} <- {' , '.join(render_atom(a) for a in body)}"


def render_atom(atom: Atom) -> str:
    if not atom.head_vars and not atom.tail_vars:
        return f"{atom.predicate}()"
    heads = ",".join(f"X{v}" for v in atom.head_vars)
    tails = ",".join(f"X{v}" for v in atom.tail_vars)
    return f"{atom.predicate}({heads}->{tails})"


# -- trace to rule ---------------------------------------------------------


def chain_connected(graph: TemporalHypergraph, trace: list[int], query: Query) -> bool:
    """True when the trace forms a connected chain seeded by the query.

    Every event after the first must share an entity with the query's
    entities or with an earlier trace event; otherwise the rule built from
    it would contain floating atoms.
    """
    seen = set(query.heads + query.tails)
    for pos, eid in enumerate(trace):
        event = graph.events[eid]
        entities = set(event.heads) | set(event.tails)
        if pos > 0 and entities.isdisjoint(seen):
            return False
        seen |= entities
    return True


def trace_network(graph: TemporalHypergraph, trace: list[int]) -> IANetwork:
    """The path-consistent network of a walk trace, keyed by its event ids.

    A multi-start walk opens one sub-walk per start entity, but a sub-walk
    holds no event until an event names its start, and that event carries
    the start itself.  So the sub-walks that hold events are the groups of
    trace events joined by shared entities, built in trace order, whatever
    the start set.  Each group keeps its closed network and the events it
    has not observed yet, and observes them in one `observe` call: just
    before an event joins it to other groups with `merge_paths`, or when
    the trace ends.  The closure of the same cells is unique, so the cells
    are those of observing each event against its group in turn.  The
    groups are then laid out in trace order, and cells between groups that
    never met stay FULL_SET.
    """
    def interval_of(eid: int):
        return graph.events[eid].interval

    groups: list[tuple[set[int], IANetwork, list[int]]] = []  # (entities, closed, unobserved)
    for eid in trace:
        event = graph.events[eid]
        entities = set(event.heads).union(event.tails)
        touched = [g for g in groups if not entities.isdisjoint(g[0])]
        if len(touched) == 1:
            touched[0][0].update(entities)
            touched[0][2].append(eid)
            continue
        if touched:
            groups = [g for g in groups if entities.isdisjoint(g[0])]
            nets = [observe(net, unobserved, interval_of) for _, net, unobserved in touched]
            net = merge_paths(nets, [k for n in nets for k in n.keys])
            entities.update(*(ents for ents, _, _ in touched))
        else:
            net = IANetwork([])
        groups.append((entities, net, [eid]))
    return merge_paths(
        [observe(net, unobserved, interval_of) for _, net, unobserved in groups], trace
    )


class Lift(NamedTuple):
    """A connected trace lifted to a rule's atoms; `rule()` adds its `network()`.

    `body` holds one atom per trace event, then one per class event.
    """

    head: Atom
    body: tuple[Atom, ...]
    signature: str
    graph: TemporalHypergraph
    trace: list[int]
    class_events: list[int]

    def network(self) -> IANetwork:
        """The trace's `trace_network` with the class atoms observed against
        it, keyed by body indices."""
        graph = self.graph
        net = trace_network(graph, self.trace)
        if self.class_events:
            net = observe(net, self.class_events, lambda e: graph.events[e].interval)
        return IANetwork(range(len(self.body)), net.cells)

    def rule(self) -> TemporalRule:
        return TemporalRule(self.head, self.body, self.network())


def trace_to_rule(graph: TemporalHypergraph, trace: list[int], query: Query) -> Lift | None:
    """Lift a walk trace into a rule's atoms with canonical variables.

    Entities become variables consistently (same entity, same variable);
    the query's entities become the head atom's variables.  A unary class
    atom is appended for every variable whose entity carries a class-label
    event in the graph, at most one per variable.  The signature is known
    here; only the lift's `network()` builds a network.  Returns None
    unless `chain_connected` holds for the trace.  Raises RuleError for an
    empty trace and GraphError for a query entity the graph lacks.
    """
    if not trace:
        raise RuleError("cannot build a rule from an empty trace")
    if not graph.has_entities(query.heads + query.tails):
        raise GraphError(f"query entities {query.heads + query.tails} are not all in the graph")
    if not chain_connected(graph, trace, query):
        return None

    class_events = _class_events(graph, trace)
    events = [graph.events[e] for e in trace + class_events]
    var_of = _canonical_variables(
        query.heads, query.tails, [(ev.heads, ev.tails) for ev in events])

    def variables(entities) -> tuple[int, ...]:
        return tuple(sorted([var_of[x] for x in entities]))

    head = Atom(query.predicate, variables(query.heads), variables(query.tails))
    names = graph.predicates.names
    body = tuple(
        Atom(names[ev.predicate], variables(ev.heads), variables(ev.tails)) for ev in events
    )
    return Lift(head, body, render_signature(head, body), graph, trace, class_events)


def _class_events(graph: TemporalHypergraph, trace: list[int]) -> list[int]:
    """First class-label event per trace entity, skipping walked ones."""
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
        for eid in graph.head_index[x]:
            ev = graph.events[eid]
            if ev.heads == (x,) and ev.tails == (x,):
                extra.append(eid)
                covered.add(x)
                break
    return extra


def _canonical_variables(query_heads, query_tails, atom_entities) -> dict[int, int]:
    """Assign variable ids invariant under graph entity renaming.

    Entities get ids in order of first appearance, query heads and tails
    first.  Entities that first appear together in one head or tail set are
    ordered by their occurrence pattern over the body (which positions they
    fill); entities with identical patterns are interchangeable, so the
    remaining tie-break by id cannot change the rendered signature.  The
    patterns are built only for a set that holds two or more such entities.
    """
    var_of: dict[int, int] = {}
    patterns: dict[int, list[tuple[int, int]]] = {}
    for group in (query_heads, query_tails, *(g for atom in atom_entities for g in atom)):
        fresh = [x for x in group if x not in var_of]
        if len(fresh) > 1:
            if not patterns:
                for pos, (heads, tails) in enumerate(atom_entities):
                    for x in heads:
                        patterns.setdefault(x, []).append((pos, 0))
                    for x in tails:
                        patterns.setdefault(x, []).append((pos, 1))
            fresh = sorted(set(fresh), key=lambda x: (patterns.get(x, []), x))
        for x in fresh:
            var_of[x] = len(var_of)
    return var_of


# -- grounding and evaluation ----------------------------------------------


def evaluate(
    rule: TemporalRule, graph: TemporalHypergraph, query: Query
) -> set[tuple[int, ...]]:
    """The tail tuples that the rule's groundings from the query's heads bind.

    One search from the query's heads collects each tail tuple a grounding
    binds, in every order, since a query's tails may bind the head atom's
    tail variables in any order: `t` is in the result iff
    `Query(p, query.heads, t)` has a grounding.  A head without tail
    variables can only predict `()`, so that search stops at its first
    grounding.  A query that names its tails gets `{query.tails}` if they
    are in that set and an empty set otherwise.  An empty set means no
    match, so the result also reads as a bool.
    """
    matched: set[tuple[int, ...]] = set()
    for _, tails in iter_groundings(rule, graph, query):
        matched.update(permutations(tails))
        if not rule.head.tail_vars:
            break
    if query.tails:
        return {query.tails} if query.tails in matched else set()
    return matched


def iter_groundings(
    rule: TemporalRule, graph: TemporalHypergraph, query: Query
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (grounding, tails) pair in deterministic backtracking order.

    A grounding is the tuple of event ids matched by the body atoms, in
    body order.  The query's heads are bound to the head atom's head
    variables; body atoms are matched in order by exhaustive backtracking
    over events in ascending id order, with every pairwise interval
    relation required to lie in the rule's constraint network.  Each atom
    visits only the events of its shape that contain its already-bound
    entities.  The query's tails are not read: each grounding comes with
    the tuple of the entities its tail variables bound, in variable order,
    once for every graph entity a variable no body atom binds could take.

    Each candidate event, each binding of the heads or of an atom's
    variables tried and each grounding read off costs one step, so the
    bound holds at any arity; raises GroundingBudgetError once the search
    has taken more than GROUNDING_BUDGET steps, so an unfinished search is
    never read as "no match".
    """
    head_vars, tail_vars = rule.head.head_vars, rule.head.tail_vars
    if len(query.heads) != len(head_vars) or not graph.has_entities(query.heads):
        return

    candidates = _candidate_events(rule, graph)
    if any(not events for _, events in candidates):
        return

    left = [GROUNDING_BUDGET]

    def spend() -> None:
        left[0] -= 1
        if left[0] < 0:
            raise GroundingBudgetError(
                f"grounding search for rule {rule.signature} tried more than "
                f"{GROUNDING_BUDGET:,} candidate events and bindings"
            )

    # tail variables that neither the heads nor any body atom binds
    free = [
        v for v in dict.fromkeys(tail_vars)
        if v not in head_vars and not any(v in atom.variables() for atom in rule.body)
    ]
    for head_bind in _set_bindings(head_vars, query.heads, {}, spend):
        for grounding, bind in _match_body(rule, graph, candidates, head_bind, [], spend):
            for values in product(range(len(graph.entities)), repeat=len(free)):
                spend()
                bound = {**bind, **dict(zip(free, values))}
                yield grounding, tuple(bound[v] for v in tail_vars)


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

    A head variable that is already bound confines the atom to the events
    with that entity in their head set.  The shortest of those index lists,
    filtered to the atom's shape, replaces the shape list; all of them are
    in ascending event-id order, so the grounding order is the same as over
    the shape list.  A walk reaches an event's heads before it fires, so
    walk-mined bodies bind an atom's heads before the atom.
    """
    best = events
    for var in atom.head_vars:
        if var in binding:
            bound = graph.head_index[binding[var]]
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


def _set_bindings(
    variables, entities, base: dict[int, int], spend
) -> Iterator[dict[int, int]]:
    """Bind a variable tuple to an entity set via every consistent bijection.

    Each bijection tried costs one `spend()`.
    """
    for perm in permutations(entities):
        spend()
        bound = dict(base)
        ok = True
        for var, ent in zip(variables, perm):
            if bound.get(var, ent) != ent:
                ok = False
                break
            bound[var] = ent
        if ok:
            yield bound


def _match_body(
    rule, graph, candidates, binding, chosen, spend
) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
    """Each grounding that extends `chosen`, with the binding it completes."""
    pos = len(chosen)
    if pos == len(rule.body):
        yield tuple(chosen), binding
        return
    atom = rule.body[pos]
    net = rule.time_net.cells
    shape, events = candidates[pos]
    for eid in _narrowed(graph, atom, shape, events, binding):
        event = graph.events[eid]
        spend()
        ok_temporal = True
        for other_pos, other_eid in enumerate(chosen):
            rel = allen.classify(graph.events[other_eid].interval, event.interval)
            if not net[other_pos][pos] & (1 << rel):
                ok_temporal = False
                break
        if not ok_temporal:
            continue
        for head_bind in _set_bindings(atom.head_vars, event.heads, binding, spend):
            for bind in _set_bindings(atom.tail_vars, event.tails, head_bind, spend):
                chosen.append(eid)
                yield from _match_body(rule, graph, candidates, bind, chosen, spend)
                chosen.pop()


# -- time-span coverage ------------------------------------------------------


def coverage_span(grounding: tuple[int, ...], graph: TemporalHypergraph) -> tuple[int, int]:
    """Earliest start and latest end over the grounded events."""
    starts = [graph.events[e].interval.start for e in grounding]
    ends = [graph.events[e].interval.end for e in grounding]
    return min(starts), max(ends)


def coverage_filter(rule: TemporalRule, graph: TemporalHypergraph, rho: float) -> bool:
    """True iff some grounding spans at least rho of the graph's own span."""
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    graph_span = graph.span()
    if graph_span is None:
        return False
    required = rho * (graph_span.end - graph_span.start)
    for grounding, _ in iter_groundings(rule, graph, Query(rule.head.predicate)):
        lo, hi = coverage_span(grounding, graph)
        if hi - lo >= required:
            return True
    return False


# -- text format -------------------------------------------------------------

_ATOM_RE = re.compile(rf"^\s*({NAME_TOKEN})\(([^()]*)\)\s*$")


def format_rule(rule: TemporalRule) -> str:
    parts = [f"w=0.0 {rule.signature}"]
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
    """Inverse of `format_rule`; raises RuleError on malformed text.

    A temporal cell with an empty relation set, or a second cell on one
    pair of atoms, is malformed: `format_rule` writes neither.
    """
    text = line.strip()
    if not text.startswith("w="):
        raise RuleError(f"rule line must start with 'w=': {line!r}")
    weight_token, _, rest = text.partition(" ")
    try:
        float(weight_token[2:])
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
        named = set()
        for cell in net_part.split(" ; "):
            m = re.match(r"^\s*(\d+)\s+(\{[^}]*\})\s+(\d+)\s*$", cell)
            if not m:
                raise RuleError(f"bad temporal cell {cell!r}")
            i, j = int(m.group(1)), int(m.group(3))
            if not (0 <= i < len(body) and 0 <= j < len(body) and i != j):
                raise RuleError(f"temporal cell indices out of range in {cell!r}")
            pair = (min(i, j), max(i, j))
            if pair in named:
                raise RuleError(f"second temporal cell on atoms {i} and {j} in {cell!r}")
            named.add(pair)
            try:
                rels = allen.parse_set(m.group(2))
            except KeyError as exc:
                raise RuleError(f"unknown relation in {cell!r}") from exc
            if rels == EMPTY_SET:
                raise RuleError(f"empty relation set in {cell!r}")
            net.set_pair(i, j, rels)

    return TemporalRule(head, body, net)


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


def write_rules(path, rules) -> None:
    """Write a rule file: each rule's `# support=` line, then its rule line.

    A predicate `read_rules` could not parse back is a DataFormatError, raised
    before the file is opened.  Only a graph built in-process can hold one:
    the loaders check every predicate they read.
    """
    for rule in rules:
        for atom in (rule.head, *rule.body):
            check_predicate(atom.predicate, str(path))
    with open(path, "w", encoding="utf-8") as fh:
        for rule in rules:
            fh.write(f"# support={rule.support}\n")
            fh.write(format_rule(rule) + "\n")


def read_rules(path) -> list[TemporalRule]:
    """A `write_rules` file's rules; a bad support line is a DataFormatError, a bad rule
    line a RuleError, and a rule with no support line before it gets support 0."""
    rules = []
    support = 0
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line.startswith("# support="):
                try:
                    support = int(line[len("# support="):])
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: support is not an integer: {line!r}"
                    ) from None
                if support < 0:
                    raise DataFormatError(f"{path}:{lineno}: support is negative: {line!r}")
                continue
            if not line or line.startswith("#"):
                continue
            try:
                rule = parse_rule(line)
            except RuleError as exc:
                raise RuleError(f"{path}:{lineno}: {exc}") from None
            rule.support = support
            support = 0
            rules.append(rule)
    return rules
