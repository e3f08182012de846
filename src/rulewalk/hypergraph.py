"""In-memory temporal hypergraph with interned symbols and B-walk indices.

Events are directed hyperedges: a non-empty head entity set, a non-empty
tail entity set, and a closed integer time interval.  Entities and
predicates are interned to dense integer ids on first sight.  The graph is
append-only; after loading it is treated as immutable and is safe to read
from any number of threads.

`Interval` and `Event` are immutable named tuples: each equals, and hashes
as, the plain tuple of its fields.  An `Interval` checks `start <= end`
however it is built.  Being immutable, one `Interval` may be shared by many
events: `dataio.load_graph` builds one per distinct raw time field, and
`convert.temporal_kg_adapt` one per snapshot and per bridge span.

`add_event` is the one way an event enters a graph; the loaders, the
converters and the generator all call it.  It checks the whole event before
it changes anything, so a rejected event leaves the graph as it was.  It
interns the event's names and maintains every index, each event list in
ascending event-id order:

- `head_index`: entity id -> events with the entity in their head set;
  it gets an empty slot when the entity is interned, so every interned
  entity has one, even if it heads no event;
- `shape_index`: (predicate id, head count, tail count) -> events of that
  shape, the candidate lists of rule grounding;
- `tail_arity`: predicate id -> the tail count every event of it has;
- a count of multi-tail events, so `is_b_graph` is O(1).

`gc_paused` pauses the cyclic garbage collector; `dataio.load_graph` and
`convert.temporal_kg_adapt`, the bulk builders, run under it.
"""
from __future__ import annotations

import gc
from collections import namedtuple
from collections.abc import Set
from contextlib import contextmanager
from operator import index
from typing import NamedTuple


class GraphError(ValueError):
    """Raised on malformed events or unknown symbols."""


class Interval(namedtuple("Interval", "start end")):
    """Closed tick interval [start, end]; degenerate points allowed."""

    __slots__ = ()

    def __new__(cls, start: int, end: int) -> Interval:
        if start > end:
            raise GraphError(f"interval start {start} > end {end}")
        return tuple.__new__(cls, (start, end))

    @classmethod
    def _make(cls, iterable) -> Interval:
        # namedtuple's own `_make` (and so `_replace`) bypasses `__new__`
        return cls(*iterable)


class Event(NamedTuple):
    event_id: int
    predicate: int
    heads: tuple[int, ...]   # sorted entity ids, no duplicates
    tails: tuple[int, ...]   # sorted entity ids, no duplicates
    interval: Interval


# builds an `Event` without its generated `__new__`; `add_event` has already
# checked every field
_new_tuple = tuple.__new__


class SymbolTable:
    """Bijective name <-> dense id table; `TemporalHypergraph.add_event` fills it."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise GraphError(f"unknown symbol {name!r}") from None

    @property
    def names(self) -> list[str]:
        """Every name, indexed by id; read-only, since the table owns it."""
        return self._names

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)


class TemporalHypergraph:
    """Event store plus the head and shape indices used by walks and grounding."""

    def __init__(self) -> None:
        self.entities = SymbolTable()
        self.predicates = SymbolTable()
        self.tail_arity: list[int] = []
        self.events: list[Event] = []
        self.head_index: dict[int, list[int]] = {}
        self.shape_index: dict[tuple[int, int, int], list[int]] = {}
        self._multi_tail_events = 0

    # -- construction -----------------------------------------------------

    def add_event(
        self,
        predicate: str,
        heads: list[str] | tuple[str, ...],
        tails: list[str] | tuple[str, ...],
        interval: Interval | tuple[int, int],
    ) -> int:
        """Append one event, interning any new names; returns its id.

        The predicate is interned first, then the heads and then the tails,
        each in the given order.  A new entity gets its empty `head_index`
        slot when it is interned.  An interval given as a pair of ticks must
        hold integers (numpy ints pass).  A GraphError leaves the graph
        unchanged.
        """
        n_heads, n_tails = len(heads), len(tails)
        if not n_heads:
            raise GraphError("event requires at least one head entity")
        if not n_tails:
            raise GraphError("event requires at least one tail entity")
        if n_heads > 1 and len(set(heads)) != n_heads:
            raise GraphError(f"duplicate head entity in {heads!r}")
        if n_tails > 1 and len(set(tails)) != n_tails:
            raise GraphError(f"duplicate tail entity in {tails!r}")
        if not isinstance(interval, Interval):
            try:
                ticks = index(interval[0]), index(interval[1])
            except TypeError:
                raise GraphError(f"interval ticks must be integers: {interval!r}") from None
            interval = Interval(*ticks)

        # lookups are inlined, as this runs once per event of every graph
        # built; only a new entity name costs a call
        predicates = self.predicates
        pred_id = predicates._ids.get(predicate)
        if pred_id is None:
            pred_id = predicates._ids[predicate] = len(predicates._names)
            predicates._names.append(predicate)
            self.tail_arity.append(n_tails)
        elif self.tail_arity[pred_id] != n_tails:
            raise GraphError(
                f"predicate {predicate!r} declared with {self.tail_arity[pred_id]} tails, "
                f"event has {n_tails}"
            )
        entity_ids = self.entities._ids
        head_index = self.head_index
        event_id = len(self.events)
        if n_heads == 1:
            ident = entity_ids.get(heads[0])
            if ident is None:
                ident = self._intern_entity(heads[0])
            head_index[ident].append(event_id)
            head_ids = (ident,)
        else:
            ids = []
            for name in heads:
                ident = entity_ids.get(name)
                if ident is None:
                    ident = self._intern_entity(name)
                head_index[ident].append(event_id)
                ids.append(ident)
            ids.sort()
            head_ids = tuple(ids)
        if n_tails == 1:
            ident = entity_ids.get(tails[0])
            if ident is None:
                ident = self._intern_entity(tails[0])
            tail_ids = (ident,)
        else:
            ids = []
            for name in tails:
                ident = entity_ids.get(name)
                if ident is None:
                    ident = self._intern_entity(name)
                ids.append(ident)
            ids.sort()
            tail_ids = tuple(ids)
            self._multi_tail_events += 1
        self.events.append(
            _new_tuple(Event, (event_id, pred_id, head_ids, tail_ids, interval))
        )
        self.shape_index.setdefault((pred_id, n_heads, n_tails), []).append(event_id)
        return event_id

    def _intern_entity(self, name: str) -> int:
        """A new entity's id, with its empty `head_index` slot."""
        entities = self.entities
        ident = entities._ids[name] = len(entities._names)
        entities._names.append(name)
        self.head_index[ident] = []
        return ident

    # -- queries ----------------------------------------------------------

    def has_entities(self, ids) -> bool:
        """True iff every id in `ids` is an interned entity id."""
        return all(0 <= x < len(self.entities) for x in ids)

    def out_degree(self, entity: int) -> int:
        """Number of events in which `entity` appears in the head set."""
        if not 0 <= entity < len(self.entities):
            raise GraphError(f"unknown entity id {entity}")
        return len(self.head_index[entity])

    def is_b_graph(self) -> bool:
        """True iff every event has exactly one tail entity."""
        return self._multi_tail_events == 0

    def enabled_edges(self, reached: Set[int], traversed: set[int]) -> list[int]:
        """Event ids not yet traversed whose whole head set is reached.

        Returned in ascending event-id order.
        """
        candidates: set[int] = set()
        for x in reached:
            candidates.update(self.head_index[x])
        out = [
            e
            for e in candidates
            if e not in traversed and all(h in reached for h in self.events[e].heads)
        ]
        out.sort()
        return out

    def span(self) -> Interval | None:
        """Earliest start / latest end over all events; None when empty."""
        if not self.events:
            return None
        return Interval(
            min(e.interval.start for e in self.events),
            max(e.interval.end for e in self.events),
        )

    def event_names(self, event_id: int) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
        e = self.events[event_id]
        names = self.entities.names
        return (
            self.predicates.names[e.predicate],
            tuple(names[h] for h in e.heads),
            tuple(names[t] for t in e.tails),
        )

    def __len__(self) -> int:
        return len(self.events)


@contextmanager
def gc_paused():
    """The cyclic garbage collector off for the `with` body, then as it was.

    Every bulk builder of a graph runs under it: a graph holds no reference
    cycles, so each collection would rescan the growing graph and free
    nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
