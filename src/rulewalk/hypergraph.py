"""In-memory temporal hypergraph with interned entities and B-walk indices.

Events are directed hyperedges: a non-empty head entity set, a non-empty
tail entity set, and a closed integer time interval.  Entities are
interned to dense integer ids on first sight, which the walks and
`head_index` need: `entities` maps each name to its id, in id order, and
`entity_names` maps each id back to its name.  An unknown name is a
`KeyError` of `entities`.  Predicates stay names, as rules and queries carry
them from graph to graph: `predicates` maps each name to the tail count
its events declare, in first-seen order, and the events of one predicate
share one `str` object.  The graph is append-only; after loading it is
treated as immutable and is safe to read from any number of threads.

`Interval` and `Event` are immutable named tuples: each equals, and hashes
as, the plain tuple of its fields.  An `Interval` checks that its ticks
are integers (numpy ints pass, stored as `int`) and that `start <= end`,
however it is built.  Being immutable, one `Interval` may be shared by many
events: `dataio.load_graph` builds one per distinct raw time field, and
`convert.temporal_kg_adapt` one per snapshot and per bridge span.

`add_event` is the one way an event enters a graph; the loaders, the
converters and the generator all call it.  It checks the whole event before
it changes anything, so a rejected event leaves the graph as it was.  It
interns the event's entity names and maintains every index, each event list
in ascending event-id order:

- `head_index`: entity id -> events with the entity in their head set;
  it gets an empty slot when the entity is interned, so every interned
  entity has one, even if it heads no event;
- `shape_index`: (predicate name, head count, tail count) -> events of
  that shape, the candidate lists of rule grounding;
- a count of multi-tail events, so `is_b_graph` is O(1).

An entity gets one `(id,)` tuple when it is interned, and every event whose
head or tail set is that entity alone shares it.
"""
from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Set
from operator import index
from typing import NamedTuple


class GraphError(ValueError):
    """Raised on malformed events or unknown entity ids."""


class Interval(namedtuple("Interval", "start end")):
    """Closed tick interval [start, end]; degenerate points allowed."""

    __slots__ = ()

    def __new__(cls, start: int, end: int) -> Interval:
        try:
            start, end = index(start), index(end)
        except TypeError:
            raise GraphError(f"interval ticks must be integers: {(start, end)!r}") from None
        if start > end:
            raise GraphError(f"interval start {start} > end {end}")
        return tuple.__new__(cls, (start, end))

    @classmethod
    def _make(cls, iterable) -> Interval:
        # namedtuple's own `_make` (and so `_replace`) bypasses `__new__`
        return cls(*iterable)


class Event(NamedTuple):
    event_id: int
    predicate: str
    heads: tuple[int, ...]   # sorted entity ids, no duplicates
    tails: tuple[int, ...]   # sorted entity ids, no duplicates
    interval: Interval


# builds an `Event` without its generated `__new__`; `add_event` has already
# checked every field
_new_tuple = tuple.__new__


class TemporalHypergraph:
    """Event store plus the head and shape indices used by walks and grounding."""

    def __init__(self) -> None:
        self.entities: dict[str, int] = {}  # name -> id, in id order
        self.entity_names: list[str] = []  # id -> name
        self.predicates: dict[str, int] = {}  # name -> declared tail count
        self.events: list[Event] = []
        self.head_index: dict[int, list[int]] = {}
        self.shape_index: dict[tuple[str, int, int], list[int]] = {}
        self._units: list[tuple[int]] = []  # entity id -> its shared (id,) tuple
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

        A new predicate declares its tail count; the heads are interned
        first and then the tails, each in the given order.  A new entity
        gets its empty `head_index` slot when it is interned.  An interval
        may be given as a pair of ticks.  A GraphError, an unhashable entity
        name's included, leaves the graph unchanged.
        """
        n_heads, n_tails = len(heads), len(tails)
        if not n_heads:
            raise GraphError("event requires at least one head entity")
        if not n_tails:
            raise GraphError("event requires at least one tail entity")
        # every name is hashed before the graph changes: a lone name by its
        # lookup, the names of a larger set by the duplicate check
        entity_ids = self.entities
        try:
            if n_heads == 1:
                head = entity_ids.get(heads[0])
            elif len(set(heads)) != n_heads:
                raise GraphError(f"duplicate head entity in {heads!r}")
            if n_tails == 1:
                tail = entity_ids.get(tails[0])
            elif len(set(tails)) != n_tails:
                raise GraphError(f"duplicate tail entity in {tails!r}")
        except TypeError:
            for name in (*heads, *tails):
                try:
                    hash(name)
                except TypeError:
                    raise GraphError(f"entity name {name!r} is not hashable") from None
            raise
        if not isinstance(interval, Interval):
            try:
                interval = Interval(*interval)
            except TypeError:
                raise GraphError(f"interval must be a pair of ticks: {interval!r}") from None

        # one str object per predicate name, shared by its events;
        # `sys.intern` takes nothing but an exact str
        try:
            predicate = sys.intern(predicate)
        except TypeError:
            if not isinstance(predicate, str):
                raise GraphError(f"predicate must be a str: {predicate!r}") from None
            predicate = sys.intern(str(predicate))  # a str subclass
        declared = self.predicates.setdefault(predicate, n_tails)
        if declared != n_tails:
            raise GraphError(
                f"predicate {predicate!r} declared with {declared} tails, event has {n_tails}"
            )
        # lookups are inlined, as this runs once per event of every graph
        # built; only a new entity name costs a call
        head_index = self.head_index
        units = self._units
        event_id = len(self.events)
        if n_heads == 1:
            if head is None:
                head = self._intern_entity(heads[0])
            head_index[head].append(event_id)
            head_ids = units[head]
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
            if tail is None:  # the heads may have interned it since its lookup
                tail = self._intern_entity(tails[0])
            tail_ids = units[tail]
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
            _new_tuple(Event, (event_id, predicate, head_ids, tail_ids, interval))
        )
        shape = (predicate, n_heads, n_tails)
        same_shape = self.shape_index.get(shape)
        if same_shape is None:
            self.shape_index[shape] = [event_id]
        else:
            same_shape.append(event_id)
        return event_id

    def _intern_entity(self, name: str) -> int:
        """The id of `name`; a new name first gets one, with its empty
        `head_index` slot and its `(id,)` tuple."""
        ident = self.entities.get(name)
        if ident is None:
            ident = self.entities[name] = len(self.entity_names)
            self.entity_names.append(name)
            self.head_index[ident] = []
            self._units.append((ident,))
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
        names = self.entity_names
        return (
            e.predicate,
            tuple(names[h] for h in e.heads),
            tuple(names[t] for t in e.tails),
        )

    def __len__(self) -> int:
        return len(self.events)
