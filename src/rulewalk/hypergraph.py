"""In-memory temporal hypergraph with interned symbols and B-walk indices.

Events are directed hyperedges: a non-empty head entity set, a non-empty
tail entity set, and a closed integer time interval.  Entities and
predicates are interned to dense integer ids on first sight.  The graph is
append-only; after loading it is treated as immutable and is safe to read
from any number of threads.

`add_event` maintains every index, each list in ascending event-id order:

- `head_index`: entity id -> events with the entity in their head set;
- `tail_index`: entity id -> events with the entity in their tail set;
- `shape_index`: (predicate id, head count, tail count) -> events of that
  shape, the candidate lists of rule grounding;
- a count of multi-tail events, so `is_b_graph` is O(1).
"""
from __future__ import annotations

from dataclasses import dataclass

# Predicate head arity recorded as VARIADIC once two events disagree.
VARIADIC = None


class GraphError(ValueError):
    """Raised on malformed events or unknown symbols."""


@dataclass(frozen=True)
class Interval:
    """Closed tick interval [start, end]; degenerate points allowed."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise GraphError(f"interval start {self.start} > end {self.end}")

    def __iter__(self):
        return iter((self.start, self.end))


@dataclass(frozen=True)
class Event:
    event_id: int
    predicate: int
    heads: tuple[int, ...]   # sorted entity ids, no duplicates
    tails: tuple[int, ...]   # sorted entity ids, no duplicates
    interval: Interval


@dataclass
class Predicate:
    pred_id: int
    name: str
    arity_head: int | None   # VARIADIC (None) admits any head count >= 1
    arity_tail: int


class SymbolTable:
    """Bijective name <-> dense id interning."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self._names)
            self._ids[name] = ident
            self._names.append(name)
        return ident

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise GraphError(f"unknown symbol {name!r}") from None

    def name_of(self, ident: int) -> str:
        return self._names[ident]

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)


class TemporalHypergraph:
    """Event store plus the head/tail adjacency indices used by walks."""

    def __init__(self) -> None:
        self.entities = SymbolTable()
        self.predicates = SymbolTable()
        self.predicate_info: list[Predicate] = []
        self.events: list[Event] = []
        self.head_index: dict[int, list[int]] = {}
        self.tail_index: dict[int, list[int]] = {}
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
        """Append one event, interning any new names; returns its id."""
        if not heads:
            raise GraphError("event requires at least one head entity")
        if not tails:
            raise GraphError("event requires at least one tail entity")
        if len(set(heads)) != len(heads):
            raise GraphError(f"duplicate head entity in {heads!r}")
        if len(set(tails)) != len(tails):
            raise GraphError(f"duplicate tail entity in {tails!r}")
        if not isinstance(interval, Interval):
            interval = Interval(int(interval[0]), int(interval[1]))

        pred_id = self._intern_predicate(predicate, len(heads), len(tails))
        head_ids = tuple(sorted(self.entities.intern(h) for h in heads))
        tail_ids = tuple(sorted(self.entities.intern(t) for t in tails))
        event_id = len(self.events)
        self.events.append(Event(event_id, pred_id, head_ids, tail_ids, interval))
        for h in head_ids:
            self.head_index.setdefault(h, []).append(event_id)
        for t in tail_ids:
            self.tail_index.setdefault(t, []).append(event_id)
        # interned entities always get an index slot, even if empty elsewhere
        for x in head_ids + tail_ids:
            self.head_index.setdefault(x, [])
            self.tail_index.setdefault(x, [])
        shape = (pred_id, len(head_ids), len(tail_ids))
        self.shape_index.setdefault(shape, []).append(event_id)
        if len(tail_ids) != 1:
            self._multi_tail_events += 1
        return event_id

    def _intern_predicate(self, name: str, n_heads: int, n_tails: int) -> int:
        if name in self.predicates:
            pred_id = self.predicates.id_of(name)
            info = self.predicate_info[pred_id]
            if info.arity_head is not VARIADIC and info.arity_head != n_heads:
                info.arity_head = VARIADIC
            if info.arity_tail != n_tails:
                raise GraphError(
                    f"predicate {name!r} declared with {info.arity_tail} tails, "
                    f"event has {n_tails}"
                )
            return pred_id
        pred_id = self.predicates.intern(name)
        self.predicate_info.append(Predicate(pred_id, name, n_heads, n_tails))
        return pred_id

    # -- queries ----------------------------------------------------------

    def out_degree(self, entity: int) -> int:
        """Number of events in which `entity` appears in the head set."""
        if not 0 <= entity < len(self.entities):
            raise GraphError(f"unknown entity id {entity}")
        return len(self.head_index.get(entity, ()))

    def is_b_graph(self) -> bool:
        """True iff every event has exactly one tail entity."""
        return self._multi_tail_events == 0

    def enabled_edges(self, reached: set[int], traversed: set[int]) -> list[int]:
        """Event ids not yet traversed whose whole head set is reached.

        Returned in ascending event-id order.
        """
        candidates: set[int] = set()
        for x in reached:
            candidates.update(self.head_index.get(x, ()))
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
        return (
            self.predicates.name_of(e.predicate),
            tuple(self.entities.name_of(h) for h in e.heads),
            tuple(self.entities.name_of(t) for t in e.tails),
        )

    def __len__(self) -> int:
        return len(self.events)
