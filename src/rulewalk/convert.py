"""Graph converters: clique expansion, time-point ablation, snapshot KGs."""
from __future__ import annotations

from .hypergraph import Interval, TemporalHypergraph

SAME_ENTITY_PREDICATE = "IsSameEnt"


def clique_expand(graph: TemporalHypergraph) -> TemporalHypergraph:
    """Replace every event by all head x tail binary events.

    Output event count is the sum of |heads| * |tails| over input events;
    unary class events (head == tail singleton) pass through unchanged.
    """
    out = TemporalHypergraph()
    for event in graph.events:
        pred, heads, tails = graph.event_names(event.event_id)
        for h in heads:
            for t in tails:
                out.add_event(pred, [h], [t], event.interval)
    return out


def to_time_points(graph: TemporalHypergraph) -> TemporalHypergraph:
    """Drop end times: every interval [s, e] becomes the point [s, s]."""
    out = TemporalHypergraph()
    for event in graph.events:
        pred, heads, tails = graph.event_names(event.event_id)
        out.add_event(pred, list(heads), list(tails),
                      Interval(event.interval.start, event.interval.start))
    return out


def temporal_kg_adapt(snapshots) -> TemporalHypergraph:
    """Join per-time-point triple snapshots into one temporal hypergraph.

    Each triple (h, p, t) at time tau becomes an event over per-snapshot
    entity instances `h@tau` with the degenerate interval [tau, tau].
    Entities present in two consecutive snapshots are bridged by a single
    IsSameEnt edge spanning the two time points; bridges chain but are not
    transitively closed.  The events of one snapshot share one `Interval`,
    as do the bridges between two snapshots.

    `snapshots` is a list of (time_point, [(head, predicate, tail), ...])
    with strictly increasing time points.
    """
    times = [t for t, _ in snapshots]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"snapshot time points must strictly increase: {times}")

    graph = TemporalHypergraph()
    present: list[set[str]] = []
    for tau, triples in snapshots:
        interval = Interval(tau, tau)
        seen: set[str] = set()
        for head, pred, tail in triples:
            graph.add_event(pred, (f"{head}@{tau}",), (f"{tail}@{tau}",), interval)
            seen.add(head)
            seen.add(tail)
        present.append(seen)

    for i in range(len(snapshots) - 1):
        tau_a, tau_b = times[i], times[i + 1]
        interval = Interval(tau_a, tau_b)
        for name in sorted(present[i] & present[i + 1]):
            graph.add_event(
                SAME_ENTITY_PREDICATE, (f"{name}@{tau_a}",), (f"{name}@{tau_b}",), interval
            )
    return graph
