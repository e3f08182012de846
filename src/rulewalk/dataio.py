"""Flat-file graph format and corpus directories.

One graph per file::

    #thg v1
    #label BLT
    Put | bacon | pan | 3 5
    MixInto | onion,garlic,oil | bowl | 7 9

Fields are pipe-separated: predicate, comma-separated heads, tails, then
`start end`.  `#` starts a comment; `|`, `,` and tabs are reserved and
rejected inside names, on load as on save; a predicate name must be a
`NAME_TOKEN`, as rule files carry it and a line that begins with `#` is a
comment.  A corpus is a directory of `*.thg` files read in filename order.

`load_graph` reads the whole file in one call, and events with equal raw
time fields share one `Interval`.  It checks each distinct predicate once,
and an entity name only on a line that holds a tab: the `|`, `,` and newline
splits leave no other reserved character in a name, and it rejects an empty
one itself.
"""
from __future__ import annotations

import os
import re
from contextlib import contextmanager

from .hypergraph import GraphError, Interval, TemporalHypergraph

HEADER = "#thg v1"
RESERVED = ("|", ",", "\n", "\t")
#: a predicate name: no whitespace, none of the rule grammar's delimiters, and
#: no leading `#`, which would turn its graph file line into a comment
NAME_TOKEN = r"[^\s(),|;#][^\s(),|;]*"


class DataFormatError(ValueError):
    """Parse or validation failure, with file/line context in the message."""


@contextmanager
def open_text(path):
    """`path` opened for reading as UTF-8 text.

    A decode error in the `with` body becomes a DataFormatError naming the
    file and its first line that is not UTF-8.  The position the decoder
    reports is relative to the chunk it was decoding, so that line is found
    by decoding the file's bytes again, on the error path only.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                lines = raw.read().splitlines()
            for lineno, line in enumerate(lines, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataFormatError(
                        f"{path}:{lineno}: not UTF-8 text ({exc.reason})"
                    ) from None
            raise DataFormatError(f"{path}: not UTF-8 text") from None


def check_name(name: str, where: str) -> None:
    if not isinstance(name, str):
        raise DataFormatError(f"{where}: name {name!r} is not a str")
    if not name:
        raise DataFormatError(f"{where}: empty name")
    for ch in RESERVED:
        if ch in name:
            raise DataFormatError(f"{where}: reserved character {ch!r} in {name!r}")


def check_predicate(name: str, where: str) -> None:
    """`check_name`, and then the rule grammar's `NAME_TOKEN`."""
    check_name(name, where)
    if not re.fullmatch(NAME_TOKEN, name):
        if name[0] == "#":
            raise DataFormatError(
                f"{where}: predicate {name!r} begins with '#', "
                "which makes its graph file line a comment"
            )
        raise DataFormatError(
            f"{where}: predicate {name!r} holds whitespace or one of '();', "
            "which a rule file cannot carry"
        )


def save_graph(graph: TemporalHypergraph, path, label: str | None = None) -> None:
    """Write one graph file; raises DataFormatError on a name `load_graph` would reject.

    Every predicate and interned entity name comes from an event, so checking
    them checks each name of every event, once.
    """
    entities = graph.entity_names
    for name in graph.predicates:
        check_predicate(name, path)
    for name in entities:
        check_name(name, path)
    lines = [HEADER]
    if label is not None:
        lines.append(f"#label {label}")
    for event in graph.events:
        lines.append(
            f"{event.predicate} | "
            f"{','.join([entities[h] for h in event.heads])} | "
            f"{','.join([entities[t] for t in event.tails])} | "
            f"{event.interval.start} {event.interval.end}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(
    path, split_multi_tail: bool = False
) -> tuple[TemporalHypergraph, str | None]:
    """One graph file's graph and its `#label` (None without one).

    `#label` is read only when whitespace or the end of the line follows it,
    and a second `#label` line is a DataFormatError.  Each distinct
    predicate and raw time field is checked once, at the first line that
    holds it, so an error names that line.
    """
    graph = TemporalHypergraph()
    label: str | None = None
    intervals: dict[str, Interval] = {}  # raw time field -> its interval
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh.read().split("\n"), start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                keyword, *value = line.split(None, 1)
                if keyword == "#label":
                    if label is not None:
                        raise DataFormatError(
                            f"{path}:{lineno}: a second #label line; a graph has one label"
                        )
                    label = value[0] if value else ""
                continue
            parts = line.split("|")
            if len(parts) != 4:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 4 pipe-separated fields, "
                    f"got {len(parts)}"
                )
            pred, heads_text, tails_text, time_text = parts
            pred = pred.strip()
            if "," in heads_text:
                heads = [h.strip() for h in heads_text.split(",")]
            else:
                heads = (heads_text.strip(),)
            if "," in tails_text:
                tails = [t.strip() for t in tails_text.split(",")]
            else:
                tails = (tails_text.strip(),)
            if "" in heads:
                raise DataFormatError(f"{path}:{lineno}: empty head entity")
            if "" in tails:
                raise DataFormatError(f"{path}:{lineno}: empty tail entity")
            interval = intervals.get(time_text)
            if interval is None:
                ticks = time_text.split()
                if len(ticks) != 2:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected '<start> <end>', "
                        f"got {time_text.strip()!r}"
                    )
                try:
                    interval = Interval(int(ticks[0]), int(ticks[1]))
                except (ValueError, GraphError) as exc:
                    raise DataFormatError(f"{path}:{lineno}: {exc}") from None
                intervals[time_text] = interval
            if len(tails) > 1 and not split_multi_tail:
                raise DataFormatError(
                    f"{path}:{lineno}: multi-tail event (pass --split-multi-tail, "
                    f"or split_multi_tail=True to load_graph, to expand into "
                    f"single-tail edges)"
                )
            if pred not in graph.predicates:
                check_predicate(pred, f"{path}:{lineno}")
            if "\t" in line:
                for name in (*heads, *tails):
                    check_name(name, f"{path}:{lineno}")
            try:
                if len(tails) == 1:
                    graph.add_event(pred, heads, tails, interval)
                elif len(set(tails)) != len(tails):
                    raise GraphError(f"duplicate tail entity in {tails!r}")
                else:
                    for tail in tails:
                        graph.add_event(pred, heads, [tail], interval)
            except GraphError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return graph, label


def load_snapshots(path) -> list[tuple[int, list[tuple[str, str, str]]]]:
    """A snapshot file's `(tau, [(head, predicate, tail), ...])` pairs, by rising tau."""
    snapshots: dict[int, list[tuple[str, str, str]]] = {}
    names: set[str] = set()  # already checked
    predicates: set[str] = set()
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 4:
                raise DataFormatError(f"{where}: expected 'tau | head | pred | tail'")
            try:
                tau = int(parts[0])
            except ValueError:
                raise DataFormatError(f"{where}: bad time point {parts[0]!r}") from None
            for name in parts[1:]:
                if name not in names:
                    check_name(name, where)
                    names.add(name)
            if parts[2] not in predicates:
                check_predicate(parts[2], where)
                predicates.add(parts[2])
            snapshots.setdefault(tau, []).append((parts[1], parts[2], parts[3]))
    return [(tau, snapshots[tau]) for tau in sorted(snapshots)]


def save_corpus(dirpath, graphs, labels) -> None:
    os.makedirs(dirpath, exist_ok=True)
    width = max(4, len(str(len(graphs))))
    for i, graph in enumerate(graphs):
        save_graph(graph, os.path.join(dirpath, f"g{i:0{width}d}.thg"), labels[i])


def corpus_files(dirpath) -> list[str]:
    """The names of a corpus directory's graph files, in reading order."""
    return sorted(n for n in os.listdir(dirpath) if n.endswith(".thg"))


def load_corpus(
    dirpath, split_multi_tail: bool = False
) -> tuple[list[TemporalHypergraph], list[str | None]]:
    names = corpus_files(dirpath)
    if not names:
        raise DataFormatError(f"{dirpath}: no .thg files found")
    graphs = []
    labels = []
    for name in names:
        graph, label = load_graph(os.path.join(dirpath, name), split_multi_tail)
        graphs.append(graph)
        labels.append(label)
    return graphs, labels
