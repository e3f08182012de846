"""Allen's thirteen-relation interval algebra over closed integer intervals.

Relation sets are plain ints: a 13-bit mask with one bit per base relation
(EMPTY_SET means inconsistent, FULL_SET means unconstrained).  The algebra
here is extended to degenerate point intervals by classifying with a fixed
branch order: EQUAL, then start-equality (STARTS/STARTED_BY), end-equality
(FINISHES/FINISHED_BY), endpoint adjacency (MEETS/MET_BY), disjointness
(BEFORE/AFTER), and finally containment/overlap.  Under that order a point
never MEETS anything: [3,3] vs [3,5] is STARTS, [5,5] vs [3,5] is FINISHES,
[4,4] vs [3,5] is DURING.

The composition table is a frozen constant; it was produced once by
exhaustive enumeration of integer interval triples, and the test suite
regenerates it the same way (tests/oracles.py `compose_table_bruteforce`)
rather than trusting any transcription.

`compose_sets` reads that table: the composition of two relation sets is
the union of the cells [r1][r2] over every r1 in the first set and r2 in
the second.  Its one caller is the PC-1 sweep of `constraints.resolve_time`,
which the miner runs only on small networks: a few hundred calls per
benchmark rep, so precomputed union tables would not pay for their code.
"""
from __future__ import annotations

from enum import IntEnum
from types import SimpleNamespace
from typing import Iterator

import numpy as np


class Relation(IntEnum):
    """Base interval relations; adjacent even/odd values are inverse pairs."""

    BEFORE = 0
    AFTER = 1
    MEETS = 2
    MET_BY = 3
    OVERLAPS = 4
    OVERLAPPED_BY = 5
    STARTS = 6
    STARTED_BY = 7
    DURING = 8
    CONTAINS = 9
    FINISHES = 10
    FINISHED_BY = 11
    EQUAL = 12


RelationSet = int

EMPTY_SET: RelationSet = 0
FULL_SET: RelationSet = (1 << 13) - 1

_EVEN_MASK = sum(1 << r for r in range(0, 12, 2))
_ODD_MASK = sum(1 << r for r in range(1, 12, 2))
_EQUAL_BIT = 1 << Relation.EQUAL


def rel_set(*relations: Relation) -> RelationSet:
    """Bitmask holding exactly the given base relations."""
    mask = 0
    for r in relations:
        mask |= 1 << r
    return mask


_RELATIONS = tuple(Relation)


def iter_members(s: RelationSet) -> Iterator[Relation]:
    """Base relations present in `s`, in enum order."""
    while s:
        low = s & -s
        yield _RELATIONS[low.bit_length() - 1]
        s ^= low


def inverse_set(s: RelationSet) -> RelationSet:
    """Elementwise converse; swaps each even/odd inverse pair of bits."""
    return ((s & _EVEN_MASK) << 1) | ((s & _ODD_MASK) >> 1) | (s & _EQUAL_BIT)


def classify(a, b) -> Relation:
    """The unique base relation holding between intervals `a` and `b`.

    Determined solely by endpoint comparisons; total over all valid
    intervals, degenerate points included.
    """
    if a.start == b.start:
        if a.end == b.end:
            return Relation.EQUAL
        return Relation.STARTS if a.end < b.end else Relation.STARTED_BY
    if a.end == b.end:
        return Relation.FINISHES if a.start > b.start else Relation.FINISHED_BY
    if a.end == b.start:
        return Relation.MEETS
    if b.end == a.start:
        return Relation.MET_BY
    if a.end < b.start:
        return Relation.BEFORE
    if b.end < a.start:
        return Relation.AFTER
    # endpoints pairwise distinct and the intervals overlap
    if a.start < b.start:
        return Relation.CONTAINS if a.end > b.end else Relation.OVERLAPS
    return Relation.DURING if a.end < b.end else Relation.OVERLAPPED_BY


def classify_grid(a, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """`classify(a, b)` for every interval b = [starts[k], ends[k]], as int8 codes.

    One numpy pass: `_sign_codes` per interval, looked up in `_SIGN_TABLE`.
    """
    return _SIGN_TABLE[_sign_codes(a, starts, ends)]


def _sign_codes(a, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per interval b, the four endpoint signs `classify` reads, in [0, 80].

    The signs of b.start - a.start, b.end - a.end, b.start - a.end and
    b.end - a.start, as the digits of one base-3 number.  `classify` reads
    nothing else, so the number determines the relation.
    """
    return (
        np.sign(starts - a.start) * 27
        + np.sign(ends - a.end) * 9
        + np.sign(starts - a.end) * 3
        + np.sign(ends - a.start)
        + 40
    )


def compose_sets(s1: RelationSet, s2: RelationSet) -> RelationSet:
    """Union of COMPOSITION_TABLE[r1][r2] over the cross product of the two sets."""
    out = EMPTY_SET
    for r1 in iter_members(s1):
        row = COMPOSITION_TABLE[r1]
        for r2 in iter_members(s2):
            out |= row[r2]
    return out


def format_set(s: RelationSet) -> str:
    """Human-readable `{BEFORE,MEETS}` form used in rule files."""
    return "{" + ",".join(r.name for r in iter_members(s)) + "}"


def parse_set(text: str) -> RelationSet:
    """Inverse of `format_set`; raises KeyError on unknown relation names."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    if not body:
        return EMPTY_SET
    return rel_set(*(Relation[name.strip()] for name in body.split(",")))


# Frozen output of exhaustive enumeration over intervals with endpoints in
# [0, 8] (tests/oracles.py `compose_table_bruteforce`).  Cell [r1][r2] holds
# every relation r such that A r1 B and B r2 C admit A r C.
COMPOSITION_TABLE: tuple[tuple[int, ...], ...] = (
    (1, 8191, 1, 341, 1, 341, 1, 1, 341, 1, 341, 1, 1),
    (8191, 2, 1322, 2, 1322, 2, 1322, 2, 1322, 2, 2, 2, 2),
    (1, 682, 1, 7168, 1, 336, 4, 2052, 336, 1, 336, 1, 4),
    (2581, 2, 4288, 2, 1312, 2, 1312, 2, 1312, 2, 8, 136, 8),
    (1, 682, 1, 672, 21, 8176, 16, 2576, 336, 2581, 336, 21, 16),
    (2581, 2, 2576, 2, 8176, 42, 1312, 42, 1312, 682, 32, 672, 32),
    (1, 2, 1, 1032, 21, 1312, 64, 4288, 256, 2581, 256, 21, 64),
    (2581, 2, 2576, 8, 2576, 32, 4288, 128, 1312, 512, 40, 512, 128),
    (1, 2, 1, 2, 341, 1322, 256, 1322, 256, 8191, 256, 341, 256),
    (2581, 682, 2576, 672, 2576, 672, 2576, 512, 8176, 512, 672, 512, 512),
    (1, 2, 68, 2, 336, 42, 256, 42, 256, 682, 1024, 7168, 1024),
    (1, 682, 4, 672, 16, 672, 20, 512, 336, 512, 7168, 2048, 2048),
    (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
)


def _sign_table() -> np.ndarray:
    """`classify`'s answer per `_sign_codes` value.

    Four endpoints take at most four distinct values, so the 100 pairs of
    intervals with endpoints in [0, 3] show every sign pattern two valid
    intervals can; the other entries stay -1 and are never read.
    """
    grid = [SimpleNamespace(start=s, end=e) for s in range(4) for e in range(s, 4)]
    starts = np.array([b.start for b in grid])
    ends = np.array([b.end for b in grid])
    # `a` as a column: one call codes all 100 pairs
    every_a = SimpleNamespace(start=starts[:, None], end=ends[:, None])
    table = np.full(81, -1, dtype=np.int8)
    table[_sign_codes(every_a, starts, ends)] = [[classify(a, b) for b in grid] for a in grid]
    return table


# built here, not on first use: a tracer installed later counts every
# `classify` call
_SIGN_TABLE = _sign_table()
