"""Query sets, ranking metrics, splits, and end-to-end scoring helpers.

Classification queries label whole graphs (one-vs-rest per target label);
event queries partition a single graph's events by predicate.  Every
distinct query of the candidate pools is scored once; ranking then looks
the scores up, pool by pool.  Ranking uses mean-rank tie handling, so an
undiscriminating scorer lands in the middle of its pool instead of being
rewarded or punished by sort order.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from . import learner
from .dataio import DataFormatError
from .hypergraph import TemporalHypergraph
# `evaluate` is unused here but stays bound: the benchmark's tracer test
# (bench/tests/test_bench.py) checks that it is wrapped at this binding too.
from .rules import Query, evaluate  # noqa: F401
from .walk import derive_seed

CLASSIFICATION = "classification"
LINK_PREDICTION = "link_prediction"


@dataclass
class QuerySet:
    positives: list[Query]
    negatives: list[Query]
    mode: str = CLASSIFICATION

    def __post_init__(self) -> None:
        overlap = set(self.positives) & set(self.negatives)
        if overlap:
            raise ValueError(f"queries cannot be both positive and negative: {overlap}")


def build_classification_queries(labels: list[str], target_label: str) -> QuerySet:
    """One query per graph, positive when the graph carries the target label.

    A label set without positives or without negatives is a DataFormatError.
    """
    positives = []
    negatives = []
    for i, label in enumerate(labels):
        query = Query(target_label, graph_index=i)
        if label == target_label:
            positives.append(query)
        else:
            negatives.append(query)
    if not positives:
        raise DataFormatError(f"no graph is labeled {target_label!r}")
    if not negatives:
        raise DataFormatError(f"every graph is labeled {target_label!r}; nothing to rank")
    return QuerySet(positives, negatives, CLASSIFICATION)


def build_event_queries(
    graph: TemporalHypergraph, positive_predicates, negatives: bool = True
) -> QuerySet:
    """Partition a graph's events into positive and negative queries.

    With `negatives=False` the negatives are left out; `split_queries` cuts
    positives under their own sub-seed, so their split is the same.  A
    positive predicate the graph lacks is a DataFormatError naming the first
    such one given, and so is a graph whose every event is positive, unless
    `negatives=False`.
    """
    for name in positive_predicates:
        if name not in graph.predicates:
            raise DataFormatError(f"predicate {name!r} not present in the graph")
    positive_predicates = set(positive_predicates)
    positives: list[Query] = []
    others: list[Query] = []
    for event in graph.events:
        if event.predicate in positive_predicates:
            bucket = positives
        elif negatives:
            bucket = others
        else:
            continue
        bucket.append(Query(event.predicate, event.heads, event.tails, event_id=event.event_id))
    if negatives and not others:
        raise DataFormatError(
            f"every event's predicate is positive ({', '.join(sorted(positive_predicates))}); "
            "nothing to rank"
        )
    return QuerySet(positives, others, LINK_PREDICTION)


# -- metrics -----------------------------------------------------------------


def mrr(ranks) -> float:
    """Mean reciprocal rank; ranks are 1-based (fractional ties allowed)."""
    ranks = list(ranks)
    if not ranks:
        raise ValueError("mrr of an empty rank list")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be >= 1")
    return sum(1.0 / r for r in ranks) / len(ranks)


def hits_at_k(ranks, k: int) -> float:
    """Percentage of queries ranked within the top k."""
    ranks = list(ranks)
    if not ranks:
        raise ValueError("hits@k of an empty rank list")
    return 100.0 * sum(1 for r in ranks if r <= k) / len(ranks)


def rank_with_ties(scores, true_index: int) -> float:
    """1-based rank under descending score; ties take their block's mean rank."""
    true_score = scores[true_index]
    higher = sum(1 for s in scores if s > true_score)
    tied = sum(1 for s in scores if s == true_score)
    return higher + (tied + 1) / 2.0


# -- splits ------------------------------------------------------------------


def split_queries(
    query_set: QuerySet, train_frac: float = 0.8, seed: int = 0
) -> tuple[QuerySet, QuerySet]:
    """Seeded shuffle split; negatives split proportionally to positives."""
    if not 0 < train_frac < 1:
        raise ValueError("train_frac must lie in (0, 1)")

    def cut(queries, tag):
        items = list(queries)
        random.Random(derive_seed(seed, "split", tag)).shuffle(items)
        n_train = max(1, min(len(items) - 1, round(train_frac * len(items))))
        return items[:n_train], items[n_train:]

    pos_train, pos_test = cut(query_set.positives, "pos")
    neg_train, neg_test = cut(query_set.negatives, "neg")
    return (
        QuerySet(pos_train, neg_train, query_set.mode),
        QuerySet(pos_test, neg_test, query_set.mode),
    )


# -- scoring -----------------------------------------------------------------


def candidate_pool(query: Query, test_set: QuerySet) -> list[Query]:
    """The true query plus the negatives with its head and tail arity.

    A classification query names no entity, and neither does any negative
    graph's query, so its pool holds every negative.
    """
    return [query] + [
        n
        for n in test_set.negatives
        if len(n.heads) == len(query.heads) and len(n.tails) == len(query.tails)
    ]


def pool_queries(test_set: QuerySet) -> list[Query]:
    """Distinct queries over every positive's candidate pool, first seen first."""
    seen: dict[Query, None] = {}
    for query in test_set.positives:
        seen.update(dict.fromkeys(candidate_pool(query, test_set)))
    return list(seen)


def score_pools(
    rules, graphs, test_set: QuerySet, params=None, features: str = "binary"
) -> dict[Query, float]:
    """One score per distinct pool query, from a single feature build.

    With `params`: the logistic model score of the query's feature row.
    Without: the untrained baseline, the top rule's support times its 0/1
    match feature (0 everywhere when there is no rule).
    """
    queries = pool_queries(test_set)
    if params is None:
        rules, features = rules[:1], "binary"
    matrix = learner.build_features(
        rules, graphs, queries, [0.0] * len(queries), scorer=features
    )
    if params is None:
        values = matrix.features @ np.array([r.support for r in rules], dtype=float)
    else:
        values = learner.scores(matrix.features, params)
    return dict(zip(queries, values.tolist()))


def ranked_evaluation(scores: dict[Query, float], test_set: QuerySet) -> list[float]:
    """Rank every positive test query within its candidate pool by its score."""
    ranks = []
    for query in test_set.positives:
        try:
            pool_scores = [scores[q] for q in candidate_pool(query, test_set)]
        except KeyError as exc:
            raise ValueError(f"no score for pool query {exc.args[0]!r}") from None
        ranks.append(rank_with_ties(pool_scores, 0))
    return ranks


# -- reporting ---------------------------------------------------------------


def metrics_record(ranks, mode: str, seed: int) -> dict:
    return {
        "mrr": mrr(ranks),
        "hits@3": hits_at_k(ranks, 3),
        "hits@10": hits_at_k(ranks, 10),
        "n_queries": len(ranks),
        "mode": mode,
        "seed": seed,
    }


def format_metrics(record: dict) -> str:
    """Machine-readable JSON line followed by a small human table."""
    line = json.dumps(record, sort_keys=True)
    table = (
        f"{'metric':<12}{'value':>12}\n"
        f"{'mrr':<12}{record['mrr']:>12.4f}\n"
        f"{'hits@3':<12}{record['hits@3']:>12.2f}\n"
        f"{'hits@10':<12}{record['hits@10']:>12.2f}\n"
        f"{'n_queries':<12}{record['n_queries']:>12d}"
    )
    return line + "\n" + table
