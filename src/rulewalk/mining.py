"""Rule mining: aggregate walk traces into ranked temporal rules.

Two variants share one walk pass.  The plain variant keeps the relational
chains and leaves every temporal cell unconstrained; the path-consistency
variant generalizes the constraint network of each rule signature across
all its positive occurrences (a cellwise union, closed as it stands).
Rules are ranked by occurrence count with ties broken by signature.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import constraints
from .evaluation import CLASSIFICATION
from .rules import TemporalRule, coverage_filter, trace_to_rule
from .walk import WalkDiagnostics, WalkParams, derive_seed, sample_walks

MODE_RELATIONAL = "relational"
MODE_TEMPORAL = "temporal"
MODES = (MODE_RELATIONAL, MODE_TEMPORAL)


@dataclass
class MiningParams(WalkParams):
    rho: float = 1.0  # classification mode: time-span coverage threshold

    def __post_init__(self) -> None:
        super().__post_init__()
        # checked here, since a pruned rule never reaches `coverage_filter`'s check
        if not 0 < self.rho <= 1:
            raise ValueError("rho must lie in (0, 1]")


@dataclass
class MiningDiagnostics:
    walk: WalkDiagnostics = field(default_factory=WalkDiagnostics)
    disconnected: int = 0
    coverage_filtered: int = 0


def mine_rules(
    graphs: list,
    query_set,
    params: MiningParams,
    mode: str = MODE_TEMPORAL,
    diagnostics: MiningDiagnostics | None = None,
) -> list[TemporalRule]:
    """Mine ranked rules from the positive queries of a query set.

    Walks are seeded per query from params.seed, so both modes produce
    identical relational rules for the same seed; the plain mode simply
    widens every temporal cell afterwards.  In classification mode a rule
    must pass the time-span coverage filter on every positive graph.  A
    lift with a body atom whose shape some positive graph lacks would fail
    it, so its signature is counted as filtered before any network is
    built for it.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mining mode {mode!r}")
    diag = diagnostics if diagnostics is not None else MiningDiagnostics()
    positive_graphs = sorted({q.graph_index for q in query_set.positives})
    shapes = None
    if query_set.mode == CLASSIFICATION and positive_graphs:
        # the shapes of events in every positive graph: a body atom of
        # another shape has no candidate event in some graph, so the rule
        # has no grounding there and fails the coverage filter
        shapes = set.intersection(*(set(graphs[g].shape_index) for g in positive_graphs))

    aggregated: dict[str, TemporalRule] = {}
    pruned: set[str] = set()
    for qi, query in enumerate(query_set.positives):
        graph = graphs[query.graph_index]
        wparams = replace(params, seed=derive_seed(params.seed, "query", qi))
        # lifting a trace once stands for all its walks: union is idempotent
        for trace, walks in sample_walks(graph, query, wparams, diag.walk):
            lift = trace_to_rule(graph, trace, query)
            if lift is None:
                diag.disconnected += walks
                continue
            known = aggregated.get(lift.signature)
            if known is not None:
                known.support += walks
                known.time_net = constraints.generalize(known.time_net, lift.network())
            elif shapes is None or all(a.shape in shapes for a in lift.body):
                rule = lift.rule()
                rule.support = walks
                aggregated[lift.signature] = rule
            else:
                pruned.add(lift.signature)

    rules = list(aggregated.values())
    if mode == MODE_RELATIONAL:
        for rule in rules:
            rule.time_net = constraints.IANetwork(rule.time_net.keys)

    if shapes is not None:
        diag.coverage_filtered += len(pruned)
        rules = _apply_coverage(rules, graphs, positive_graphs, params.rho, diag)

    rules.sort(key=lambda r: (-r.support, r.signature))
    return rules


def _apply_coverage(rules, graphs, positive_graphs, rho, diag):
    kept = []
    for rule in rules:
        if all(coverage_filter(rule, graphs[g], rho) for g in positive_graphs):
            kept.append(rule)
        else:
            diag.coverage_filtered += 1
    return kept
