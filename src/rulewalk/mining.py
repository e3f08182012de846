"""Rule mining: aggregate walk traces into ranked temporal rules.

Two variants share one walk pass.  The plain variant keeps the relational
chains and leaves every temporal cell unconstrained; the path-consistency
variant generalizes the constraint network of each rule signature across
all its positive occurrences (cellwise union, then closure).  Rules are
ranked by occurrence count with ties broken by signature.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import constraints
from .rules import TemporalRule, chain_connected, coverage_filter, trace_to_rule
from .walk import WalkDiagnostics, WalkParams, derive_seed, sample_walks

MODE_RELATIONAL = "relational"
MODE_TEMPORAL = "temporal"
MODES = (MODE_RELATIONAL, MODE_TEMPORAL)


@dataclass
class MiningParams:
    num_walks: int = 200
    max_steps: int = 2
    seed: int = 0
    rho: float = 1.0
    start_events: int = 3
    eval_budget: int = 1_000_000


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
    must pass the time-span coverage filter on every positive graph.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mining mode {mode!r}")
    diag = diagnostics if diagnostics is not None else MiningDiagnostics()

    aggregated: dict[str, TemporalRule] = {}
    for qi, query in enumerate(query_set.positives):
        graph = graphs[query.graph_index]
        wparams = WalkParams(
            max_steps=params.max_steps,
            num_walks=params.num_walks,
            seed=derive_seed(params.seed, "query", qi),
            start_events=params.start_events,
        )
        # trace -> signature of its rule, or None when the trace is
        # disconnected.  A trace fixes its network, so a repeated trace only
        # adds support: closure keeps every closed sub-network of its input,
        # so once a rule network has admitted a closed network B every later
        # one still contains B, and generalize(K, B) == K from then on.
        lifted: dict[tuple[int, ...], str | None] = {}
        for trace, net in sample_walks(graph, query, wparams, diag.walk):
            key = tuple(trace)
            if key in lifted:
                signature = lifted[key]
                if signature is None:
                    diag.disconnected += 1
                else:
                    aggregated[signature].support += 1
                continue
            if not chain_connected(graph, trace, query):
                lifted[key] = None
                diag.disconnected += 1
                continue
            rule = trace_to_rule(graph, trace, net, query)
            lifted[key] = rule.signature
            known = aggregated.get(rule.signature)
            if known is None:
                rule.support = 1
                aggregated[rule.signature] = rule
            else:
                known.support += 1
                known.time_net = constraints.generalize(known.time_net, rule.time_net)

    rules = list(aggregated.values())
    if mode == MODE_RELATIONAL:
        for rule in rules:
            rule.time_net = constraints.IANetwork(rule.time_net.keys)

    if query_set.mode == "classification":
        rules = _apply_coverage(rules, graphs, query_set, params, diag)

    rules.sort(key=lambda r: (-r.support, r.signature))
    return rules


def _apply_coverage(rules, graphs, query_set, params, diag):
    positive_graphs = sorted({q.graph_index for q in query_set.positives})
    kept = []
    for rule in rules:
        if all(
            coverage_filter(rule, graphs[g], params.rho, budget=params.eval_budget)
            for g in positive_graphs
        ):
            kept.append(rule)
        else:
            diag.coverage_filtered += 1
    return kept
