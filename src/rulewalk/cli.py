"""Command-line surface: gen, mine, train, eval, convert, inspect.

All randomness flows from --seed; identical invocations produce
byte-identical output files.  Exit codes: 0 success, 1 usage error,
2 data error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import dataio, evaluation, learner, mining
from .convert import clique_expand, temporal_kg_adapt, to_time_points
from .dataio import DataFormatError
from .hypergraph import GraphError
from .mining import MiningParams
from .rules import RuleError, format_rule, parse_rule
from .synthetic import GenerationError, SynthSpec, synth_generate


class UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser | None = None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self)


def _number(kind, test, expected):
    """An argparse `type=` for a finite `kind` value that passes `test`."""
    def parse(text):
        value = kind(text)  # a ValueError becomes argparse's "invalid ... value"
        if not (math.isfinite(value) and test(value)):
            raise argparse.ArgumentTypeError(f"{text} is not {expected}")
        return value
    parse.__name__ = kind.__name__
    return parse


_POSITIVE_INT = _number(int, lambda v: v >= 1, "an integer >= 1")
_NON_NEGATIVE_INT = _number(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = _number(float, lambda v: v > 0, "a number > 0")
_NON_NEGATIVE = _number(float, lambda v: v >= 0, "a number >= 0")
_FRACTION = _number(float, lambda v: 0 < v <= 1, "in (0, 1]")
_OPEN_FRACTION = _number(float, lambda v: 0 < v < 1, "in (0, 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rulewalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen",
                       help="generate a synthetic corpus from a planted rule file")
    p.add_argument("--rule", required=True, help="file holding one rule line")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--num-pos", type=_NON_NEGATIVE_INT, default=20)
    p.add_argument("--num-neg", type=_NON_NEGATIVE_INT, default=20)
    p.add_argument("--noise", type=_NON_NEGATIVE_INT, default=5)
    p.add_argument("--span", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    for name, helptext in (
        ("mine", "mine rules from the training split"),
        ("train", "mine rules and fit the linear rule scorer"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_task_arguments(p)
        p.add_argument("--mode", choices=list(mining.MODES),
                       default=mining.MODE_TEMPORAL)
        p.add_argument("--walks", type=_POSITIVE_INT, default=200)
        p.add_argument("--max-steps", type=_POSITIVE_INT, default=2)
        p.add_argument("--start-events", type=_POSITIVE_INT, default=3)
        p.add_argument("--rho", type=_FRACTION, default=1.0)
        p.add_argument("--out", required=True, help="rules output file")
        if name == "train":
            p.add_argument("--model-out", required=True)
            p.add_argument("--top-rules", type=_POSITIVE_INT, default=25)
            p.add_argument("--lr", type=_POSITIVE, default=0.1)
            p.add_argument("--epochs", type=_POSITIVE_INT, default=500)
            p.add_argument("--l2", type=_NON_NEGATIVE, default=1e-4)
            p.add_argument("--features", choices=["binary", "reach"],
                           default="binary")
            p.set_defaults(func=cmd_train)
        else:
            p.set_defaults(func=cmd_mine)

    p = sub.add_parser("eval",
                       help="rank the held-out positives and report metrics")
    _add_task_arguments(p)
    p.add_argument("--rules", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--features", choices=["binary", "reach"], default="binary")
    p.add_argument("--use", choices=["test", "all"], default="test")
    p.add_argument("--out", default=None, help="also write the JSON record here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("convert", help="graph conversions")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--clique-expand", action="store_true")
    p.add_argument("--time-points", action="store_true")
    p.add_argument("--from-tkg", action="store_true",
                   help="input is a snapshot file: 'tau | head | pred | tail' lines")
    p.add_argument("--split-multi-tail", action="store_true")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("inspect",
                       help="corpus statistics: predicate kinds, facts per graph")
    p.add_argument("--data", required=True)
    p.add_argument("--split-multi-tail", action="store_true")
    p.set_defaults(func=cmd_inspect)

    return parser


def _add_task_arguments(p) -> None:
    p.add_argument("--data", required=True,
                   help="corpus directory (classification) or one graph file")
    p.add_argument("--target-label", default=None)
    p.add_argument("--positive-predicates", default=None,
                   help="comma-separated predicate names (event task)")
    p.add_argument("--split-multi-tail", action="store_true")
    p.add_argument("--train-frac", type=_OPEN_FRACTION, default=0.8)
    p.add_argument("--seed", type=int, default=0)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        (exc.parser or parser).print_usage(sys.stderr)
        print(f"rulewalk: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as exc:
        (exc.parser or parser).print_usage(sys.stderr)
        print(f"rulewalk: error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, GraphError, RuleError, GenerationError,
            FileNotFoundError, NotADirectoryError) as exc:
        print(f"rulewalk: error: {exc}", file=sys.stderr)
        return 2


# -- commands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    rule = _load_rule_file(args.rule)
    spec = SynthSpec(
        planted_rule=rule,
        num_pos=args.num_pos,
        num_neg=args.num_neg,
        noise_events=args.noise,
        seed=args.seed,
        span=args.span,
    )
    graphs, labels = synth_generate(spec)
    dataio.save_corpus(args.out, graphs, labels)
    print(f"wrote {len(graphs)} graphs to {args.out} "
          f"({spec.num_pos} labeled {spec.label!r})")
    return 0


def _load_rule_file(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                return _parse_rule_line(path, lineno, line)
    raise DataFormatError(f"{path}: no rule line found")


def _parse_rule_line(path, lineno, line):
    try:
        return parse_rule(line)
    except RuleError as exc:
        raise RuleError(f"{path}:{lineno}: {exc}") from None


def _load_task(args):
    """Returns (graphs, full QuerySet) for either task flavor."""
    if os.path.isdir(args.data):
        graphs, labels = dataio.load_corpus(args.data, args.split_multi_tail)
        if args.target_label is None:
            raise UsageError("--target-label is required for a corpus directory")
        try:
            return graphs, evaluation.build_classification_queries(
                [l or "" for l in labels], args.target_label
            )
        except ValueError as exc:
            raise DataFormatError(str(exc)) from None
    graph, _ = dataio.load_graph(args.data, args.split_multi_tail)
    if not args.positive_predicates:
        raise UsageError("--positive-predicates is required for a single graph file")
    names = [n.strip() for n in args.positive_predicates.split(",") if n.strip()]
    try:
        return [graph], evaluation.build_event_queries(graph, names)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None


def _mine(args, graphs, query_set):
    train_set, _ = evaluation.split_queries(query_set, args.train_frac, args.seed)
    params = MiningParams(
        num_walks=args.walks,
        max_steps=args.max_steps,
        seed=args.seed,
        rho=args.rho,
        start_events=args.start_events,
    )
    diag = mining.MiningDiagnostics()
    rules = mining.mine_rules(graphs, train_set, params, args.mode, diag)
    return rules, train_set, diag


def cmd_mine(args) -> int:
    graphs, query_set = _load_task(args)
    rules, _, diag = _mine(args, graphs, query_set)
    _write_rules(args.out, rules)
    print(f"mined {len(rules)} rules -> {args.out}")
    # inconsistent= stays in the line for its readers; it is always 0, since
    # the graph's own intervals realise every walk's constraint network
    print(f"walks={diag.walk.walks} kept={diag.walk.kept} "
          f"dead_ends={diag.walk.dead_ends} inconsistent=0 "
          f"disconnected={diag.disconnected} coverage_filtered={diag.coverage_filtered}")
    return 0


def cmd_train(args) -> int:
    graphs, query_set = _load_task(args)
    rules, train_set, diag = _mine(args, graphs, query_set)
    rules = rules[: args.top_rules]
    _write_rules(args.out, rules)
    queries = list(train_set.positives) + list(train_set.negatives)
    labels = [1.0] * len(train_set.positives) + [0.0] * len(train_set.negatives)
    matrix = learner.build_features(rules, graphs, queries, labels,
                                    scorer=args.features)
    result = learner.train(matrix, lr=args.lr, epochs=args.epochs, l2=args.l2)
    learner.save_model(args.model_out, result.params, rules)
    print(f"mined {len(rules)} rules -> {args.out}")
    print(f"trained scorer on {len(queries)} queries "
          f"(final loss {result.losses[-1]:.6f}) -> {args.model_out}")
    return 0


def cmd_eval(args) -> int:
    graphs, query_set = _load_task(args)
    _, test_set = evaluation.split_queries(query_set, args.train_frac, args.seed)
    if args.use == "all":
        test_set = query_set
    if not test_set.positives:
        raise DataFormatError(
            f"no positive query left to rank in the {args.use} split "
            f"({len(query_set.positives)} positive in all); "
            "add positives or pass --use all"
        )
    rules = _read_rules(args.rules)
    params = _load_params(args.model, rules) if args.model is not None else None
    scores = evaluation.score_pools(rules, graphs, test_set, params, args.features)
    ranks = evaluation.ranked_evaluation(scores, test_set)
    record = evaluation.metrics_record(ranks, test_set.mode, args.seed)
    text = evaluation.format_metrics(record)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text.splitlines()[0] + "\n")
    return 0


def _load_params(path, rules):
    """Model weights in rule order; every rule must have one."""
    try:
        bias, weights = learner.load_model(path)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None
    for rule in rules:
        if rule.signature not in weights:
            raise DataFormatError(
                f"{path}: no weight for rule {rule.signature!r}; "
                "the model was trained on other rules"
            )
    return learner.ModelParams(np.array([weights[r.signature] for r in rules]), bias)


def cmd_convert(args) -> int:
    chosen = [args.clique_expand, args.time_points, args.from_tkg]
    if sum(chosen) != 1:
        raise UsageError(
            "pick exactly one of --clique-expand, --time-points, --from-tkg"
        )
    if args.from_tkg:
        graph = temporal_kg_adapt(_read_tkg(args.input))
        dataio.save_graph(graph, args.out)
    else:
        graph, label = dataio.load_graph(args.input, args.split_multi_tail)
        graph = clique_expand(graph) if args.clique_expand else to_time_points(graph)
        dataio.save_graph(graph, args.out, label)
    print(f"wrote {args.out}")
    return 0


def _read_tkg(path):
    snapshots: dict[int, list[tuple[str, str, str]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 4:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 'tau | head | pred | tail'"
                )
            try:
                tau = int(parts[0])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: bad time point {parts[0]!r}"
                ) from None
            snapshots.setdefault(tau, []).append((parts[1], parts[2], parts[3]))
    return [(tau, snapshots[tau]) for tau in sorted(snapshots)]


def cmd_inspect(args) -> int:
    if os.path.isdir(args.data):
        graphs, _ = dataio.load_corpus(args.data, args.split_multi_tail)
    else:
        graphs = [dataio.load_graph(args.data, args.split_multi_tail)[0]]

    kinds = {"unary": {}, "binary": {}, "n-ary": {}}
    total_events = 0
    for graph in graphs:
        total_events += len(graph)
        shapes: dict[str, list] = {}
        for event in graph.events:
            pred, heads, tails = graph.event_names(event.event_id)
            shapes.setdefault(pred, []).append((heads, tails))
        for pred, occurrences in shapes.items():
            if all(h == t and len(h) == 1 for h, t in occurrences):
                kind = "unary"
            elif max(len(h) for h, _ in occurrences) > 1:
                kind = "n-ary"
            else:
                kind = "binary"
            kinds[kind][pred] = kinds[kind].get(pred, 0) + len(occurrences)

    print(f"graphs: {len(graphs)}")
    print(f"events: {total_events} total, "
          f"{total_events / len(graphs):.1f} per graph")
    print("predicates by kind:")
    for kind in ("unary", "binary", "n-ary"):
        preds = kinds[kind]
        examples = ", ".join(sorted(preds)[:3]) if preds else "-"
        print(f"  {kind:<7} {len(preds):>4} predicates "
              f"{sum(preds.values()):>6} facts   e.g. {examples}")
    intervals = [
        (e.interval.start, e.interval.end) for g in graphs for e in g.events
    ]
    degenerate = sum(1 for s, e in intervals if s == e)
    print(f"intervals: {degenerate}/{len(intervals)} degenerate points")
    return 0


def _write_rules(path, rules) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rule in rules:
            fh.write(f"# support={rule.support}\n")
            fh.write(format_rule(rule) + "\n")


def _read_rules(path):
    rules = []
    support = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line.startswith("# support="):
                try:
                    support = int(line[len("# support="):])
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: support is not an integer: {line!r}"
                    ) from None
                continue
            if not line or line.startswith("#"):
                continue
            rule = _parse_rule_line(path, lineno, line)
            rule.support = support
            support = 0
            rules.append(rule)
    return rules


if __name__ == "__main__":
    sys.exit(main())
