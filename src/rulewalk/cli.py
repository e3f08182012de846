"""Command-line surface: gen, mine, train, eval, convert, inspect.

All randomness flows from --seed; identical invocations produce
byte-identical output files.  Exit codes: 0 success, 1 usage error,
2 data error.

`main` runs each command with the cyclic garbage collector paused.  A
command makes no reference cycles, so a collection would free nothing; but
the `Event` and `Interval` tuples of its graphs stay tracked, and each
collection would rescan them all.
"""
from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import sys
from contextlib import contextmanager

from . import dataio, evaluation, learner, mining
from .convert import clique_expand, temporal_kg_adapt, to_time_points
from .dataio import DataFormatError
from .hypergraph import GraphError
from .mining import MiningParams
from .rules import RuleError, read_rules, write_rules
from .synthetic import MAX_SPAN, GenerationError, SynthSpec, synth_generate


class UsageError(Exception):
    """A usage error; `parser` is the (sub)parser whose usage line it prints."""

    def __init__(self, message: str, parser: argparse.ArgumentParser):
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
_SPAN = _number(int, lambda v: 0 <= v <= MAX_SPAN, f"an integer in [0, {MAX_SPAN}]")


def _predicate(text):
    """An argparse `type=` for a predicate name a rule file can carry."""
    try:
        dataio.check_predicate(text, "bad value")
    except DataFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _names(text):
    """An argparse `type=` for a comma-separated list naming at least one name."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"{text!r} names no predicate")
    return names


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
    p.add_argument("--span", type=_SPAN, default=30,
                   help=f"interval endpoints lie in [0, SPAN]; at most {MAX_SPAN}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen, parser=p)

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
            p.set_defaults(func=cmd_train, parser=p)
        else:
            p.set_defaults(func=cmd_mine, parser=p)

    p = sub.add_parser("eval",
                       help="rank the held-out positives and report metrics")
    _add_task_arguments(p)
    p.add_argument("--rules", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--features", choices=["binary", "reach"], default="binary")
    p.add_argument("--out", default=None, help="also write the JSON record here")
    p.set_defaults(func=cmd_eval, parser=p)

    p = sub.add_parser("convert", help="graph conversions")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--clique-expand", action="store_true")
    p.add_argument("--time-points", action="store_true")
    p.add_argument("--from-tkg", action="store_true",
                   help="input is a snapshot file: 'tau | head | pred | tail' lines")
    p.add_argument("--split-multi-tail", action="store_true")
    p.set_defaults(func=cmd_convert, parser=p)

    p = sub.add_parser("inspect",
                       help="corpus statistics: predicate kinds, facts per graph")
    p.add_argument("--data", required=True)
    p.add_argument("--split-multi-tail", action="store_true")
    p.set_defaults(func=cmd_inspect)

    return parser


def _add_task_arguments(p) -> None:
    p.add_argument("--data", required=True,
                   help="corpus directory (classification) or one graph file")
    p.add_argument("--target-label", type=_predicate, default=None)
    p.add_argument("--positive-predicates", type=_names, default=None,
                   help="comma-separated predicate names (event task)")
    p.add_argument("--split-multi-tail", action="store_true")
    p.add_argument("--train-frac", type=_OPEN_FRACTION, default=0.8)
    p.add_argument("--seed", type=int, default=0)


@contextmanager
def gc_paused():
    """The cyclic garbage collector off for the `with` body, then as it was."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def main(argv=None) -> int:
    try:
        with gc_paused():
            code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader left early (`| head`), which is no error: every
        # command prints only after it has written its files.  Pointing
        # stdout at devnull keeps the exit-time flush from failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        raise  # a closed stdout, which `main` handles
    except UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"rulewalk: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except (DataFormatError, GraphError, RuleError, GenerationError, OSError) as exc:
        print(f"rulewalk: error: {exc}", file=sys.stderr)
        return 2


# -- commands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.num_pos == 0 and args.num_neg == 0:
        raise UsageError("--num-pos and --num-neg are both 0: the corpus would be empty",
                         args.parser)
    # load_corpus reads every .thg file, so new graphs beside old ones
    # would make a mixed corpus
    if os.path.isdir(args.out) and dataio.corpus_files(args.out):
        raise UsageError(f"{args.out} already holds .thg files; "
                         "gen writes into a new or empty directory", args.parser)
    rules = read_rules(args.rule)
    if not rules:
        raise DataFormatError(f"{args.rule}: no rule line found")
    if len(rules) > 1:
        raise DataFormatError(f"{args.rule}: {len(rules)} rule lines found; "
                              "gen plants exactly one rule")
    spec = SynthSpec(
        planted_rule=rules[0],
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


def _load_task(args, negatives: bool = True):
    """Returns (graphs, full QuerySet) for either task flavor.

    `negatives=False` leaves the event task's negatives out; classification
    keeps them, since a corpus without negative graphs is a data error.
    """
    if os.path.isdir(args.data):
        if args.target_label is None:
            raise UsageError("--target-label is required for a corpus directory", args.parser)
        graphs, labels = dataio.load_corpus(args.data, args.split_multi_tail)
        return graphs, evaluation.build_classification_queries(
            [l or "" for l in labels], args.target_label
        )
    if not args.positive_predicates:
        raise UsageError("--positive-predicates is required for a single graph file",
                         args.parser)
    graph, _ = dataio.load_graph(args.data, args.split_multi_tail)
    return [graph], evaluation.build_event_queries(
        graph, args.positive_predicates, negatives=negatives
    )


def _refuse_overwrite(args, outputs, inputs) -> None:
    """A UsageError when an output option names the same file as another
    output or an input option: writing it would destroy that file."""
    for i, dest in enumerate(outputs):
        for other in (*outputs[i + 1:], *inputs):
            path, other_path = getattr(args, dest), getattr(args, other)
            if path is not None and other_path is not None and _same_file(path, other_path):
                raise UsageError(
                    f"--{dest.replace('_', '-')} and --{other.replace('_', '-')} "
                    f"name the same file {path}", args.parser
                )


def _same_file(a, b) -> bool:
    """True iff paths `a` and `b` name one file, whether or not it exists."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)  # a hard link
    except OSError:
        return False


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
    _refuse_overwrite(args, ("out",), ("data",))
    # mining walks only the train positives
    graphs, query_set = _load_task(args, negatives=False)
    rules, _, diag = _mine(args, graphs, query_set)
    write_rules(args.out, rules)
    print(f"mined {len(rules)} rules -> {args.out}")
    # inconsistent= stays in the line for its readers; it is always 0, since
    # the graph's own intervals realise every trace's constraint network
    print(f"walks={diag.walk.walks} kept={diag.walk.kept} "
          f"dead_ends={diag.walk.dead_ends} inconsistent=0 "
          f"disconnected={diag.disconnected} coverage_filtered={diag.coverage_filtered}")
    return 0


def cmd_train(args) -> int:
    _refuse_overwrite(args, ("out", "model_out"), ("data",))
    graphs, query_set = _load_task(args)
    rules, train_set, diag = _mine(args, graphs, query_set)
    if not rules:
        raise DataFormatError(
            f"no rule survived mining ({diag.walk.kept} of {diag.walk.walks} "
            f"walks kept, {diag.disconnected} disconnected, "
            f"{diag.coverage_filtered} rules coverage-filtered); "
            "nothing to train on"
        )
    rules = rules[: args.top_rules]
    queries = list(train_set.positives) + list(train_set.negatives)
    labels = [1.0] * len(train_set.positives) + [0.0] * len(train_set.negatives)
    matrix = learner.build_features(rules, graphs, queries, labels,
                                    scorer=args.features)
    try:
        result = learner.train(matrix, lr=args.lr, epochs=args.epochs, l2=args.l2)
    except FloatingPointError as exc:
        raise DataFormatError(f"the fit diverged: {exc}; lower --lr") from None
    _write_all([
        (args.out, lambda path: write_rules(path, rules)),
        (args.model_out, lambda path: learner.save_model(path, result.params, rules)),
    ])
    print(f"mined {len(rules)} rules -> {args.out}")
    print(f"trained scorer on {len(queries)} queries "
          f"(final loss {result.losses[-1]:.6f}) -> {args.model_out}")
    return 0


def cmd_eval(args) -> int:
    _refuse_overwrite(args, ("out",), ("rules", "model", "data"))
    graphs, query_set = _load_task(args)
    _, test_set = evaluation.split_queries(query_set, args.train_frac, args.seed)
    if not test_set.positives:
        raise DataFormatError(
            "no positive query left to rank in the test split "
            f"({len(query_set.positives)} positive in all); add positives"
        )
    alone = sum(len(evaluation.candidate_pool(q, test_set)) == 1 for q in test_set.positives)
    if alone:
        raise DataFormatError(
            f"{alone} of {len(test_set.positives)} test positives have no negative query "
            f"to rank against in the test split ({len(query_set.negatives)} negative "
            "in all); add negatives"
        )
    rules = read_rules(args.rules)
    if not rules:
        # with no rule every candidate ties, which would score as a number
        raise DataFormatError(f"{args.rules}: no rule line found; nothing to score with")
    targets = {q.predicate for q in query_set.positives}
    # a head of another shape grounds no query, so every candidate would tie
    shapes = {(q.predicate, len(q.heads), len(q.tails)) for q in query_set.positives}
    for rule in rules:
        if rule.head.predicate not in targets:
            raise DataFormatError(
                f"{args.rules}: rule {rule.signature} predicts {rule.head.predicate!r}, "
                f"not this task's {', '.join(map(repr, sorted(targets)))}"
            )
        if rule.head.shape not in shapes:
            predicate, heads, tails = rule.head.shape
            raise DataFormatError(
                f"{args.rules}: rule {rule.signature} can ground no query: its head atom "
                f"has {heads} head and {tails} tail variables, and no {predicate!r} query "
                "of this task has as many heads and tails"
            )
    params = learner.load_model(args.model, rules) if args.model is not None else None
    scores = evaluation.score_pools(rules, graphs, test_set, params, args.features)
    ranks = evaluation.ranked_evaluation(scores, test_set)
    record = evaluation.metrics_record(ranks, test_set.mode, args.seed)
    text = evaluation.format_metrics(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text.splitlines()[0] + "\n")
    print(text)
    return 0


def cmd_convert(args) -> int:
    chosen = [args.clique_expand, args.time_points, args.from_tkg]
    if sum(chosen) != 1:
        raise UsageError(
            "pick exactly one of --clique-expand, --time-points, --from-tkg", args.parser
        )
    if args.from_tkg:
        graph = temporal_kg_adapt(dataio.load_snapshots(args.input))
        dataio.save_graph(graph, args.out)
    else:
        graph, label = dataio.load_graph(args.input, args.split_multi_tail)
        graph = clique_expand(graph) if args.clique_expand else to_time_points(graph)
        dataio.save_graph(graph, args.out, label)
    print(f"wrote {args.out}")
    return 0


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
            shapes.setdefault(event.predicate, []).append((event.heads, event.tails))
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
    degenerate = sum(e.interval.start == e.interval.end for g in graphs for e in g.events)
    print(f"intervals: {degenerate}/{total_events} degenerate points")
    return 0


def _write_all(outputs) -> None:
    """Run each `(path, write)` pair's `write` on a sibling of `path`, then
    move every sibling into place: an output that cannot be written leaves
    every path as it was."""
    staged = []
    try:
        for i, (path, write) in enumerate(outputs):
            # os.replace cannot move a file onto a directory, so refuse one
            # before any output is moved into place
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            staged.append((f"{path}.{i}.tmp", path))
            write(staged[-1][0])
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)


if __name__ == "__main__":
    sys.exit(main())
