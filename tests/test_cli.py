"""CLI surface: subcommands, exit codes, end-to-end determinism."""
import filecmp
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rulewalk.cli import build_parser, main
from rulewalk.dataio import load_corpus, load_graph
from rulewalk.evaluation import build_event_queries, score_pools, split_queries
from rulewalk.hypergraph import TemporalHypergraph
from rulewalk.learner import load_model
from rulewalk.rules import parse_rule, read_rules
from rulewalk.synthetic import MAX_SPAN

PLANTED = "w=0.0 Target() <- A(X0->X1) , B(X1->X2) | 0 {BEFORE} 1\n"


@pytest.fixture()
def rule_file(tmp_path):
    path = tmp_path / "planted.rule"
    path.write_text("# planted rule\n" + PLANTED)
    return str(path)


def run_pipeline(base, rule_file, seed=7, walks=120):
    corpus = str(base / "corpus")
    rules = str(base / "rules.txt")
    model = str(base / "model.txt")
    metrics = str(base / "metrics.json")
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "8", "--num-neg", "8", "--noise", "4",
                 "--seed", str(seed)]) == 0
    assert main(["train", "--data", corpus, "--target-label", "Target",
                 "--walks", str(walks), "--max-steps", "2",
                 "--seed", str(seed), "--out", rules,
                 "--model-out", model]) == 0
    assert main(["eval", "--data", corpus, "--target-label", "Target",
                 "--rules", rules, "--model", model,
                 "--seed", str(seed), "--out", metrics]) == 0
    return corpus, rules, model, metrics


def test_gen_writes_labeled_corpus(tmp_path, rule_file):
    corpus = tmp_path / "corpus"
    assert main(["gen", "--rule", rule_file, "--out", str(corpus),
                 "--num-pos", "3", "--num-neg", "2", "--noise", "3",
                 "--seed", "1"]) == 0
    graphs, labels = load_corpus(str(corpus))
    assert len(graphs) == 5
    assert labels.count("Target") == 3


def test_full_pipeline_and_determinism(tmp_path, rule_file):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    files_a = run_pipeline(a, rule_file)
    files_b = run_pipeline(b, rule_file)
    corpus_a, corpus_b = files_a[0], files_b[0]
    for name in sorted(os.listdir(corpus_a)):
        assert filecmp.cmp(
            os.path.join(corpus_a, name), os.path.join(corpus_b, name), shallow=False
        )
    for fa, fb in zip(files_a[1:], files_b[1:]):
        assert Path(fa).read_bytes() == Path(fb).read_bytes()
    record = json.loads(Path(files_a[3]).read_text())
    assert set(record) >= {"mrr", "hits@3", "hits@10", "n_queries", "mode", "seed"}


def test_eval_without_model_uses_counts(tmp_path, rule_file, capsys):
    corpus, rules, _, _ = run_pipeline(tmp_path, rule_file)
    capsys.readouterr()  # drain pipeline chatter
    assert main(["eval", "--data", corpus, "--target-label", "Target",
                 "--rules", rules, "--seed", "7"]) == 0
    out = capsys.readouterr().out
    record = json.loads(out.splitlines()[0])
    assert record["mode"] == "classification"
    assert "mrr" in out


def test_mine_writes_rules(tmp_path, rule_file):
    corpus = str(tmp_path / "corpus")
    rules = str(tmp_path / "rules.txt")
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "6", "--num-neg", "6", "--noise", "3",
                 "--seed", "3"]) == 0
    assert main(["mine", "--data", corpus, "--target-label", "Target",
                 "--walks", "100", "--max-steps", "2", "--seed", "3",
                 "--out", rules]) == 0
    lines = [l for l in Path(rules).read_text().splitlines() if l.startswith("w=")]
    assert lines
    assert any("A(X0->X1) , B(X1->X2)" in l for l in lines)


def test_unknown_flag_exits_1(capsys):
    assert main(["mine", "--no-such-flag"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_unknown_command_exits_1():
    assert main(["frobnicate"]) == 1


def test_missing_file_exits_2(tmp_path):
    assert main(["inspect", "--data", str(tmp_path / "nope.thg")]) == 2


def test_malformed_graph_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.thg"
    bad.write_text("#thg v1\nBad | | x | 1 2\n")
    assert main(["inspect", "--data", str(bad)]) == 2
    assert "bad.thg:2" in capsys.readouterr().err


def test_a_second_label_line_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.thg"
    bad.write_text("#thg v1\n#label A\n#label B\nPut | a | b | 1 2\n")
    assert main(["inspect", "--data", str(bad)]) == 2
    assert "bad.thg:3: a second #label line" in capsys.readouterr().err


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_convert_time_points(tmp_path):
    src = tmp_path / "g.thg"
    src.write_text("#thg v1\n#label L\nPut | a | b | 3 5\n")
    out = str(tmp_path / "points.thg")
    assert main(["convert", "--in", str(src), "--out", out,
                 "--time-points"]) == 0
    graph, label = load_graph(out)
    assert label == "L"
    assert (graph.events[0].interval.start, graph.events[0].interval.end) == (3, 3)


def test_convert_clique_expand(tmp_path):
    src = tmp_path / "g.thg"
    src.write_text("#thg v1\nMix | a,b | c,d | 1 2\n")
    out = str(tmp_path / "expanded.thg")
    assert main(["convert", "--in", str(src), "--out", out,
                 "--clique-expand", "--split-multi-tail"]) == 0
    graph, _ = load_graph(out)
    assert len(graph) == 4


def test_convert_needs_exactly_one_mode(tmp_path):
    src = tmp_path / "g.thg"
    src.write_text("#thg v1\nPut | a | b | 3 5\n")
    assert main(["convert", "--in", str(src), "--out",
                 str(tmp_path / "o.thg")]) == 1


def test_convert_from_tkg(tmp_path):
    src = tmp_path / "toy.tkg"
    src.write_text(
        "1 | alice | likes | bob\n"
        "2 | alice | likes | carol\n"
    )
    out = str(tmp_path / "kg.thg")
    assert main(["convert", "--in", str(src), "--out", out, "--from-tkg"]) == 0
    graph, _ = load_graph(out)
    names = [graph.event_names(i) for i in range(len(graph))]
    assert ("IsSameEnt", ("alice@1",), ("alice@2",)) in names


@pytest.mark.parametrize("line, message", [
    ("2 | | p | b", "empty name"),
    ("2 | a | | b", "empty name"),
    ("2 | a | p | ", "empty name"),
    ("2 | a,c | p | b", "reserved character ',' in 'a,c'"),
    ("2 | a | p\tq | b", "reserved character '\\t' in 'p\\tq'"),
    ("2 | a | p q | b",
     "predicate 'p q' holds whitespace or one of '();', which a rule file cannot carry"),
    # written out, the event's line would begin with '#' and load as a comment
    ("2 | a | #likes | b",
     "predicate '#likes' begins with '#', which makes its graph file line a comment"),
])
def test_convert_from_tkg_rejects_a_bad_name_at_its_line(tmp_path, capsys, line, message):
    src = tmp_path / "bad.tkg"
    src.write_text("1 | alice | likes | bob\n" + line + "\n")
    out = tmp_path / "kg.thg"
    assert main(["convert", "--in", str(src), "--out", str(out), "--from-tkg"]) == 2
    err = capsys.readouterr().err
    assert f"{src}:2: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_inspect_reports_predicate_kinds(tmp_path, capsys):
    src = tmp_path / "g.thg"
    src.write_text(
        "#thg v1\n"
        "Oil | a | a | 0 9\n"
        "Put | a | b | 1 2\n"
        "Mix | a,b | c | 3 4\n"
    )
    assert main(["inspect", "--data", str(src)]) == 0
    out = capsys.readouterr().out
    assert "unary" in out and "binary" in out and "n-ary" in out
    assert "graphs: 1" in out


def test_corpus_without_target_label_is_usage_error(tmp_path, rule_file, capsys):
    corpus = str(tmp_path / "corpus")
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "2", "--num-neg", "2", "--noise", "1",
                 "--seed", "1"]) == 0
    assert main(["mine", "--data", corpus, "--walks", "10",
                 "--out", str(tmp_path / "r.txt")]) == 1
    assert "target-label" in capsys.readouterr().err


def test_eval_with_empty_test_split_exits_2(tmp_path, rule_file, capsys):
    corpus = str(tmp_path / "corpus")
    rules = str(tmp_path / "rules.txt")
    model = str(tmp_path / "model.txt")
    task = ["--data", corpus, "--target-label", "Target", "--seed", "2"]
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "1", "--num-neg", "3", "--noise", "2",
                 "--seed", "2"]) == 0
    assert main(["train", *task, "--walks", "30", "--out", rules,
                 "--model-out", model]) == 0
    capsys.readouterr()
    assert main(["eval", *task, "--rules", rules, "--model", model]) == 2
    err = capsys.readouterr().err
    assert "no positive query" in err
    assert err.rstrip().endswith("; add positives")
    assert "Traceback" not in err


def _alternating_event_graph(path):
    # CI's ten-event graph: A and B events alternate on one entity pair
    path.write_text("#thg v1\n" + "".join(
        f"A | x | y | {t} {t + 1}\nB | x | y | {t + 2} {t + 3}\n" for t in range(0, 20, 4)
    ))


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("rulewalk: error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("task", ["classification", "event"])
def test_eval_with_no_negative_left_to_rank_exits_2(tmp_path, rule_file, capsys, task):
    metrics = tmp_path / "metrics.json"
    rules = tmp_path / "rules.txt"
    if task == "classification":
        # split_queries keeps the one negative graph in train
        corpus = str(tmp_path / "corpus")
        assert main(["gen", "--rule", rule_file, "--out", corpus,
                     "--num-pos", "4", "--num-neg", "1", "--seed", "1"]) == 0
        args = ["--data", corpus, "--target-label", "Target"]
        assert main(["mine", *args, "--walks", "30", "--out", str(rules)]) == 0
        expected = "1 of 1 test positives have no negative query"
    else:
        # every negative has one head, so each two-head positive's pool
        # holds the positive alone
        graph = tmp_path / "events.thg"
        graph.write_text("#thg v1\n" + "".join(
            f"M | a,b | c | {t} {t + 1}\nB | a | c | {t + 2} {t + 3}\n"
            for t in range(0, 40, 4)
        ))
        args = ["--data", str(graph), "--positive-predicates", "M"]
        rules.write_text("w=0.0 M(X0,X1->X2) <- B(X0->X2)\n")
        expected = "2 of 2 test positives have no negative query"
    capsys.readouterr()
    assert main(["eval", *args, "--rules", str(rules), "--out", str(metrics)]) == 2
    err = _one_error_line(capsys)
    assert expected in err and err.rstrip().endswith("; add negatives")
    assert not metrics.exists()


def test_an_event_task_whose_every_event_is_positive_exits_2(tmp_path, capsys):
    graph = tmp_path / "events.thg"
    _alternating_event_graph(graph)
    task = ["--data", str(graph), "--positive-predicates", "A,B", "--seed", "1"]
    mined, rules, model = (tmp_path / n for n in ("mined.txt", "rules.txt", "model.txt"))
    # mine walks only the positives, so it has what it needs
    assert main(["mine", *task, "--walks", "20", "--out", str(mined)]) == 0
    capsys.readouterr()
    assert main(["train", *task, "--walks", "20", "--out", str(rules),
                 "--model-out", str(model)]) == 2
    message = "every event's predicate is positive (A, B); nothing to rank"
    assert message in _one_error_line(capsys)
    assert not rules.exists() and not model.exists()
    metrics = tmp_path / "metrics.json"
    assert main(["eval", *task, "--rules", str(mined), "--out", str(metrics)]) == 2
    assert message in _one_error_line(capsys)
    assert not metrics.exists()


@pytest.mark.parametrize("task", ["classification", "event"])
def test_eval_with_rules_mined_for_another_task_exits_2(tmp_path, rule_file, capsys, task):
    rules, metrics = tmp_path / "rules.txt", tmp_path / "metrics.json"
    if task == "classification":
        corpus = str(tmp_path / "corpus")
        assert main(["gen", "--rule", rule_file, "--out", corpus,
                     "--num-pos", "8", "--num-neg", "8", "--seed", "1"]) == 0
        args = ["--data", corpus, "--target-label", "Target"]
        assert main(["mine", *args, "--walks", "30", "--out", str(rules)]) == 0
        rules.write_text(rules.read_text().replace("Target()", "Other()"))
        head, target = "Other", "Target"
    else:
        graph = tmp_path / "events.thg"
        _alternating_event_graph(graph)
        assert main(["mine", "--data", str(graph), "--positive-predicates", "B",
                     "--walks", "20", "--seed", "1", "--out", str(rules)]) == 0
        args = ["--data", str(graph), "--positive-predicates", "A"]
        head, target = "B", "A"
    capsys.readouterr()
    assert main(["eval", *args, "--seed", "1", "--rules", str(rules),
                 "--out", str(metrics)]) == 2
    err = _one_error_line(capsys)
    assert f"error: {rules}: rule {head}(" in err
    assert err.endswith(f" predicts {head!r}, not this task's {target!r}\n")
    assert not metrics.exists()


@pytest.mark.parametrize("task", ["classification", "event"])
def test_eval_with_a_rule_whose_head_grounds_no_query_exits_2(tmp_path, rule_file, capsys,
                                                                task):
    # the head predicate is the task's, but its head and tail counts are
    # those of no query, so the rule grounds none and every candidate ties
    rules, metrics = tmp_path / "rules.txt", tmp_path / "metrics.json"
    if task == "classification":
        corpus = str(tmp_path / "corpus")
        assert main(["gen", "--rule", rule_file, "--out", corpus,
                     "--num-pos", "8", "--num-neg", "8", "--seed", "1"]) == 0
        args = ["--data", corpus, "--target-label", "Target"]
        signature, shape = "Target(X0->X1) <- A(X0->X1)", "1 head and 1 tail variables"
    else:
        graph = tmp_path / "events.thg"
        _alternating_event_graph(graph)
        args = ["--data", str(graph), "--positive-predicates", "B"]
        signature, shape = "B() <- A(X0->X1)", "0 head and 0 tail variables"
    rules.write_text(f"# support=3\nw=0.0 {signature}\n")
    capsys.readouterr()
    assert main(["eval", *args, "--seed", "1", "--rules", str(rules),
                 "--out", str(metrics)]) == 2
    err = _one_error_line(capsys)
    assert err.startswith(f"rulewalk: error: {rules}: rule {signature} can ground no query: ")
    assert f"its head atom has {shape}, and no {signature.split('(')[0]!r} query" in err
    assert not metrics.exists()


def test_train_with_no_surviving_rule_exits_2(tmp_path, rule_file, capsys):
    corpus = str(tmp_path / "corpus")
    rules = tmp_path / "rules.txt"
    model = tmp_path / "model.txt"
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "4", "--num-neg", "4", "--seed", "0"]) == 0
    capsys.readouterr()
    # five-step walks in these small graphs yield no rule that passes
    # coverage; fitting a bias-only model would only hide that
    assert main(["train", "--data", corpus, "--target-label", "Target",
                 "--walks", "5", "--max-steps", "5", "--out", str(rules),
                 "--model-out", str(model)]) == 2
    err = capsys.readouterr().err
    assert "no rule survived mining" in err
    assert "Traceback" not in err
    assert not rules.exists() and not model.exists()


def test_train_with_a_diverging_fit_exits_2(tmp_path, rule_file, capsys):
    corpus = str(tmp_path / "corpus")
    rules = tmp_path / "rules.txt"
    model = tmp_path / "model.txt"
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "6", "--num-neg", "6", "--seed", "1"]) == 0
    capsys.readouterr()
    # the first step overflows the loss to inf
    assert main(["train", "--data", corpus, "--target-label", "Target",
                 "--lr", "1e300", "--epochs", "50", "--out", str(rules),
                 "--model-out", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rulewalk: error: the fit diverged: non-finite loss")
    assert err.count("\n") == 1 and "--lr" in err
    assert not rules.exists() and not model.exists()


@pytest.mark.parametrize("directory", ["rules", "model"])
def test_train_writes_neither_output_when_one_cannot_be_written(
        tmp_path, rule_file, capsys, directory):
    corpus = str(tmp_path / "corpus")
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "6", "--num-neg", "6", "--seed", "1"]) == 0
    outputs = {"rules": tmp_path / "rules.txt", "model": tmp_path / "model.txt"}
    outputs[directory].mkdir()
    other = outputs["model" if directory == "rules" else "rules"]
    other.write_text("from an earlier run\n")
    capsys.readouterr()
    assert main(["train", "--data", corpus, "--target-label", "Target",
                 "--walks", "20", "--out", str(outputs["rules"]),
                 "--model-out", str(outputs["model"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rulewalk: error: ") and "Traceback" not in err
    assert other.read_text() == "from an earlier run\n"
    assert outputs[directory].is_dir() and not any(outputs[directory].iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus", "model.txt", "planted.rule", "rules.txt"]


def _unreadable(tmp_path, kind):
    """A file that is not UTF-8, or a directory; as a corpus, one holding a directory."""
    if kind == "non-utf8":
        path = tmp_path / "latin1.thg"
        path.write_bytes("#thg v1\nPut | caf\xe9 | pan | 1 2\n".encode("latin-1"))
    else:
        path = tmp_path / "folder"
        (path / "inner.thg").mkdir(parents=True)
    return str(path)


def _write_corpus(corpus):
    corpus.mkdir()
    for i, label in enumerate(["Target", "Target", "Other", "Other"]):
        (corpus / f"g{i}.thg").write_text(f"#thg v1\n#label {label}\nA | a | b | 0 1\n")


_EITHER_TASK = ["--target-label", "Target", "--positive-predicates", "A"]
_CORPUS_TASK = ["--data", "corpus", "--target-label", "Target"]


@pytest.mark.parametrize("kind", ["non-utf8", "directory"])
@pytest.mark.parametrize("argv", [
    ["gen", "--rule", "{bad}", "--out", "out"],
    ["mine", "--data", "{bad}", *_EITHER_TASK, "--out", "r.txt"],
    ["train", "--data", "{bad}", *_EITHER_TASK, "--out", "r.txt", "--model-out", "m.txt"],
    ["eval", "--data", "{bad}", *_EITHER_TASK, "--rules", "rules.txt"],
    ["eval", *_CORPUS_TASK, "--rules", "{bad}"],
    ["eval", *_CORPUS_TASK, "--rules", "rules.txt", "--model", "{bad}"],
    ["convert", "--in", "{bad}", "--out", "g.thg", "--time-points"],
    ["convert", "--in", "{bad}", "--out", "g.thg", "--from-tkg"],
    ["inspect", "--data", "{bad}"],
], ids=["gen--rule", "mine--data", "train--data", "eval--data", "eval--rules",
         "eval--model", "convert--in", "convert--in--from-tkg", "inspect--data"])
def test_unreadable_input_file_exits_2(tmp_path, monkeypatch, capsys, argv, kind):
    monkeypatch.chdir(tmp_path)
    _write_corpus(tmp_path / "corpus")
    (tmp_path / "rules.txt").write_text(PLANTED)
    bad = _unreadable(tmp_path, kind)
    assert main([bad if arg == "{bad}" else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "rulewalk: error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["gen", "--rule", "rule.txt", "--out", "rules.txt"],
    ["mine", *_CORPUS_TASK, "--walks", "5", "--out", "folder"],
    ["eval", *_CORPUS_TASK, "--rules", "rules.txt", "--out", "folder"],
    ["convert", "--in", "corpus/g0000.thg", "--out", "folder", "--time-points"],
], ids=lambda argv: f"{argv[0]}--out")
def test_unwritable_output_path_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    (tmp_path / "rule.txt").write_text(PLANTED)
    (tmp_path / "rules.txt").write_text(PLANTED)
    assert main(["gen", "--rule", "rule.txt", "--out", "corpus",
                 "--num-pos", "4", "--num-neg", "4", "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "rulewalk: error: " in err
    assert "Traceback" not in err


_LATIN1_LINE = "A | caf\xe9 | b | 0 1\n".encode("latin-1")


@pytest.mark.parametrize("bad, valid, argv", [
    # 2,000 valid lines put the bad one past the decoder's first chunk
    ("events.thg", "#thg v1\n" + "A | a | b | 0 1\n" * 2000,
     ["mine", "--data", "events.thg", "--positive-predicates", "A", "--out", "r.txt"]),
    ("corpus/g3.thg", "#thg v1\n#label Other\n",
     ["mine", *_CORPUS_TASK, "--out", "r.txt"]),
    ("planted.rule", "# planted rule\n",
     ["gen", "--rule", "planted.rule", "--out", "out"]),
    ("rules.txt", "# support=1\n" + PLANTED,
     ["eval", *_CORPUS_TASK, "--rules", "rules.txt"]),
    ("model.txt", "bias 0.5\n",
     ["eval", *_CORPUS_TASK, "--rules", "rules.txt", "--model", "model.txt"]),
    ("snapshots.txt", "0 | a | r | b\n",
     ["convert", "--from-tkg", "--in", "snapshots.txt", "--out", "g.thg"]),
], ids=["mine--data", "corpus-file", "gen--rule", "eval--rules", "eval--model",
        "convert--from-tkg--in"])
def test_a_decode_error_names_the_file_and_line(tmp_path, monkeypatch, capsys,
                                                bad, valid, argv):
    monkeypatch.chdir(tmp_path)
    _write_corpus(tmp_path / "corpus")
    (tmp_path / "rules.txt").write_text(PLANTED)
    (tmp_path / bad).write_bytes(valid.encode("utf-8") + _LATIN1_LINE)
    line = valid.count("\n") + 1
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"rulewalk: error: {bad}:{line}: not UTF-8 text (invalid continuation byte)\n"


def test_gen_into_a_directory_holding_graph_files_is_usage_error(tmp_path, rule_file, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()  # an existing empty directory is fine
    assert main(["gen", "--rule", rule_file, "--out", str(corpus),
                 "--num-pos", "10", "--num-neg", "10", "--seed", "1"]) == 0
    before = _corpus_digest(corpus)
    capsys.readouterr()
    assert main(["gen", "--rule", rule_file, "--out", str(corpus),
                 "--num-pos", "3", "--num-neg", "3", "--seed", "2"]) == 1
    err = capsys.readouterr().err
    assert f"rulewalk: error: {corpus} already holds .thg files" in err
    assert "Traceback" not in err
    assert _corpus_digest(corpus) == before


@pytest.mark.parametrize("argv", [
    ["gen", "--rule", "rule.txt", "--out", "new", "--num-pos", "0", "--num-neg", "0"],
    ["gen", "--rule", "rule.txt", "--out", "corpus"],
    ["mine", "--data", "corpus", "--out", "r.txt"],
    ["train", "--data", "corpus", "--out", "r.txt", "--model-out", "m.txt"],
    ["eval", "--data", "corpus", "--rules", "rule.txt"],
    # --target-label is checked before any graph file is read
    ["mine", "--data", "unreadable", "--out", "r.txt"],
    ["mine", "--data", "corpus/g0.thg", "--out", "r.txt"],
    ["convert", "--in", "corpus/g0.thg", "--out", "g.thg"],
    ["convert", "--in", "corpus/g0.thg", "--out", "g.thg", "--time-points",
     "--clique-expand"],
], ids=["gen-empty", "gen-into-corpus", "mine-corpus", "train-corpus", "eval-corpus",
        "mine-unreadable-corpus", "mine-graph", "convert-no-mode", "convert-two-modes"])
def test_a_usage_error_in_a_command_prints_its_usage(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rule.txt").write_text(PLANTED)
    _write_corpus(tmp_path / "corpus")
    (tmp_path / "unreadable").mkdir()
    (tmp_path / "unreadable" / "g0.thg").write_bytes(_LATIN1_LINE)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith(f"usage: rulewalk {argv[0]} ")
    assert err.splitlines()[-1].startswith("rulewalk: error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


_EVENTS = ["--data", "events.thg", "--positive-predicates", "A"]


@pytest.mark.parametrize("argv, clash", [
    (["mine", *_EVENTS, "--out", "./events.thg"], "--out and --data"),
    (["train", *_CORPUS_TASK, "--out", "rules.txt", "--model-out", "rules.txt"],
     "--out and --model-out"),
    (["train", *_CORPUS_TASK, "--out", "./rules.txt", "--model-out", "rules.txt"],
     "--out and --model-out"),
    (["train", *_EVENTS, "--out", "rules.txt", "--model-out", "events.thg"],
     "--model-out and --data"),
    (["eval", *_CORPUS_TASK, "--rules", "rules.txt", "--out", "rules.txt"],
     "--out and --rules"),
    (["eval", *_CORPUS_TASK, "--rules", "rules.txt", "--model", "model.txt",
      "--out", "./model.txt"], "--out and --model"),
    (["eval", *_EVENTS, "--rules", "rules.txt", "--out", "events.thg"], "--out and --data"),
], ids=["mine-data", "train-out-model", "train-dot-slash", "train-model-data",
        "eval-rules", "eval-model", "eval-data"])
def test_an_output_naming_another_path_of_its_command_is_usage_error(
        tmp_path, monkeypatch, capsys, rule_file, argv, clash):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--rule", rule_file, "--out", "corpus",
                 "--num-pos", "6", "--num-neg", "6", "--seed", "1"]) == 0
    assert main(["train", *_CORPUS_TASK, "--walks", "20", "--out", "rules.txt",
                 "--model-out", "model.txt"]) == 0
    (tmp_path / "events.thg").write_text("#thg v1\n" + "A | a | b | 0 1\nB | b | c | 2 3\n" * 5)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith(f"usage: rulewalk {argv[0]} ")
    assert f"rulewalk: error: {clash} name the same file" in err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_mine_on_a_corpus_without_negatives_exits_2(tmp_path, rule_file, capsys):
    corpus = str(tmp_path / "corpus")
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "3", "--num-neg", "0", "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["mine", "--data", corpus, "--target-label", "Target",
                 "--walks", "5", "--out", str(tmp_path / "r.txt")]) == 2
    assert "every graph is labeled 'Target'" in capsys.readouterr().err


def test_eval_with_model_missing_a_rule_exits_2(tmp_path, rule_file, capsys):
    corpus, rules, _, _ = run_pipeline(tmp_path, rule_file)
    bias_only = tmp_path / "bias_only.txt"
    bias_only.write_text("bias 0.5\n")
    first = next(l for l in Path(rules).read_text().splitlines() if l.startswith("w="))
    signature = first.split(" ", 1)[1].split(" | ")[0].strip()
    capsys.readouterr()
    assert main(["eval", "--data", corpus, "--target-label", "Target",
                 "--rules", rules, "--model", str(bias_only), "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert signature in err
    assert "Traceback" not in err


def test_eval_with_a_model_of_other_rules_exits_2(tmp_path, rule_file, capsys):
    # weights for a rule the rules file lacks, or two weights for one rule,
    # would rank with another model than the one trained
    corpus, rules, model, _ = run_pipeline(tmp_path, rule_file)
    rule_lines = Path(rules).read_text().splitlines(keepends=True)
    assert sum(l.startswith("w=") for l in rule_lines) >= 2
    one_rule = tmp_path / "one-rule.txt"
    one_rule.write_text("".join(rule_lines[:2]))
    bias, first, second, *rest = Path(model).read_text().splitlines()
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("\n".join([bias, first, second, *rest,
                                   first.split("\t")[0] + "\t5.0"]) + "\n")
    out = tmp_path / "out.json"
    for rules_file, model_file, signature in [(one_rule, model, second.split("\t")[0]),
                                              (rules, repeated, first.split("\t")[0])]:
        capsys.readouterr()
        assert main(["eval", "--data", corpus, "--target-label", "Target",
                     "--rules", str(rules_file), "--model", str(model_file),
                     "--seed", "7", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"rulewalk: error: {model_file}: " in err and repr(signature) in err
        assert "Traceback" not in err
        assert not out.exists()


def test_eval_with_a_signature_on_two_rule_lines_exits_2(tmp_path, rule_file, capsys):
    # a model weights a signature once, so both lines would score with the
    # one weight: a model fit on two rules would score three
    corpus, rules, model, _ = run_pipeline(tmp_path, rule_file)
    lines = Path(rules).read_text().splitlines()
    signature = "Target() <- A(X0->X1) , B(X1->X2)"
    first = next(n for n, l in enumerate(lines, start=1) if f" {signature} | " in l)
    with open(rules, "a", encoding="utf-8") as fh:
        fh.write(f"w=0.0 {signature} | 0 {{AFTER}} 1\n")
    metrics = tmp_path / "again.json"
    capsys.readouterr()
    assert main(["eval", "--data", corpus, "--target-label", "Target", "--rules", rules,
                 "--model", model, "--seed", "7", "--out", str(metrics)]) == 2
    assert _one_error_line(capsys) == (
        f"rulewalk: error: {rules}:{len(lines) + 1}: rule {signature} was already "
        f"read at line {first}\n"
    )
    assert not metrics.exists()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_is_no_error_and_every_output_is_written(tmp_path, rule_file,
                                                                 unbuffered):
    # `eval --out F | head -1`: the reader is gone before eval prints.  With
    # stdout buffered the failing write is the final flush; unbuffered, the
    # print itself.
    corpus, rules, model, metrics = run_pipeline(tmp_path, rule_file)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    piped = tmp_path / "metrics-piped.json"
    for argv in (["eval", "--data", corpus, "--target-label", "Target", "--rules", rules,
                  "--model", model, "--seed", "7", "--out", str(piped)],
                 ["inspect", "--data", corpus], ["mine", "--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "rulewalk.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=120)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")
    assert piped.read_bytes() == Path(metrics).read_bytes()


def test_eval_with_a_non_finite_model_number_exits_2(tmp_path, rule_file, capsys):
    # a NaN bias or an infinite weight (0 * inf is NaN) would make every score NaN
    corpus, rules, model, _ = run_pipeline(tmp_path, rule_file)
    bias, first, *rest = Path(model).read_text().splitlines()
    signature = first.split("\t")[0]
    for i, bad_line in enumerate(["bias nan", "bias abc",
                                  f"{signature}\tinf", f"{signature}\t-inf"]):
        lines = [bad_line, first] if bad_line.startswith("bias") else [bias, bad_line]
        bad = tmp_path / f"bad{i}.txt"
        bad.write_text("\n".join(lines + rest) + "\n")
        capsys.readouterr()
        assert main(["eval", "--data", corpus, "--target-label", "Target",
                     "--rules", rules, "--model", str(bad), "--seed", "7"]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: model line {bad_line!r} does not end in a finite number" in err
        assert "Traceback" not in err


def test_eval_with_bad_support_line_exits_2(tmp_path, rule_file, capsys):
    corpus = str(tmp_path / "corpus")
    rules = tmp_path / "rules.txt"
    rules.write_text("# support=3\n" + PLANTED + "# support=abc\n" + PLANTED)
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "4", "--num-neg", "4", "--noise", "2",
                 "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", corpus, "--target-label", "Target",
                 "--rules", str(rules), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert f"{rules}:3:" in err
    assert "support=abc" in err
    assert "Traceback" not in err


def test_eval_with_negative_support_exits_2(tmp_path, rule_file, capsys):
    # the untrained baseline scores a match by the top rule's support, a count
    corpus = str(tmp_path / "corpus")
    rules = tmp_path / "rules.txt"
    rules.write_text("# support=-3\n" + PLANTED)
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "4", "--num-neg", "4", "--noise", "2",
                 "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", corpus, "--target-label", "Target",
                 "--rules", str(rules), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert f"{rules}:1: support is negative: '# support=-3'" in err
    assert "Traceback" not in err


def test_malformed_rule_line_in_eval_rules_names_file_and_line(tmp_path, rule_file, capsys):
    corpus = str(tmp_path / "corpus")
    rules = tmp_path / "rules.txt"
    rules.write_text("# support=3\n" + PLANTED + "# support=1\nw=0.0 Target() A(X0->X1)\n")
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "4", "--num-neg", "4", "--noise", "2",
                 "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", corpus, "--target-label", "Target",
                 "--rules", str(rules), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert f"{rules}:4: missing '<-'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cells, message", [
    ("0 {BEFORE} 1 ; 1 {BEFORE} 0", "second temporal cell on atoms 1 and 0"),
    ("0 {} 1", "empty relation set in '0 {} 1'"),
])
def test_eval_rules_with_a_repeated_or_empty_temporal_cell_exits_2(
        tmp_path, rule_file, capsys, cells, message):
    # read as written, the last cell would win and an empty one match nothing
    corpus = str(tmp_path / "corpus")
    rules = tmp_path / "rules.txt"
    rules.write_text("# support=3\nw=0.0 Target() <- A(X0->X1) , B(X1->X2) | " + cells + "\n")
    metrics = tmp_path / "metrics.json"
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "4", "--num-neg", "4", "--noise", "2",
                 "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", corpus, "--target-label", "Target",
                 "--rules", str(rules), "--seed", "3", "--out", str(metrics)]) == 2
    err = capsys.readouterr().err
    assert f"{rules}:2: {message}" in err
    assert "Traceback" not in err
    assert not metrics.exists()


def test_eval_rules_whose_cells_contradict_exits_2(tmp_path, rule_file, capsys):
    # no grounding satisfies them, so every candidate would tie
    corpus = str(tmp_path / "corpus")
    rules = tmp_path / "rules.txt"
    rules.write_text("# support=3\nw=0.0 Target() <- A(X0->X1) , B(X1->X2) , C(X2->X3)"
                     " | 0 {BEFORE} 1 ; 1 {BEFORE} 2 ; 0 {AFTER} 2\n")
    metrics = tmp_path / "metrics.json"
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "6", "--num-neg", "6", "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", corpus, "--target-label", "Target",
                 "--rules", str(rules), "--seed", "1", "--out", str(metrics)]) == 2
    err = capsys.readouterr().err
    assert f"{rules}:2: temporal cells contradict one another" in err
    assert "Traceback" not in err
    assert not metrics.exists()


@pytest.mark.parametrize("line", [
    "w=0.0 Target() <- A(X0->X1) , B(X1,X1->X2)",
    "w=0.0 Target() <- A(X0->X1,X1) , B(X1->X2)",
])
def test_eval_rules_that_name_a_variable_twice_in_one_set_exit_2(
        tmp_path, rule_file, capsys, line):
    # events hold distinct heads and tails, so the rule could match no
    # event and every candidate would tie
    corpus = str(tmp_path / "corpus")
    rules = tmp_path / "rules.txt"
    rules.write_text("# support=3\n" + line + "\n")
    metrics = tmp_path / "metrics.json"
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "4", "--num-neg", "4", "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", corpus, "--target-label", "Target",
                 "--rules", str(rules), "--seed", "3", "--out", str(metrics)]) == 2
    err = capsys.readouterr().err
    assert f"{rules}:2: variable X1 named twice in one set of atom" in err
    assert "Traceback" not in err
    assert not metrics.exists()


def test_malformed_rule_line_in_gen_rule_names_file_and_line(tmp_path, capsys):
    rule = tmp_path / "bad.rule"
    rule.write_text("# planted rule\n\nw=0.0 Target() <- A(X0->X1) , B[X1]\n")
    assert main(["gen", "--rule", str(rule), "--out", str(tmp_path / "corpus")]) == 2
    err = capsys.readouterr().err
    assert f"{rule}:3: bad atom" in err
    assert "Traceback" not in err


def test_gen_rule_with_a_predicate_beginning_with_hash_exits_2(tmp_path, capsys):
    # its events would be written as comment lines, and mine would find none
    rule = tmp_path / "hash.rule"
    rule.write_text("w=0.0 Target() <- #A(X0->X1) , B(X1->X2) | 0 {BEFORE} 1\n")
    corpus = tmp_path / "corpus"
    assert main(["gen", "--rule", str(rule), "--out", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert f"{rule}:1: bad atom '#A(X0->X1)'" in err
    assert "Traceback" not in err
    assert not corpus.exists()


def test_malformed_rule_line_after_the_first_in_gen_rule_exits_2(tmp_path, capsys):
    rule = tmp_path / "two.rule"
    rule.write_text(PLANTED + "w=0.0 Target() A(X0->X1)\n")
    corpus = tmp_path / "corpus"
    assert main(["gen", "--rule", str(rule), "--out", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert f"{rule}:2: missing '<-'" in err
    assert "Traceback" not in err
    assert not corpus.exists()


def test_gen_rule_file_without_a_rule_line_exits_2(tmp_path, capsys):
    rule = tmp_path / "empty.rule"
    rule.write_text("# planted rule\n# support=2\n\n")
    assert main(["gen", "--rule", str(rule), "--out", str(tmp_path / "corpus")]) == 2
    err = capsys.readouterr().err
    assert f"{rule}: no rule line found" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", ["empty", "comments", "mined"])
def test_eval_rules_file_without_a_rule_line_exits_2(tmp_path, rule_file, capsys, content):
    # with no rule every candidate ties, which used to score as MRR 0.5
    corpus = str(tmp_path / "corpus")
    assert main(["gen", "--rule", rule_file, "--out", corpus,
                 "--num-pos", "10", "--num-neg", "10", "--seed", "1"]) == 0
    capsys.readouterr()
    task = ["--data", corpus, "--target-label", "Target"]
    rules = tmp_path / "rules.txt"
    if content == "mined":
        # 3-step walks over this corpus keep no rule
        assert main(["mine", *task, "--max-steps", "3", "--walks", "20", "--seed", "1",
                     "--out", str(rules)]) == 0
        assert capsys.readouterr().out.startswith("mined 0 rules")
    else:
        rules.write_text("" if content == "empty" else "# no rules\n# support=3\n\n")
    metrics = tmp_path / "metrics.json"
    assert main(["eval", *task, "--rules", str(rules), "--out", str(metrics)]) == 2
    assert _one_error_line(capsys) == (
        f"rulewalk: error: {rules}: no rule line found; nothing to score with\n")
    assert not metrics.exists()


def test_gen_rule_file_with_two_rule_lines_exits_2(tmp_path, capsys):
    rule = tmp_path / "two.rule"
    rule.write_text(PLANTED + "w=0.0 Target() <- B(X0->X1) , A(X1->X2)\n")
    corpus = tmp_path / "corpus"
    assert main(["gen", "--rule", str(rule), "--out", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert f"{rule}: 2 rule lines found" in err
    assert "Traceback" not in err
    assert not corpus.exists()


def test_gen_rule_whose_body_uses_a_noise_predicate_exits_2(tmp_path, capsys):
    # noise events would share the planted predicate and could complete a
    # planted grounding on a negative graph
    rule = tmp_path / "noise.rule"
    rule.write_text("w=0.0 Target() <- noise0(X0->X1) , B(X1->X2) | 0 {BEFORE} 1\n")
    corpus = tmp_path / "corpus"
    assert main(["gen", "--rule", str(rule), "--out", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert "planted rule's body uses noise0" in err
    assert "Traceback" not in err
    assert not corpus.exists()


def test_gen_rule_whose_head_is_a_noise_predicate_writes_its_corpus(tmp_path, capsys):
    # the head names the graphs' label, which noise events never carry
    rule = tmp_path / "label.rule"
    rule.write_text("w=0.0 noise0() <- A(X0->X1) , B(X1->X2) | 0 {BEFORE} 1\n")
    corpus = tmp_path / "corpus"
    assert main(["gen", "--rule", str(rule), "--out", str(corpus),
                 "--num-pos", "3", "--num-neg", "3"]) == 0
    _, labels = load_corpus(str(corpus))
    assert labels == ["noise0"] * 3 + ["not_noise0"] * 3


def test_gen_rule_whose_head_names_variables_exits_2(tmp_path, capsys):
    # a corpus query is a bare graph label, so it binds no head entity and
    # no grounding of such a rule could match a graph
    rule = tmp_path / "head.rule"
    rule.write_text("w=0.0 Target(X0->X1) <- A(X0->X1) , B(X1->X2) | 0 {BEFORE} 1\n")
    corpus = tmp_path / "corpus"
    assert main(["gen", "--rule", str(rule), "--out", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err == ("rulewalk: error: planted rule's head Target(X0->X1) names variables, "
                   "but a graph's label binds no entity, so the rule could match no graph\n")
    assert not list(tmp_path.rglob("*.thg"))


def test_a_multi_tail_corpus_needs_the_split_flag(tmp_path, capsys):
    rule = tmp_path / "multi.rule"
    rule.write_text("w=0.0 Target() <- A(X0->X1,X2) , B(X1->X3) | 0 {BEFORE} 1\n")
    corpus, mined = tmp_path / "corpus", tmp_path / "mined.txt"
    assert main(["gen", "--rule", str(rule), "--out", str(corpus),
                 "--num-pos", "4", "--num-neg", "4", "--seed", "1"]) == 0
    mine = ["mine", "--data", str(corpus), "--target-label", "Target",
            "--walks", "20", "--out", str(mined)]
    capsys.readouterr()
    assert main(mine) == 2
    err = capsys.readouterr().err
    # the message names the option a command-line user can pass
    assert err.startswith(f"rulewalk: error: {corpus / 'g0000.thg'}:")
    assert "multi-tail event (pass --split-multi-tail," in err
    assert "Traceback" not in err
    assert not mined.exists()
    assert main([*mine, "--split-multi-tail"]) == 0
    assert mined.exists()


def test_gen_span_above_the_bound_is_usage_error(tmp_path, capsys):
    # argparse rejects the span before the rule file is read or a grid built
    corpus = tmp_path / "corpus"
    assert main(["gen", "--rule", str(tmp_path / "missing.rule"),
                 "--out", str(corpus), "--span", str(MAX_SPAN + 1)]) == 1
    err = capsys.readouterr().err
    assert f"argument --span: {MAX_SPAN + 1} is not an integer in [0, {MAX_SPAN}]" in err
    assert "Traceback" not in err
    assert not corpus.exists()


def test_gen_of_an_empty_corpus_is_usage_error(tmp_path, rule_file, capsys):
    corpus = tmp_path / "corpus"
    assert main(["gen", "--rule", rule_file, "--out", str(corpus),
                 "--num-pos", "0", "--num-neg", "0"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--num-pos and --num-neg are both 0" in err
    assert not corpus.exists()


_TASK = ["--data", "corpus", "--target-label", "Target", "--out", "rules.txt"]


@pytest.mark.parametrize("argv", [
    ["mine", *_TASK, "--walks", "0"],
    ["mine", *_TASK, "--max-steps", "0"],
    ["mine", *_TASK, "--rho", "0"],
    ["mine", *_TASK, "--rho", "2"],
    ["mine", *_TASK, "--start-events", "0"],
    ["mine", *_TASK, "--start-events", "-1"],
    ["mine", *_TASK, "--train-frac", "1"],
    ["train", *_TASK, "--model-out", "m.txt", "--epochs", "0"],
    ["train", *_TASK, "--model-out", "m.txt", "--lr", "0"],
    ["train", *_TASK, "--model-out", "m.txt", "--lr", "nan"],
    ["train", *_TASK, "--model-out", "m.txt", "--l2", "-1"],
    ["train", *_TASK, "--model-out", "m.txt", "--top-rules", "-1"],
    ["gen", "--rule", "r.rule", "--out", "corpus", "--noise", "-1"],
    ["gen", "--rule", "r.rule", "--out", "corpus", "--num-pos", "-1"],
    ["gen", "--rule", "r.rule", "--out", "corpus", "--num-neg", "x"],
    ["gen", "--rule", "r.rule", "--out", "corpus", "--span", "-3"],
    ["mine", *_TASK, "--positive-predicates", ""],
    ["mine", *_TASK, "--positive-predicates", " , "],
    # a head atom's predicate must be a name the rule grammar can carry
    ["mine", *_TASK, "--target-label", "Foo Bar"],
    ["eval", *_TASK[:-2], "--rules", "rules.txt", "--target-label", "F(x)"],
    ["train", *_TASK, "--model-out", "m.txt", "--target-label", ""],
    ["mine", *_TASK, "--target-label", "#x"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_out_of_range_option_value_is_usage_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"argument {argv[-2]}:" in err
    assert "Traceback" not in err


def test_eval_has_no_use_option(capsys):
    # ranking the training positives would let eval see its own answer
    argv = ["eval", *_TASK[:-2], "--rules", "rules.txt", "--use", "all"]
    assert main(argv) == 1
    assert "unrecognized arguments: --use all" in capsys.readouterr().err


def test_a_predicate_a_rule_file_cannot_carry_is_a_data_error(tmp_path, capsys):
    # else mine would write a rule line that eval then rejects
    graph = tmp_path / "g.thg"
    graph.write_text("#thg v1\nPut It | a | b | 1 2\nGet | b | a | 3 4\n")
    out = tmp_path / "rules.txt"
    assert main(["mine", "--data", str(graph), "--positive-predicates", "Get",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{graph}:2: predicate 'Put It'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_mine_output_is_pinned_at_three_steps(tmp_path, capsys):
    # byte-identity guard: 3-step walks merge paths and compose relations,
    # so a change to composition or path consistency that alters any rule
    # shows up here; the digest is that of the release this test came with
    rule = tmp_path / "chain3.rule"
    rule.write_text("w=0.0 Target() <- A(X0->X1) , B(X1->X2) , C(X2->X3)"
                    " | 0 {BEFORE} 1 ; 1 {MEETS} 2\n")
    corpus = str(tmp_path / "corpus")
    mined = tmp_path / "mined.txt"
    assert main(["gen", "--rule", str(rule), "--out", corpus,
                 "--num-pos", "12", "--num-neg", "12", "--noise", "4",
                 "--seed", "5"]) == 0
    capsys.readouterr()
    assert main(["mine", "--data", corpus, "--target-label", "Target",
                 "--mode", "temporal", "--walks", "30", "--max-steps", "3",
                 "--start-events", "2", "--seed", "5", "--out", str(mined)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == (
        "walks=300 kept=300 dead_ends=0 inconsistent=0 disconnected=59 "
        "coverage_filtered=89"
    )
    assert hashlib.sha256(mined.read_bytes()).hexdigest() == (
        "c52f389bb976f58b84b9c9c8734cbf0780eadb4d51bdfa012d0033e3ca032f04"
    )


def _corpus_digest(corpus: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(corpus.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


CHAIN3 = ("w=0.0 Target() <- A(X0->X1) , B(X1->X2) , C(X2->X3)"
          " | 0 {BEFORE} 1 ; 1 {MEETS} 2\n")
# a two-head atom and a three-relation cell: at span 4 the grid holds points
# and some placements of A leave B no interval, so the search backtracks
NARY = "w=0.0 Target() <- A(X0,X1->X2) , B(X2->X3) | 0 {OVERLAPS,DURING,STARTS} 1\n"


@pytest.mark.parametrize("rule_text, options, digest", [
    (CHAIN3, ["--seed", "1"],
     "44b5c1ae353802b1dea0b22d910f43ef5ef22b8cec217a7e1ba4f258d5ae8526"),
    (CHAIN3, ["--seed", "17"],
     "32b4f14bba65f5b192b537f62f4cf9a29a2dd9af0e7c246312a3243b8351b0ac"),
    # one assignment fits in 3 ticks, so most branches of the interval
    # search run dry and backtrack
    (CHAIN3, ["--seed", "1", "--span", "3"],
     "0d02fe1863112e9922a79a6eb85f6a0cf599d75ac901cdba775c786affc6702b"),
    (NARY, ["--seed", "1", "--span", "4"],
     "55eb04d20ef3afd0d24da5dedf04a5f8878042b0ce0687629f8c82b126df42c5"),
], ids=["seed1", "seed17", "span3", "nary-span4"])
def test_gen_output_is_pinned(tmp_path, rule_text, options, digest):
    # byte-identity guard for the planted-interval search and the random
    # stream it shares with the noise; the digests are those of the release
    # this test came with
    rule = tmp_path / "planted.rule"
    rule.write_text(rule_text)
    corpus = tmp_path / "corpus"
    assert main(["gen", "--rule", str(rule), "--out", str(corpus),
                 "--num-pos", "20", "--num-neg", "20", "--noise", "5",
                 *options]) == 0
    assert _corpus_digest(corpus) == digest


def _small_event_graph(path):
    # 8 entities, 40 events, two of them two-head: target-mode walks over so
    # few edges repeat one another most of the time
    import random

    rng = random.Random("golden-event-graph")
    lines = ["#thg v1"]
    for i in range(40):
        head = rng.randrange(8)
        tail = rng.choice([e for e in range(8) if e != head])
        heads = f"e{head}"
        if i % 20 == 7:
            other = rng.choice([e for e in range(8) if e not in (head, tail)])
            heads += f",e{other}"
        start = rng.randrange(60)
        lines.append(f"p{i % 4} | {heads} | e{tail} | {start} {start + rng.randrange(9)}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", ["mine", "train", "eval", "gen"])
def test_an_exhausted_grounding_budget_exits_2_naming_the_rule(
        tmp_path, rule_file, monkeypatch, capsys, command):
    # mine grounds in its coverage filter, train and eval in their feature
    # rows, gen when it checks each graph it built against the planted rule
    corpus, graph = tmp_path / "corpus", tmp_path / "events.thg"
    events = ["--data", str(graph), "--positive-predicates", "p0", "--seed", "3"]
    if command == "mine":
        assert main(["gen", "--rule", rule_file, "--out", str(corpus),
                     "--num-pos", "4", "--num-neg", "4", "--seed", "1"]) == 0
        output = tmp_path / "mined.txt"
        argv = ["mine", "--data", str(corpus), "--target-label", "Target",
                "--walks", "20", "--out", str(output)]
    elif command == "train":
        _small_event_graph(graph)
        output = tmp_path / "rules.txt"
        argv = ["train", *events, "--walks", "20", "--out", str(output),
                "--model-out", str(tmp_path / "model.txt")]
    elif command == "eval":
        _small_event_graph(graph)
        rules = tmp_path / "rules.txt"
        assert main(["mine", *events, "--walks", "20", "--out", str(rules)]) == 0
        output = tmp_path / "metrics.json"
        argv = ["eval", *events, "--rules", str(rules), "--out", str(output)]
    else:
        output = corpus
        argv = ["gen", "--rule", rule_file, "--out", str(corpus), "--seed", "1"]
    capsys.readouterr()
    monkeypatch.setattr("rulewalk.rules.GROUNDING_BUDGET", 1)
    assert main(argv) == 2
    err = capsys.readouterr().err
    prefix = "rulewalk: error: grounding search for rule "
    suffix = " tried more than 1 candidate events and bindings\n"
    assert err.startswith(prefix) and err.endswith(suffix) and err.count("\n") == 1
    # what lies between is a rule's signature, which parses as a rule line
    assert parse_rule("w=0.0 " + err[len(prefix):-len(suffix)]).body
    assert not output.exists()
    assert not (tmp_path / "model.txt").exists()


def test_target_mode_outputs_are_pinned(tmp_path, capsys):
    # byte-identity guard for link-prediction mining and training, whose
    # walks stop on the query's tail; the digests are those of the release
    # this test came with
    graph = tmp_path / "events.thg"
    _small_event_graph(graph)
    task = ["--data", str(graph), "--positive-predicates", "p0", "--seed", "3"]
    mined = tmp_path / "mined.txt"
    assert main(["mine", *task, "--walks", "80", "--max-steps", "3",
                 "--out", str(mined)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == (
        "walks=640 kept=353 dead_ends=0 inconsistent=0 disconnected=0 "
        "coverage_filtered=0"
    )
    assert hashlib.sha256(mined.read_bytes()).hexdigest() == (
        "4342d37c1f1ac537015901818e4ea49899cae5950cac83cee873ab6ecba98408"
    )
    rules, model = tmp_path / "rules.txt", tmp_path / "model.txt"
    assert main(["train", *task, "--walks", "40", "--max-steps", "3",
                 "--features", "reach", "--out", str(rules),
                 "--model-out", str(model)]) == 0
    assert hashlib.sha256(rules.read_bytes()).hexdigest() == (
        "a9f17da63c41995495033bf935cefadfa348ce25d82b123eb2aa57a07824f05e"
    )
    assert hashlib.sha256(model.read_bytes()).hexdigest() == (
        "33eba1f1e82b7befbc647f642e523d3bc48b8f0d194c0473a303ad7ccccfde3f"
    )
    # eval ranks every test positive of p0 by features grounded per query head
    for features, digest in [
        ("reach", "782814ae90412d91b65269ae55e829376a4c8c8193cc5a53d563b9310c65ba6c"),
        ("binary", "782814ae90412d91b65269ae55e829376a4c8c8193cc5a53d563b9310c65ba6c"),
    ]:
        metrics = tmp_path / f"eval-{features}.json"
        assert main(["eval", *task, "--features", features, "--rules", str(rules),
                     "--model", str(model), "--out", str(metrics)]) == 0
        assert hashlib.sha256(metrics.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("features, digest", [
    ("reach", "9290c73650f6624d41ee418a205bf12af0283c877107a361806566d4e77310b0"),
    ("binary", "372de7f09167837a53ff66af785aa249e46ce9612e4f04bf3aebab7fcd2a4cea"),
], ids=["reach", "binary"])
def test_pool_scores_of_each_scorer_are_pinned(tmp_path, features, digest):
    # the metrics file above ranks 2 test positives, too few to tell the two
    # scorers apart; every pool query's score does, and the two digests differ
    graph_file, rules, model = (tmp_path / n for n in ("events.thg", "rules.txt", "model.txt"))
    _small_event_graph(graph_file)
    assert main(["train", "--data", str(graph_file), "--positive-predicates", "p0",
                 "--seed", "3", "--walks", "40", "--max-steps", "3", "--features", "reach",
                 "--out", str(rules), "--model-out", str(model)]) == 0
    graph, _ = load_graph(str(graph_file))
    _, test_set = split_queries(build_event_queries(graph, ["p0"]), 0.8, 3)
    read = read_rules(str(rules))
    scores = score_pools(read, [graph], test_set, load_model(str(model), read), features)
    text = "".join(f"{query!r} {value.hex()}\n" for query, value in scores.items())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _two_head_graph(path):
    # sub-walks from a and from b meet only through the two-head J or M
    lines = ["#thg v1"]
    for t in range(0, 50, 10):
        lines += [f"A | a | x | {t} {t + 1}", f"C | b | y | {t + 2} {t + 3}",
                  f"J | x,y | c | {t + 4} {t + 5}", f"M | a,b | c | {t + 6} {t + 7}"]
    path.write_text("\n".join(lines) + "\n")


def test_multi_head_sub_walk_networks_are_pinned(tmp_path, capsys):
    # byte-identity guard for the one case in which a rule's network is not
    # all observed singletons: the walks from the query's two heads build
    # separate groups of events, so a cell between two groups is only what
    # path consistency derives through an event that joins them
    graph, mined = tmp_path / "two-head.thg", tmp_path / "mined.txt"
    _two_head_graph(graph)
    assert main(["mine", "--data", str(graph), "--positive-predicates", "M",
                 "--max-steps", "3", "--walks", "50", "--seed", "1",
                 "--out", str(mined)]) == 0
    assert capsys.readouterr().out.startswith("mined 9 rules")
    assert hashlib.sha256(mined.read_bytes()).hexdigest() == (
        "586d9b1df3588fc396ce2ec5aeb85235bdb1d1f1653f5fac909fd165dbaff7ff"
    )
    lines = mined.read_text().splitlines()
    # A and C never met before M joined them: their cell says nothing
    assert ("w=0.0 M(X0,X1->X2) <- A(X0->X3) , C(X1->X4) , M(X0,X1->X2)"
            " | 0 {BEFORE,AFTER} 2 ; 1 {BEFORE,AFTER} 2") in lines
    # closure derived C before A from C before J and J before A
    assert any(line.startswith("w=0.0 M(X0,X1->X2) <- C(X0->X3) , A(X1->X4) ,"
                               " J(X3,X4->X2) | 0 {BEFORE} 1 ; ") for line in lines)


def _graph_commands(tmp_path, rule_file):
    """argv of every command that builds a graph, on small inputs, in an
    order in which each exits 0."""
    corpus, events, snapshots = (str(tmp_path / n) for n in ("corpus", "events.thg", "toy.tkg"))
    _alternating_event_graph(Path(events))
    Path(snapshots).write_text("1 | alice | likes | bob\n2 | alice | likes | carol\n")
    task = ["--data", corpus, "--target-label", "Target", "--seed", "1"]
    rules, model = str(tmp_path / "rules.txt"), str(tmp_path / "model.txt")
    return [
        ["gen", "--rule", rule_file, "--out", corpus, "--num-pos", "6", "--num-neg", "6",
         "--seed", "1"],
        ["convert", "--in", snapshots, "--out", str(tmp_path / "kg.thg"), "--from-tkg"],
        ["convert", "--in", events, "--out", str(tmp_path / "flat.thg"), "--clique-expand"],
        ["inspect", "--data", corpus],
        ["mine", *task, "--walks", "50", "--out", str(tmp_path / "mined.txt")],
        ["train", *task, "--walks", "50", "--out", rules, "--model-out", model],
        ["eval", *task, "--rules", rules, "--model", model],
        ["mine", "--data", events, "--positive-predicates", "B", "--walks", "20",
         "--out", str(tmp_path / "event-mined.txt")],
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_commands_build_graphs_with_the_gc_paused_and_leave_it_as_found(
    tmp_path, rule_file, monkeypatch, capsys, enabled
):
    seen = []
    add_event = TemporalHypergraph.add_event

    def spy(self, *args):
        seen.append(gc.isenabled())
        return add_event(self, *args)

    monkeypatch.setattr(TemporalHypergraph, "add_event", spy)
    reversed_interval = tmp_path / "reversed.thg"
    reversed_interval.write_text("#thg v1\nGet | b | a | 0 1\nPut | a | b | 2 1\n")
    commands = [(argv, 0) for argv in _graph_commands(tmp_path, rule_file)] + [
        (["inspect", "--data", str(reversed_interval)], 2),
        (["mine", "--data", str(tmp_path / "events.thg"), "--positive-predicates", "Q",
          "--out", str(tmp_path / "q.txt")], 2),
        # no --target-label for a corpus: a usage error, before any graph is built
        (["mine", "--data", str(tmp_path / "corpus"), "--out", str(tmp_path / "q.txt")], 1),
    ]
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, code in commands:
            seen.clear()
            assert main(argv) == code, argv
            assert gc.isenabled() == enabled, argv
            assert (bool(seen), any(seen)) == (code != 1, False), argv
    finally:
        (gc.enable if before else gc.disable)()


def test_no_command_leaves_garbage_for_the_collector(tmp_path, rule_file, capsys):
    # a command runs with the collector paused, so any reference cycle it
    # made would hold its memory until a later collection; `build_parser`'s
    # own argparse cycles, which every command makes, are the floor
    before = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        build_parser()
        floor = gc.collect()
        for argv in _graph_commands(tmp_path, rule_file):
            assert main(argv) == 0, argv
            assert gc.collect() <= floor, argv
    finally:
        if before:
            gc.enable()


def test_a_missing_positive_predicate_is_the_first_one_given_whatever_the_hash_seed(tmp_path):
    graph = tmp_path / "events.thg"
    _alternating_event_graph(graph)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for seed in range(1, 6):
        done = subprocess.run(
            [sys.executable, "-m", "rulewalk.cli", "mine", "--data", str(graph),
             "--positive-predicates", "Q1,Q2,Q3", "--out", str(tmp_path / "rules.txt")],
            capture_output=True, text=True, env={**env, "PYTHONHASHSEED": str(seed)},
            timeout=120,
        )
        assert (done.returncode, done.stderr) == (
            2, "rulewalk: error: predicate 'Q1' not present in the graph\n"), seed
