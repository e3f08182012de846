"""CLI surface: subcommands, exit codes, end-to-end determinism."""
import filecmp
import hashlib
import json
import os
from pathlib import Path

import pytest

from rulewalk.cli import main
from rulewalk.dataio import load_corpus, load_graph

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
    assert tuple(graph.events[0].interval) == (3, 3)


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
    assert "Traceback" not in err


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


def test_malformed_rule_line_in_gen_rule_names_file_and_line(tmp_path, capsys):
    rule = tmp_path / "bad.rule"
    rule.write_text("# planted rule\n\nw=0.0 Target() <- A(X0->X1) , B[X1]\n")
    assert main(["gen", "--rule", str(rule), "--out", str(tmp_path / "corpus")]) == 2
    err = capsys.readouterr().err
    assert f"{rule}:3: bad atom" in err
    assert "Traceback" not in err


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
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_out_of_range_option_value_is_usage_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"argument {argv[-2]}:" in err
    assert "Traceback" not in err


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
        "walks=300 kept=300 dead_ends=0 inconsistent=0 disconnected=51 "
        "coverage_filtered=103"
    )
    assert hashlib.sha256(mined.read_bytes()).hexdigest() == (
        "ba75e4326fc05b54da4b1151394f1b004c892cce862783a657f83ebadcd62832"
    )


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
