"""Seeded workload inputs and the CLI flow each workload runs.

A workload turns a seed into input files (written by the benchmark, not
by rulewalk), names the commands that build and load the program's own
input, and lists the pipeline commands of one rep.  Sizes are fixed per
workload and every predicate count is exact, so only the content varies
with the seed and timings stay comparable across seeds.

A run keeps its files under one work directory: `input/` (written here),
`build/` (setup outputs) and `rep/` (pipeline outputs of one rep).
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

#: the 3-atom planted rule of `planted-chain3`; at `--max-steps 3` its walks
#: build 3-node constraint networks, so path consistency composes relations.
#: Each constrained cell holds one relation, so a single mined occurrence
#: already admits every positive graph and the rule always passes coverage.
PLANTED_RULE = (
    "w=0.0 Target() <- A(X0->X1) , B(X1->X2) , C(X2->X3)"
    " | 0 {BEFORE} 1 ; 1 {MEETS} 2"
)
PLANTED_SIGNATURE = "Target() <- A(X0->X1) , B(X1->X2) , C(X2->X3)"


@dataclass
class Plan:
    name: str
    params: dict
    #: argv of the commands that build the input (if any) and load it once
    setup: list
    #: (stage, argv) of one pipeline rep, in order
    pipeline: list
    #: a rule signature the `mine` output must contain, if any
    expected_signature: str | None = None


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _mine_train_eval(rep: str, task: list, walk: list, features: list,
                     fit: list = (), mine_walk: list | None = None) -> list:
    """(stage, argv) of mine, train and eval; `mine` walks `mine_walk` if given."""
    rules = os.path.join(rep, "rules.txt")
    model = os.path.join(rep, "model.txt")
    return [
        ("mine", ["mine", *task, *(mine_walk or walk), "--out",
                  os.path.join(rep, "mined.txt")]),
        ("train", ["train", *task, *walk, *features, *fit, "--out", rules,
                   "--model-out", model]),
        ("eval", ["eval", *task, *features, "--rules", rules, "--model", model,
                  "--out", os.path.join(rep, "eval.json")]),
    ]


def planted_chain3(work: str, seed: int, scale: float) -> Plan:
    p = {"num_pos": max(10, round(200 * scale)), "num_neg": max(10, round(200 * scale)),
         "noise": 5, "mode": "temporal", "walks": 15, "max_steps": 3,
         "start_events": 2}
    rule = os.path.join(work, "input", "planted.rule")
    _write(rule, [PLANTED_RULE])
    corpus = os.path.join(work, "build", "corpus")
    gen = ["gen", "--rule", rule, "--out", corpus, "--num-pos", str(p["num_pos"]),
           "--num-neg", str(p["num_neg"]), "--noise", str(p["noise"]),
           "--seed", str(seed)]
    task = ["--data", corpus, "--target-label", "Target", "--seed", str(seed)]
    walk = ["--mode", p["mode"], "--walks", str(p["walks"]),
            "--max-steps", str(p["max_steps"]),
            "--start-events", str(p["start_events"])]
    return Plan("planted-chain3", p, [gen, ["inspect", "--data", corpus]],
                _mine_train_eval(os.path.join(work, "rep"), task, walk, []),
                PLANTED_SIGNATURE)


def event_link(work: str, seed: int, scale: float) -> Plan:
    """Random single-tail events; every predicate gets the same event count.

    Every entity heads the same number of events too: grounding a rule from
    a query scans the events of the query's head, so equal out-degrees keep
    the grounding work of `train` and `eval` the same across seeds.
    `mine` takes the CLI's default 200 walks, so that one `mine` lasts about
    a second; `train` re-mines with 60, which keeps a rep short.
    """
    p = {"entities": max(10, round(100 * scale)), "events": max(40, round(400 * scale)),
         "predicates": 8, "positive": "p0", "span": 200, "max_len": 20,
         "mine_walks": max(20, round(200 * scale)), "walks": 60, "max_steps": 2,
         "features": "reach", "top_rules": 9}
    rng = random.Random(f"event-link:{seed}")
    preds = [f"p{i % p['predicates']}" for i in range(p["events"])]
    rng.shuffle(preds)
    heads = [i % p["entities"] for i in range(p["events"])]
    rng.shuffle(heads)
    lines = ["#thg v1"]
    for pred, head in zip(preds, heads):
        tail = rng.choice([e for e in range(p["entities"]) if e != head])
        start = rng.randrange(p["span"])
        end = start + rng.randrange(p["max_len"] + 1)
        lines.append(f"{pred} | e{head} | e{tail} | {start} {end}")
    graph = os.path.join(work, "input", "events.thg")
    _write(graph, lines)
    task = ["--data", graph, "--positive-predicates", p["positive"],
            "--seed", str(seed)]
    walk = ["--walks", str(p["walks"]), "--max-steps", str(p["max_steps"])]
    mine_walk = ["--walks", str(p["mine_walks"]), "--max-steps", str(p["max_steps"])]
    return Plan("event-link", p, [["inspect", "--data", graph]],
                _mine_train_eval(os.path.join(work, "rep"), task, walk,
                                 ["--features", p["features"]],
                                 ["--top-rules", str(p["top_rules"])], mine_walk))


def snapshot_kg(work: str, seed: int, scale: float) -> Plan:
    """Snapshot triples; the positive predicate gets exactly `positive_events`."""
    p = {"snapshots": max(4, round(30 * scale)), "triples": 400, "entities": 300,
         "predicates": 8, "positive": "r0",
         "positive_events": max(4, round(80 * scale)),
         "walks": 10, "max_steps": 3}
    rng = random.Random(f"snapshot-kg:{seed}")
    total = p["snapshots"] * p["triples"]
    preds = [p["positive"]] * p["positive_events"] + [
        f"r{1 + i % (p['predicates'] - 1)}" for i in range(total - p["positive_events"])
    ]
    rng.shuffle(preds)
    lines = []
    for i, pred in enumerate(preds):
        head, tail = rng.sample(range(p["entities"]), 2)
        lines.append(f"{i // p['triples']} | n{head} | {pred} | n{tail}")
    snapshots = os.path.join(work, "input", "snapshots.tkg")
    _write(snapshots, lines)
    kg = os.path.join(work, "build", "kg.thg")
    mine = ["mine", "--data", kg, "--positive-predicates", p["positive"],
            "--seed", str(seed), "--walks", str(p["walks"]),
            "--max-steps", str(p["max_steps"]),
            "--out", os.path.join(work, "rep", "mined.txt")]
    return Plan("snapshot-kg", p,
                [["convert", "--in", snapshots, "--out", kg, "--from-tkg"],
                 ["inspect", "--data", kg]],
                [("mine", mine)])


#: name -> (function that writes the inputs and returns the plan, why it exists)
WORKLOADS = {
    "planted-chain3": (
        planted_chain3,
        "3-atom planted rule mined at 3 steps: walks, Allen composition and"
        " path consistency dominate mine and train",
    ),
    "event-link": (
        event_link,
        "small random event graph: rule grounding, feature rows and ranking"
        " dominate train and eval",
    ),
    "snapshot-kg": (
        snapshot_kg,
        "20k-event graph from snapshots: graph building dominates setup and"
        " the per-walk B-graph scan dominates mine",
    ),
}


def plan(name: str, work: str, seed: int, scale: float = 1.0) -> Plan:
    """Write the workload's inputs under `work` and return its plan.

    `scale` < 1 shrinks the workload for smoke tests.
    """
    for sub in ("input", "build", "rep"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)
    return WORKLOADS[name][0](work, seed, scale)
