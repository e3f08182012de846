"""rulewalk benchmark: one seeded workload through the CLI, in-process.

    python3 bench/run.py --workload planted-chain3 --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from --seed, runs the README flow through
`rulewalk.cli.main(argv)` with one client in a closed loop (each command
starts when the previous one returns), and repeats the pipeline until
--seconds are used up.  Times are scaled to a nominal host speed gauged
by `reference()`.  Outputs are digested and must be identical in
every rep.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 a second,
traced pass wraps the layers of `layers.LAYERS` and reports per-layer
metrics instead of end-to-end ones.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import TraceError, Tracer  # noqa: E402

SETUP_REPS = 3
#: more setups while they have taken less than this many seconds
SETUP_SECONDS = 2.0
MAX_SETUP_REPS = 9
MIN_REPS = 3
#: iterations of the reference loop, about 25 ms of pure Python
REF_ITERATIONS = 100_000
#: the reference loop's time at nominal host speed; reported times are
#: scaled to the host speed at which the loop takes exactly this long
REF_NOMINAL_S = 0.025

#: (name, unit, better) of the end-to-end metrics, reported with --trace 0
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("mine_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_MINE_COUNTS = re.compile(
    r"walks=(\d+) kept=(\d+) dead_ends=(\d+) inconsistent=(\d+) "
    r"disconnected=(\d+) coverage_filtered=(\d+)")
_MINED = re.compile(r"^mined (\d+) rules", re.M)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of the per-layer metrics, reported with --trace 1."""
    out = []
    for name in layers.LAYERS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [
        ("constraints.resolve_time.per_step", "1", "lower"),
        ("walk.walks", "count", "lower"),
        ("walk.kept", "count", "higher"),
        ("walk.dead_ends", "count", "lower"),
        ("walk.inconsistent", "count", "lower"),
        ("walk.kept_ratio", "1", "higher"),
        ("mining.disconnected", "count", "lower"),
        ("mining.coverage_filtered", "count", "lower"),
        ("mining.rules_kept", "count", "higher"),
        ("dataio.load_graph.bytes", "B", "lower"),
        ("rules.evaluate.match_ratio", "1", "higher"),
        ("learner.build_features.rows", "count", "lower"),
        ("evaluation.rows_per_candidate", "1", "lower"),
        ("evaluation.mrr", "1", "higher"),
        ("stage.train_s", "s", "lower"),
        ("stage.eval_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("host.reference_s", "s", "lower"),
    ]
    return out


def reference() -> float:
    """Seconds of a fixed pure-Python loop that gauges the host's speed now.

    It allocates nothing the garbage collector tracks, so its time does not
    depend on the program's heap, only on how fast the host runs Python.
    """
    table = dict.fromkeys(range(1024), 0)
    acc = 0
    start = perf_counter()
    for i in range(REF_ITERATIONS):
        k = (i * 7919) & 1023
        table[k] += i & 0xFFFF
        acc ^= table[k]
    return perf_counter() - start


def import_program():
    """Import `rulewalk.cli` from this checkout's src/ and return it."""
    if not os.path.isfile(os.path.join(SRC, "rulewalk", "__init__.py")):
        raise FileNotFoundError(f"no rulewalk sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("rulewalk.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"rulewalk imported from {cli.__file__}, not {SRC}")
    return cli


_IMPORT_PROBE = ("import time, numpy; start = time.perf_counter(); import rulewalk.cli; "
                 "print(time.perf_counter() - start)")


def fresh_import_seconds() -> float:
    """Seconds to import `rulewalk.cli` in a fresh interpreter.

    Every CLI invocation pays this before it does any work.  numpy is
    imported before the clock starts: its import time follows the host's
    file cache (it halved from one 30-second window to the next in one
    measurement), not this repository's code.
    """
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def digest(directory: str) -> str:
    """sha256 over the relative paths and bytes of every file under `directory`."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def _clear(directory: str) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)


class Bench:
    """One workload at one seed: setups, pipeline reps, checks and counts."""

    def __init__(self, workload: str, seed: int, work_root: str, scale: float = 1.0):
        #: raw times of every reference loop run, in order
        self.refs = [reference()]
        self.cli = import_program()
        self.work = os.path.join(work_root, workload)
        shutil.rmtree(self.work, ignore_errors=True)
        self.plan = workloads.plan(workload, self.work, seed, scale)
        self.attempted = 0
        self.errors: list[str] = []
        self.tracer: Tracer | None = None

    def _scaled(self, seconds: float) -> float:
        """`seconds` just measured, at nominal host speed.

        The host's speed is gauged by the reference loop run just before
        (the previous call's) and just after the measured span.
        """
        self.refs.append(reference())
        return seconds * REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)

    def command(self, argv: list[str]) -> tuple[float, str]:
        """Run one CLI command; returns (seconds at nominal speed, stdout)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.begin_run(argv[0])
            span = self.tracer.span(f"cli.{argv[0]}")
        else:
            span = contextlib.nullcontext()
        start = perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # a traceback is a failed command, not a crashed run
            code = "exception"
            err.write(traceback.format_exc())
        seconds = self._scaled(perf_counter() - start)
        if code != 0:
            self.errors.append(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return seconds, out.getvalue()

    def setup(self) -> tuple[float, str]:
        """Build and load the input once; returns (setup seconds, digest)."""
        build = os.path.join(self.work, "build")
        _clear(build)
        seconds = self._scaled(fresh_import_seconds())
        for argv in self.plan.setup:
            seconds += self.command(argv)[0]
        return seconds, digest(build)

    def rep(self) -> tuple[dict, str, dict]:
        """One pipeline run; returns (stage seconds, digest, mine counters)."""
        rep = os.path.join(self.work, "rep")
        _clear(rep)
        stages: dict[str, float] = {}
        counts: dict[str, int] = {}
        for stage, argv in self.plan.pipeline:
            stages[stage], out = self.command(argv)
            if stage == "mine":
                counts = _mine_counts(out)
        self._check_outputs(rep, counts)
        return stages, digest(rep), counts

    def _check_outputs(self, rep: str, counts: dict) -> None:
        if counts.get("mining.rules_kept", 0) < 1:
            self.errors.append("mine kept no rule")
        expected = self.plan.expected_signature
        if expected is not None and expected not in _signatures(rep):
            self.errors.append(f"planted rule {expected!r} was not mined")
        try:
            record = _eval_record(rep)
        except ValueError as exc:
            self.errors.append(f"unreadable eval record: {exc}")
            return
        if record is not None and not (0 < record["mrr"] <= 1 and record["n_queries"] >= 1):
            self.errors.append(f"implausible eval record {record}")

    def measure(self, seconds: float) -> dict:
        """Setups, then reps until `seconds` are used; checks every digest."""
        setups = []
        start = perf_counter()
        while len(setups) < SETUP_REPS or (
            len(setups) < MAX_SETUP_REPS and perf_counter() - start < SETUP_SECONDS
        ):
            setups.append(self.setup())
        reps, walls = [], []
        start = perf_counter()
        while len(reps) < MIN_REPS or (
            perf_counter() - start + statistics.median(walls) <= seconds
        ):
            reps.append(self.rep())
            walls.append(perf_counter() - start - sum(walls))
        self._same("setup", [d for _, d in setups])
        self._same("rep", [d for _, d, _ in reps])
        return {"setups": setups, "reps": reps}

    def _same(self, what: str, digests: list[str]) -> None:
        for i, d in enumerate(digests[1:], start=1):
            if d != digests[0]:
                self.errors.append(f"{what} {i} output digest differs from {what} 0")

    def end_to_end(self, measured: dict) -> dict:
        reps = measured["reps"]
        values = {
            "setup_s": statistics.median(s for s, _ in measured["setups"]),
            "mine_s": statistics.median(r[0]["mine"] for r in reps),
            "total_s": statistics.median(sum(r[0].values()) for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in END_TO_END}

    def traced(self, measured: dict, trace_path: str | None) -> dict:
        """One traced setup and rep; per-layer metrics from their spans."""
        tracer = Tracer()
        tracer.install(layers.install_spec())
        self.tracer = tracer
        try:
            _, setup_digest = self.setup()
            stages, rep_digest, counts = self.rep()
        finally:
            self.tracer = None
            tracer.uninstall()
        if setup_digest != measured["setups"][0][1]:
            self.errors.append("traced setup digest differs from the untraced one")
        if rep_digest != measured["reps"][0][1]:
            self.errors.append("traced rep digest differs from the untraced one")
        totals = tracer.layer_totals()
        idle = [n for n in layers.required_on(self.plan.name) if totals[n][0] == 0]
        if idle:
            self.errors.append(f"layers never called on {self.plan.name}: {idle}")
        if trace_path is not None:
            tracer.write(trace_path)

        values: dict[str, float] = {}
        for name in layers.LAYERS:
            values[f"{name}.calls"], values[f"{name}.self_s"] = totals[name]
        c = tracer.counters
        values.update(counts)
        values.update({
            "constraints.resolve_time.per_step": _ratio(
                totals["constraints.resolve_time"][0], totals["walk.step"][0]),
            "walk.kept_ratio": _ratio(counts["walk.kept"], counts["walk.walks"]),
            "dataio.load_graph.bytes": c.get("dataio.load_graph.bytes", 0),
            "rules.evaluate.match_ratio": _ratio(
                c.get("rules.evaluate.matches", 0), totals["rules.evaluate"][0]),
            "learner.build_features.rows": c.get("learner.build_features.rows", 0),
            "evaluation.rows_per_candidate": _ratio(
                c.get("evaluation.eval_rows", 0), c.get("evaluation.pool_queries", 0)),
            "evaluation.mrr": (_eval_record(os.path.join(self.work, "rep")) or
                               {"mrr": 0.0})["mrr"],
            "trace.overhead_s": sum(stages.values()) - statistics.median(
                sum(r[0].values()) for r in measured["reps"]),
            "host.reference_s": statistics.median(self.refs),
        })
        for stage in ("train", "eval"):
            times = [r[0][stage] for r in measured["reps"] if stage in r[0]]
            values[f"stage.{stage}_s"] = statistics.median(times) if times else 0.0
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in per_layer_metrics()}


def _mine_counts(stdout: str) -> dict:
    counts = {}
    match = _MINE_COUNTS.search(stdout)
    if match:
        keys = ("walk.walks", "walk.kept", "walk.dead_ends", "walk.inconsistent",
                "mining.disconnected", "mining.coverage_filtered")
        counts.update(zip(keys, map(int, match.groups())))
    mined = _MINED.search(stdout)
    if mined:
        counts["mining.rules_kept"] = int(mined.group(1))
    return counts


def _signatures(rep: str) -> set[str]:
    """Signatures of the rules `mine` wrote; empty when it wrote nothing."""
    path = os.path.join(rep, "mined.txt")
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as fh:
        return {line.strip().partition(" ")[2].partition(" | ")[0]
                for line in fh if line.startswith("w=")}


def _eval_record(rep: str) -> dict | None:
    path = os.path.join(rep, "eval.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.readline())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_root: str, scale: float = 1.0, trace_path: str | None = None) -> dict:
    """Measure one workload; returns the result object printed last."""
    bench = Bench(workload, seed, work_root, scale)
    measured = bench.measure(seconds / 2 if trace else seconds)
    if trace:
        try:
            metrics = bench.traced(measured, trace_path)
        except (TraceError, KeyError) as exc:
            bench.errors.append(f"tracing failed: {exc!r}")
            metrics = {}
    else:
        metrics = bench.end_to_end(measured)
    print(f"{workload} seed {seed}: medians over {len(measured['setups'])} setups "
          f"and {len(measured['reps'])} reps")
    for error in bench.errors:
        print(f"bench: {error}", file=sys.stderr)
    return {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": len(bench.errors),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_root = os.path.join(ROOT, ".bench_work")
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(work_root, "traces"), exist_ok=True)
        trace_path = os.path.join(
            work_root, "traces", f"{args.workload}-seed{args.seed}.jsonl.gz")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     work_root, trace_path=trace_path)
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
