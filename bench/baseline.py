"""Measure every workload on ten seeds and write bench/baseline.json.

    python3 bench/baseline.py

Runs `bench/run.py` once per workload and seed with tracing off, one
process at a time, then once per workload with tracing on.  For each
end-to-end metric it records the median, the quartiles and the spread
(interquartile range over median) next to the bound in BENCHMARK.json,
and it flags a spread that is not below a third of that bound.  The file
also keeps each workload's parameters, the layer map of `layers.py` and
the environment the numbers were measured on.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

SEEDS = list(range(1, 11))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    import numpy

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    out_workloads = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = []
        for seed in SEEDS:
            result = _run(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            gated = metric != "setup_s"
            if gated and spread >= bound / 3:
                steady = False
            summary[metric] = {"median": median, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound, "values": values}
            print(f"  {metric:<12} median {median:.4g} spread {spread:.3f} "
                  f"(bound {bound})", flush=True)
        traced = _run(name, SEEDS[0], spec["run_seconds"], 1)
        params = workloads.plan(
            name, os.path.join(ROOT, ".bench_work", "params", name), SEEDS[0]).params
        out_workloads[name] = {
            "why": entry["why"],
            "params": params,
            "seeds": SEEDS,
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summary,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    baseline = {
        "environment": _environment(),
        "run_seconds": spec["run_seconds"],
        "layer_map": {
            name: {"must_run_on": list(on), "moves": moves}
            for name, (_, _, on, moves) in layers.LAYERS.items()
        },
        "workloads": out_workloads,
    }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print("steady" if steady else "NOT steady: a spread is not below bound/3")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
