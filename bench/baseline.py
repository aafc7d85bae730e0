"""Run every workload over several seeds and write a BENCH record.

    python3 bench/baseline.py --out bench/BENCH_seed.json

For each workload of BENCHMARK.json it makes one untraced run per seed 0..9
and one traced run (seed 0), and records each end-to-end metric's median, quartiles
and spread (q3 - q1 over the median, as ``statistics.quantiles`` gives them)
over the seeds, and the per-layer metrics of the traced run. ``classify-mix``
gets one untraced run per recorded seed. The record names the commit, the
Python, numpy and sympy versions and ``nproc``: one point of the bench
trajectory. Runs are made one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)  # spreads over ten seeds decide whether BENCHMARK.json's bounds hold


def bench_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(proc.stdout, end="", file=sys.stderr)
    return result


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med, "q1": q1,
                     "q3": q3, "spread": (q3 - q1) / med if med else None, "n": len(values),
                     "values": values}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": out}


def versions():
    import numpy
    import sympy

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    return {"commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "nproc": os.cpu_count(), "machine": platform.machine()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {**versions(), "run_seconds": seconds, "seeds": list(SEEDS),
              "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        untraced = summarize([bench_run(name, s, seconds, 0) for s in SEEDS])
        traced = bench_run(name, 0, seconds, 1)
        record["workloads"][name] = {"end_to_end": untraced, "per_layer": traced["metrics"]}
        for metric, m in untraced["metrics"].items():
            flag = "" if metric == "setup_s" or m["spread"] <= bounds[metric] else "  OVER BOUND"
            print(f"{name:15s} {metric:12s} median {m['median']:10.4f} {m['unit']:4s} "
                  f"spread {m['spread']:.4f} (bound {bounds[metric]}){flag}")
    classify_seeds = json.loads((ROOT / "bench" / "expected.json").read_text())["classify_seeds"]
    record["workloads"]["classify-mix"] = {"end_to_end": summarize(
        [bench_run("classify-mix", s, 1, 0) for s in range(classify_seeds)])}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
