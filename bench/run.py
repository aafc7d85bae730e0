"""twistparity benchmark: one command, every metric by name and unit.

    python3 bench/run.py --workload scan-Q --seed 0 --seconds 40 --trace 0

Each repetition runs the workload in a fresh interpreter (``bench/rep.py``), one
at a time, because a CLI user pays cold caches on every invocation. Repetitions
start until the next one would end after ``--seconds``; there is always one.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run
alternates untraced and traced repetitions, so it also measures the tracing
overhead. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REP = Path(__file__).resolve().parent / "rep.py"
# workload -> what one op is, for the name printed for ops_per_s
OP_NAME = {"scan-Q": "scans", "scan-quadratic": "scans", "verify-Q": "twists",
           "classify-mix": "curves"}
RUN_LIMIT_S = 170.0  # a run, its last repetition included, ends within this

KINDS = ("real", "odd-q", "odd-split", "odd-inert", "odd-ram", "2-deg1", "2-e2", "2-f2")
STATS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"))
# Span names reported per layer (each with calls, self_s and total_s), in the
# order of the layer -> end-to-end table in bench/README.md.
LAYER_SPANS = (
    [f"localfields.{f}.{k}" for f in ("square_class_index", "hilbert_symbol",
                                      "is_unramified_class") for k in KINDS]
    + ["localfields.valuation"]
    + [f"heckechars.{f}" for f in ("make_char", "character_group_generators",
                                   "enumerate_characters", "count_characters",
                                   "localization_profile")]
    + ["sympy.factorint"]
    + [f"numberfield.{f}" for f in ("places_above", "places_of_norm_up_to", "global_sqrt")]
    + ["curves.reduction_type.fast", "curves.reduction_type.tate"]
    + [f"curves.{f}" for f in ("local_rep_type", "quadratic_twist", "local_root_number",
                               "root_number")]
    + [f"parity.{f}" for f in ("parity_change", "kappa", "place_partition")]
    + ["experiments.TwistRootNumberOracle.root_number_of_twist"]
)
# Spans that never occur on the workloads of BENCHMARK.json (scan-Q,
# scan-quadratic, verify-Q): no odd ramified place and no real place reaches
# these functions, and every scan bucket is large enough for the fiber method.
NEVER_RUN = {
    "localfields.square_class_index.odd-ram", "localfields.hilbert_symbol.real",
    "localfields.hilbert_symbol.odd-ram", "localfields.is_unramified_class.real",
    "localfields.is_unramified_class.odd-ram", "heckechars.enumerate_characters",
}


def per_layer_names() -> list[tuple[str, str]]:
    out = []
    for span in LAYER_SPANS:
        if span not in NEVER_RUN:
            out += [(f"{span}.{stat}", unit) for stat, unit in STATS]
    out += [
        ("localfields.completion.calls", "count"),
        ("heckechars.make_char.calls_per_op", "calls/op"),
        ("experiments.scan_density.self_s", "s"),
        ("curves.local_rep_type.calls_per_op", "calls/op"),
        ("experiments.oracle_twist_ms.p50", "ms"),
        ("experiments.oracle_twist_ms.p99", "ms"),
        ("bench.trace_overhead_ratio", "ratio"),
    ]
    return out


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_rep(workload, seed, traced, timeout):
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(REP), workload, str(seed), "1" if traced else "0"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: a repetition ran over {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: repetition exited with {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["setup_end"] - t0
    doc["elapsed"] = time.perf_counter() - t0
    return doc


def layer_metrics(traced_reps, untraced_reps):
    """Per-layer values: the median over traced repetitions of each value."""
    def one(rep):
        units = max(rep["units"], 1)
        layers = {span: rep["layers"].get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                  for span in LAYER_SPANS + ["localfields.completion", "experiments.scan_density"]}
        vals = {f"{span}.{stat}": s[stat] for span, s in layers.items() for stat, _ in STATS}
        vals["heckechars.make_char.calls_per_op"] = vals["heckechars.make_char.calls"] / units
        vals["curves.local_rep_type.calls_per_op"] = vals["curves.local_rep_type.calls"] / units
        twist = rep["twist_ms"]
        vals["experiments.oracle_twist_ms.p50"] = quantile(twist, 0.5) if twist else 0.0
        vals["experiments.oracle_twist_ms.p99"] = quantile(twist, 0.99) if twist else 0.0
        return vals

    per_rep = [one(r) for r in traced_reps]
    out = {}
    for name, unit in per_layer_names():
        if name == "bench.trace_overhead_ratio":
            value = (statistics.median(r["wall_s"] for r in traced_reps)
                     / statistics.median(r["wall_s"] for r in untraced_reps))
        else:
            value = statistics.median(v[name] for v in per_rep)
        out[name] = {"value": value, "unit": unit}
    return out


def end_to_end(reps):
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "ops_per_s": (statistics.median((r["ops"] - r["over_budget"]) / r["wall_s"] for r in reps),
                      "1/s"),
    }
    op_ms = [ms for r in reps for ms in r["op_ms"]]
    if op_ms:
        metrics["curve_p50_ms"] = (quantile(op_ms, 0.5), "ms")
        metrics["curve_p99_ms"] = (quantile(op_ms, 0.99), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def report(workload, seed, reps, e2e):
    walls = [r["wall_s"] for r in reps]
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"workload {workload}, seed {seed}: {len(reps)} repetitions, each in a fresh interpreter")
    print(f"  wall_s        {e2e['wall_s']['value']:.4f} s  (median; "
          f"q1 {quantile(walls, 0.25):.4f}, q3 {quantile(walls, 0.75):.4f}, n {len(walls)})")
    names = {"ops_per_s": f"{OP_NAME[workload]}_per_s"}
    for key, m in e2e.items():
        if key != "wall_s":
            print(f"  {names.get(key, key):<13} {m['value']:.4f} {m['unit']}")
    print(f"  failed_ratio  {failed / max(attempted, 1):.4f}  ({failed} of {attempted} ops;"
          f" {sum(r['over_budget'] for r in reps)} over budget)")
    for note in sorted({n for r in reps for n in r["notes"]}):
        print(f"  FAILED: {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(OP_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "twistparity" / "__init__.py").is_file():
        print(f"no twistparity source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "classify-mix":
        recorded = json.loads((ROOT / "bench" / "expected.json").read_text())["classify_seeds"]
        if not 0 <= args.seed < recorded:
            print(f"classify-mix has recorded outcomes for seeds 0..{recorded - 1} only",
                  file=sys.stderr)
            return 2

    start = time.perf_counter()
    plain, traced = [], []
    limit = min(args.seconds, RUN_LIMIT_S)
    while True:
        want_trace = args.trace == 1 and len(traced) < len(plain)
        (traced if want_trace else plain).append(run_rep(
            args.workload, args.seed, want_trace, RUN_LIMIT_S - (time.perf_counter() - start)))
        if args.trace and not traced:
            continue
        next_traced = args.trace == 1 and len(traced) < len(plain)
        next_cost = statistics.median(r["elapsed"] for r in (traced if next_traced else plain))
        if time.perf_counter() - start + next_cost > limit:
            break

    reps = plain + traced
    e2e = end_to_end(plain)
    report(args.workload, args.seed, plain, e2e)
    attempted = sum(r["ops"] for r in reps)
    wrong = sum(r["wrong"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        metrics = layer_metrics(traced, plain)
        print(f"  traced: {len(traced)} repetitions, {traced[-1]['spans']} spans in the last;"
              f" spans written to .bench_out/")
    else:
        metrics = e2e
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
