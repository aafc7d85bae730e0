"""One cold pass of a workload in a fresh interpreter; prints one JSON line.

    python3 bench/rep.py <workload> <seed> <trace 0|1>

``run.py`` starts this once per repetition. ``setup_end`` is a
``time.perf_counter()`` reading (CLOCK_MONOTONIC, shared by all processes), so
the parent can measure set-up from the moment it started this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    if not (SRC / "twistparity" / "__init__.py").is_file():
        print(f"no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    setup, run = workloads.WORKLOADS[workload]
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    inputs = setup(seed)
    setup_end = time.perf_counter()

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    res = run(inputs, expected)
    wall = time.perf_counter() - t0

    doc = {
        "setup_end": setup_end,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": res.ops, "units": res.units, "failed": res.failed, "wrong": res.wrong,
        "over_budget": res.over_budget, "op_ms": res.op_ms, "notes": res.notes,
    }
    if tracer is not None:
        doc["layers"] = tracer.summary()
        doc["twist_ms"] = tracer.grouped_ms("experiments.oracle_crosscheck", "heckechars.make_char")
        doc["spans"] = len(tracer.start)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"trace-{workload}-seed{seed}.npz")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
