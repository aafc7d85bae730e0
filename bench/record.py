"""Record the exact outputs the benchmark's gate checks against.

    python3 bench/record.py > bench/expected.json

Run it once, on the commit that fixes the reference outputs (the recorded
file names it). Later commits must reproduce these outputs; re-recording on a
changed program would hide exactly the differences the gate is there to catch.
Classification outcomes are recorded for seeds 0..CLASSIFY_SEEDS-1 without a
time budget, so curves that stall still get their exact recorded value.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads as w  # noqa: E402
from twistparity.experiments import report_to_json  # noqa: E402
from twistparity import oracle_crosscheck, parse_curve, parse_field, scan_density  # noqa: E402

CLASSIFY_SEEDS = 10


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    doc = {"commit": commit, "classify_seeds": CLASSIFY_SEEDS,
           "scan": {}, "verify": {}, "classify": {}}
    for field_spec, curve_text, xs, _ in w.SCAN_Q + w.SCAN_QUADRATIC:
        E = parse_curve(parse_field(field_spec), curve_text)
        for X in xs:
            doc["scan"][w.scan_key(field_spec, curve_text, X)] = w.digest(
                report_to_json(scan_density(E, X)))
            print(f"scan {field_spec} X={X}", file=sys.stderr)
    for seed in range(w.SEED_VARIANTS):
        for key, E, B in w.verify_q_setup(seed):
            rep = oracle_crosscheck(E, delta_bound=B)
            if rep.mismatches:
                raise SystemExit(f"{key}: oracle mismatches; refusing to record")
            doc["verify"][key] = [rep.tested, rep.unsupported]
            print(f"verify {key}", file=sys.stderr)
    for seed in range(CLASSIFY_SEEDS):
        for key, E in w.classify_setup(seed):
            doc["classify"][key] = w.classify_outcome(E)
        print(f"classify seed {seed}", file=sys.stderr)
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
