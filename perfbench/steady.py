"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload frame-bridge --runs 10 [--first-seed 100]

For every metric of the run's kind (end-to-end untraced, per-layer traced)
it prints the median over runs and the distance between the first and third
quartiles as a share of the median, next to a third of the metric's bound
from BENCHMARK.json, the level below which the benchmark counts as steady.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from verdicts import median, quartile_spread

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              flush=True)

    steady = True
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        limit = m.get("bound", float("inf")) / 3
        ok = spread <= limit
        steady = steady and ok
        print(f"{m['name']:<34} median {median(values):12.6g} {m['unit']:<6} "
              f"spread {spread:7.4f}  (a third of bound: {limit:.4f}) {'ok' if ok else 'WIDE'}")
    out = os.path.join(BENCH_DIR, "results", f"steady-{args.workload}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump({"seeds": [args.first_seed, args.first_seed + args.runs - 1], "results": results}, fh)
    print("steady" if steady else "not steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
