"""Check how steady the end-to-end metrics are across seeds.

    python3 perfbench/steadiness.py --workload serve-single --seeds 1-10 [--seconds 20]

Runs the workload once per seed, one run at a time, and prints for
every end-to-end metric its median over the runs and its spread: the
distance between the first and third quartile (``statistics.quantiles``
with ``n=4``) as a share of the median, next to a third of the metric's
bound from ``BENCHMARK.json``.  A run that fails stops the check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description="Spread of the end-to-end metrics across seeds.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None, help="defaults to run_seconds")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for line in proc.stdout.splitlines():
            if line.startswith(("raw:", "box speed:")):
                print(f"  {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound/3':>8}")
    worst = 0.0
    for spec in bench["end_to_end"]:
        vals = values[spec["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < spec["bound"] / 3 or spec["name"] == "setup_s" else "  <-- too wide"
        if spec["name"] != "setup_s":
            worst = max(worst, spread / spec["bound"])
        print(f"{spec['name']:<20} {med:>12.5g} {spread:>8.4f} {spec['bound'] / 3:>8.4f}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
