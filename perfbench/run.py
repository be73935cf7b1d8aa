"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  The workload's inputs are generated from ``--seed`` before any
timing.  The report lists every metric with its unit and sample count;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` a separate,
traced run reports the per-layer metrics.  Any failed correctness check
prints the failures to stderr and exits with status 1 and no result.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-sweep", "serve-single", "serve-cluster", "online-replan")


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run unwinds normally, so every server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))

    import wl_online
    import wl_serve
    import wl_sweep

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "config.json").read_text())
    runners = {
        "solve-sweep": (wl_sweep.run, "solve-sweep"),
        "serve-single": (functools.partial(wl_serve.run, "single"), "serve"),
        "serve-cluster": (functools.partial(wl_serve.run, "cluster"), "serve"),
        "online-replan": (wl_online.run, "online-replan"),
    }
    run, section = runners[args.workload]
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{int(time.time() * 1e3)}"
    started = time.perf_counter()
    try:
        result = run(args.seed, args.seconds, bool(args.trace), config[section], config, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_run").rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(result.digest)
    if result.errors:
        for error in result.errors:
            print(f"CHECK FAILED: {error}", file=sys.stderr)
        return 1
    for line in result.lines:
        print(line)
    print(f"attempted {result.attempted}, failed {result.failed}, wall {time.perf_counter() - started:.1f} s")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        value, unit, n = result.metrics.get(name, (0.0, spec["unit"], 0))
        if not math.isfinite(value) or unit != spec["unit"]:
            print(f"CHECK FAILED: metric {name} = {value} {unit}", file=sys.stderr)
            return 1
        print(f"  {name:<38} {value:>14.6g} {unit:<6} (n={n})")
        metrics[name] = {"value": value, "unit": unit}
    missing = [spec["name"] for spec in wanted if spec["name"] not in result.metrics]
    if missing and not args.trace:
        print(f"CHECK FAILED: end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
