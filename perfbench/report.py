"""What a workload hands back to ``run.py``: checks, counts, metrics, report lines."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from stats import format_summary

HERE = Path(__file__).resolve().parent


@dataclass
class Result:
    digest: str = ""  #: one line naming the inputs, printed even when a check fails
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: metric name -> (value, unit, sample count)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """Record a failed correctness check (at most 20 are kept verbatim)."""
        if not ok:
            if len(self.errors) < 20:
                self.errors.append(message)
            elif len(self.errors) == 20:
                self.errors.append("... further failures omitted")

    def metric(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = (float(value), unit, int(n))

    def timing(self, name: str, seconds: Sequence[float]) -> None:
        """Print a timing distribution (ms) with its tail and count."""
        self.lines.append(format_summary(name, [s * 1e3 for s in seconds], "ms"))


def inproc_setup(workdir: Path, warm_doc: dict, launches: int) -> List[float]:
    """Cold-start times of the in-process workloads: launch → first warm solve done."""
    workdir.mkdir(parents=True, exist_ok=True)
    warm = workdir / "warm.json"
    warm.write_text(json.dumps(warm_doc))
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "launcher.py"), "--mode", "inproc", "--workdir", str(workdir), "--warm", str(warm)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.startswith("READY"):
            raise RuntimeError(f"in-process warm start failed: {proc.stderr.strip()[-500:]}")
        times.append(elapsed)
    return times


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
