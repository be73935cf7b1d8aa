"""solve-sweep: one in-process caller solving distinct instances over a size sweep.

Closed loop: ``make_scheduler("approx").solve_with_info`` on each
instance in turn, at n/m = 20/4, 100/5, 400/8 and 1000/10, mixing
β ∈ {0.2, 0.5, 0.8} with uniform and heterogeneous θ in every size.  No
serving layer runs, so the time is the paper's algorithms.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Dict, List

from repro.algorithms import performance_guarantee
from repro.algorithms.registry import make_scheduler
from repro.core.serialization import instance_to_dict
from repro.exact.lp import solve_lp_relaxation

import spans
from inputs import make_instance, rng_for, sweep_inputs
from procs import self_peak_rss_mb
from report import Result, inproc_setup, median
from stats import digest, geometric_mean, median_band, percentile

REL_TOL = 1e-9


def _solve_all(items, key_prefix: str = "") -> List[tuple]:
    """Solve every item; returns ``(item, result, seconds)`` per solve."""
    scheduler = make_scheduler("approx")
    out = []
    for i, item in enumerate(items):
        token = spans.current_key.set(f"{key_prefix}{i}")
        try:
            t0 = time.perf_counter()
            res = scheduler.solve_with_info(item.instance)
            elapsed = time.perf_counter() - t0
        finally:
            spans.current_key.reset(token)
        out.append((item, res, elapsed))
    return out


def _class_times(solved) -> Dict[str, List[float]]:
    by_size: Dict[str, List[float]] = {}
    for item, _, seconds in solved:
        by_size.setdefault(item.size, []).append(seconds)
    return by_size


def _size_balanced(by_size: Dict[str, List[float]], q: float) -> float:
    """Geometric mean over size classes of each class's q-th percentile (ms)."""
    return geometric_mean(percentile(v, q) * 1e3 for v in by_size.values())


def _check(result: Result, solved) -> None:
    for item, res, _ in solved:
        sched, inst = res.schedule, item.instance
        audit = sched.feasibility()
        result.check(audit.feasible and not audit.violations, f"{item.size}: infeasible answer {audit.violations[:2]}")
        result.check(
            sched.total_energy <= inst.budget * (1 + REL_TOL),
            f"{item.size}: energy {sched.total_energy} exceeds budget {inst.budget}",
        )
        floor = res.info.extra["fractional_accuracy"] - performance_guarantee(inst)
        result.check(
            sched.total_accuracy >= floor - REL_TOL * abs(floor),
            f"{item.size}: APPROX {sched.total_accuracy} below FR - G = {floor}",
        )


def _slack_min(solved) -> float:
    """min over solves of (APPROX − (FR − G)) / G, the slack in Eq. 13/14."""
    slack = math.inf
    for item, res, _ in solved:
        g = performance_guarantee(item.instance)
        floor = res.info.extra["fractional_accuracy"] - g
        slack = min(slack, (res.schedule.total_accuracy - floor) / g)
    return slack


def run(seed: int, seconds: int, trace: bool, cfg: dict, common: dict, workdir: Path) -> Result:
    result = Result()
    items = sweep_inputs(seed, cfg["classes"], seconds / 20.0)
    warm = make_instance(20, 4, 0.5, True, rng_for(seed, "solve-sweep-warm"))
    result.digest = f"input digest: {digest(item.doc for item in items)} ({len(items)} instances)"

    if not trace:
        setups = inproc_setup(workdir, instance_to_dict(warm), common["setup_launches"])
        make_scheduler("approx").solve_with_info(warm)  # warm this process too, untimed
        solved = _solve_all(items)
        _check(result, solved)
        result.attempted = len(solved)
        by_size = _class_times(solved)
        for size in sorted(by_size, key=lambda s: int(s[1:])):
            result.timing(f"solve_ms.{size}", by_size[size])
        n_total = sum(item.instance.n_tasks for item, _, _ in solved)
        served = sum(int((res.schedule.task_flops > 0).sum()) for _, res, _ in solved)
        solve_total = sum(s for _, _, s in solved)
        result.metric("setup_s", median(setups), "s", len(setups))
        result.metric("peak_rss_mb", self_peak_rss_mb(), "MB", 1)
        result.metric("latency_p50_ms", _size_balanced(by_size, 50.0), "ms", len(solved))
        result.metric("latency_p90_ms", _size_balanced(by_size, 90.0), "ms", len(solved))
        result.metric("max_rate_per_s", n_total / solve_total, "1/s", len(solved))
        result.metric(
            "mean_accuracy", sum(res.schedule.total_accuracy for _, res, _ in solved) / n_total, "ratio", n_total
        )
        result.metric("on_time_share", served / n_total, "ratio", n_total)
        result.lines.append(f"guarantee slack min (APPROX - (FR - G)) / G: {_slack_min(solved):.4f}")
        return result

    # Traced run: a quarter of the instances, solved alternately untraced
    # and traced (twice each), so the overhead estimate compares like with
    # like and a drift in the box's speed falls on both sides.
    make_scheduler("approx").solve_with_info(warm)
    subset = items[: max(len(items) // 4, 1)]
    plain, traced, nodes = [], [], []
    for k in range(4):
        if k % 2 == 0:
            plain += _solve_all(subset)
            continue
        recorder = spans.Recorder()
        recorder.install(spans.SOLVER_TARGETS)
        try:
            traced += _solve_all(subset, key_prefix=f"{k}:")
        finally:
            recorder.uninstall()
        nodes += spans.self_times(recorder.spans)
    _check(result, plain + traced)
    result.attempted = len(plain) + len(traced)
    plain_by, traced_by = _class_times(plain), _class_times(traced)
    untraced_p50 = _size_balanced(plain_by, 50.0)
    traced_p50 = _size_balanced(traced_by, 50.0)
    per_key = spans.self_by_key(nodes)
    keyed = [(f"{1 + 2 * (i // len(subset))}:{i % len(subset)}", item, t) for i, (item, _, t) in enumerate(traced)]
    totals = {key: t for key, _, t in keyed}
    for size in sorted(traced_by, key=lambda s: int(s[1:])):
        keys = [key for key, item, _ in keyed if item.size == size]
        band = [keys[j] for j in median_band([totals[k] for k in keys])]
        rows, rest, total = spans.layer_table(totals, per_key, band)
        result.lines.append(
            spans.format_table(
                f"per-layer split of a median {size} solve (untraced p50 {percentile(plain_by[size], 50) * 1e3:.3f} ms)",
                rows,
                rest,
                total,
            )
        )
    layer = spans.solver_layer_metrics(nodes, sum(s for _, _, s in traced))
    for name, value in layer.items():
        unit = "count" if "calls" in name else "ratio"
        result.metric(name, value, unit, len(traced))
    for size, values in plain_by.items():
        result.metric(f"algorithms.solve_ms_p50.{size}", percentile(values, 50.0) * 1e3, "ms", len(values))
    result.metric("algorithms.guarantee_slack.min", _slack_min(plain), "ratio", len(plain))
    result.metric("algorithms.fr_lp_gap.max", _lp_gap(plain, cfg["lp_gap_instances"]), "ratio", cfg["lp_gap_instances"])
    result.metric("bench.tracing_overhead_share", (traced_p50 - untraced_p50) / untraced_p50, "ratio", len(traced))
    result.lines.append(f"size-balanced p50: untraced {untraced_p50:.3f} ms, traced {traced_p50:.3f} ms")
    return result


def _lp_gap(solved, limit: int) -> float:
    """Largest relative gap of FR-OPT below the exact LP optimum, n <= 100."""
    gap = 0.0
    small = [(item, res) for item, res, _ in solved if item.instance.n_tasks <= 100][:limit]
    for item, res in small:
        _, lp_value = solve_lp_relaxation(item.instance)
        gap = max(gap, (lp_value - res.info.extra["fractional_accuracy"]) / abs(lp_value))
    return gap

