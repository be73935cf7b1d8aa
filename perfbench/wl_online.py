"""online-replan: replay a bursty request stream through the rolling-horizon planner.

Closed loop, as fast as possible: a seeded ``MMPPArrivals`` stream is cut
into 2 s windows and each window is planned with
``RollingHorizonPlanner(ApproxScheduler())`` on m = 4 machines.  Each
window refits its tasks' accuracy curves (``tasks_from_thetas``) and
solves them; consecutive windows are what a warm-started solver would
reuse.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional

from repro.algorithms import ApproxScheduler
from repro.core.serialization import instance_to_dict
from repro.online import RollingHorizonPlanner

import spans
from calibrate import Speed
from inputs import make_instance, online_digest_docs, online_inputs, rng_for
from procs import self_peak_rss_mb
from report import Result, inproc_setup, median
from stats import digest, median_band, percentile, segmented_percentile

REL_TOL = 1e-9
PROBE_EVERY = 75


def _plan(planner: RollingHorizonPlanner, windows, key_prefix: str = "", speed: Optional[Speed] = None) -> List[tuple]:
    """Plan every window; returns ``(outcome, seconds)`` per window.

    With ``speed``, a reference timing is taken every ``PROBE_EVERY``
    windows, between windows.
    """
    out = []
    for i, (start, batch) in enumerate(windows):
        if speed is not None and i % PROBE_EVERY == 0:
            speed.probe()
        token = spans.current_key.set(f"{key_prefix}{i}")
        try:
            t0 = time.perf_counter()
            outcome = planner.plan_window(start, batch)
            elapsed = time.perf_counter() - t0
        finally:
            spans.current_key.reset(token)
        out.append((outcome, elapsed))
    return out


def _check(result: Result, planner: RollingHorizonPlanner, planned) -> None:
    budget = planner.window_budget
    for outcome, _ in planned:
        audit = outcome.schedule.feasibility()
        result.check(
            audit.feasible and not audit.violations, f"window at {outcome.start}: infeasible {audit.violations[:2]}"
        )
        result.check(
            outcome.energy <= budget * (1 + REL_TOL),
            f"window at {outcome.start}: energy {outcome.energy} exceeds window budget {budget}",
        )


def run(seed: int, seconds: int, trace: bool, cfg: dict, common: dict, workdir: Path) -> Result:
    result = Result()
    n_windows = max(cfg["min_windows"], cfg["windows_per_second"] * seconds)
    inputs, cluster = online_inputs(seed, cfg, n_windows)
    windows = inputs.windows
    result.digest = f"input digest: {digest(online_digest_docs(inputs))} ({len(windows)} windows)"
    planner = RollingHorizonPlanner(
        cluster,
        ApproxScheduler(),
        window_seconds=cfg["window_seconds"],
        power_cap_fraction=cfg["power_cap_fraction"],
    )
    warm_inputs, _ = online_inputs(seed + 1_000_003, cfg, 1)
    warm_instance = make_instance(10, len(cfg["gpus"]), 0.5, True, rng_for(seed, "online-warm"))
    sizes = [len(batch) for _, batch in windows]

    if not trace:
        setups = inproc_setup(workdir, instance_to_dict(warm_instance), common["setup_launches"])
        _plan(planner, warm_inputs.windows)  # warm this process too, untimed
        speed = Speed(common["reference_seconds"])
        planned = _plan(planner, windows, speed=speed)
        _check(result, planner, planned)
        result.attempted = len(planned)
        times = [s for _, s in planned]
        n_req = sum(o.n_requests for o, _ in planned)
        result.timing("window_ms", times)
        result.lines.append(f"window tasks: p50 {percentile(sizes, 50):.0f}, p90 {percentile(sizes, 90):.0f}")
        result.metric("setup_s", median(setups), "s", len(setups))
        result.metric("peak_rss_mb", self_peak_rss_mb(), "MB", 1)
        result.lines.append(speed.line())
        p50, p90 = segmented_percentile(times, 50.0) * 1e3, segmented_percentile(times, 90.0) * 1e3
        rate = n_req / sum(times)
        result.lines.append(f"raw: latency_p50_ms {p50:.4f}, latency_p90_ms {p90:.4f}, max_rate_per_s {rate:.2f}")
        result.metric("latency_p50_ms", p50 / speed.factor, "ms", len(times))
        result.metric("latency_p90_ms", p90 / speed.factor, "ms", len(times))
        result.metric("max_rate_per_s", rate * speed.factor, "1/s", len(times))
        result.metric(
            "mean_accuracy", sum(float(o.accuracies.sum()) for o, _ in planned) / n_req, "ratio", n_req
        )
        result.metric("on_time_share", sum(o.on_time for o, _ in planned) / n_req, "ratio", n_req)
        return result

    # Traced run: a quarter of the windows, planned alternately untraced
    # and traced (twice each), so the overhead estimate compares like with
    # like and a drift in the box's speed falls on both sides.
    _plan(planner, warm_inputs.windows)
    subset = windows[: max(len(windows) // 4, 1)]
    plain, traced, nodes = [], [], []
    for k in range(4):
        if k % 2 == 0:
            plain += _plan(planner, subset)
            continue
        recorder = spans.Recorder()
        recorder.install(spans.SOLVER_TARGETS + spans.ONLINE_TARGETS)
        try:
            traced += _plan(planner, subset, key_prefix=f"{k}:")
        finally:
            recorder.uninstall()
        nodes += spans.self_times(recorder.spans)
    _check(result, planner, plain + traced)
    result.attempted = len(plain) + len(traced)
    plain_t = [s for _, s in plain]
    traced_t = [s for _, s in traced]
    per_key = spans.self_by_key(nodes)
    totals = {f"{k}:{i}": s for k, part in ((1, traced_t[: len(subset)]), (3, traced_t[len(subset) :])) for i, s in enumerate(part)}
    keys = list(totals)
    band = [keys[j] for j in median_band([totals[key] for key in keys])]
    rows, rest, total = spans.layer_table(totals, per_key, band)
    untraced_p50, traced_p50 = percentile(plain_t, 50.0), percentile(traced_t, 50.0)
    result.lines.append(
        spans.format_table(
            f"per-layer split of a median window (untraced p50 {untraced_p50 * 1e3:.3f} ms, traced p50 {traced_p50 * 1e3:.3f} ms)",
            rows,
            rest,
            total,
        )
    )
    window_total = sum(traced_t)
    for name, value in spans.solver_layer_metrics(nodes, window_total).items():
        result.metric(name, value, "count" if "calls" in name else "ratio", len(traced))
    fit = sum(n.self_time for n in nodes if n.span.name == "workloads.fit")
    solve = sum(n.span.duration for n in nodes if n.span.name == "online.solve")
    result.metric("workloads.fit.share", fit / window_total, "ratio", len(traced))
    result.metric("online.solve.share", solve / window_total, "ratio", len(traced))
    result.metric("online.window_tasks_p90", percentile(sizes, 90.0), "count", len(sizes))
    result.metric("bench.tracing_overhead_share", (traced_p50 - untraced_p50) / untraced_p50, "ratio", len(traced))
    return result
