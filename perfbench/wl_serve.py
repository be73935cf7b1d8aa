"""serve-single and serve-cluster: load against a server process in two phases.

Requests are ``POST /solve?scheduler=approx`` with distinct instances
(n ∈ {10, 20, 40}, m = 4), while a ``GET /metrics`` scrape runs at 1 Hz
on the same connections.  The latency phase sends them back to back over
one connection, so no request queues behind another; the capacity phase
that follows sends them back to back over two connections, and its
answers per second are the server's capacity.

* ``single``: the server of ``repro serve`` (``make_server``) with its
  journal on, fsync per append.
* ``cluster``: ``ClusterManager`` with two shards behind
  ``make_cluster_server``, journals under one root (default
  ``fsync="rotate"``) and a finite budget B of twice the sum of the
  requests' own budgets.  Seeded trace ids make the consistent-hash
  routing identical on every run.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.registry import make_scheduler
from repro.core.serialization import instance_from_dict
from repro.durability import recover

import spans
from calibrate import Speed
from inputs import ServeInputs, rng_for, serve_inputs
from loadgen import ClosedLoop, Outcome, closed_loop_rate, phase_verdict
from procs import ServerProcess, get
from report import Result, median
from stats import (
    digest,
    family_total,
    histogram_quantile,
    median_band,
    merged_histogram,
    parse_prometheus,
    percentile,
    )

REL_TOL = 1e-9
SCRAPE_LOG = []
LOOP_T0 = []


def _budget_for(inputs: ServeInputs) -> float:
    """B = twice the sum of every request's own budget (derived from inputs only)."""
    return 2.0 * sum(float(doc["budget"]) for doc in inputs.docs)


def _warm_indices(inputs: ServeInputs, launch: int) -> List[int]:
    k = len(inputs.warm) // inputs.launches
    return inputs.warm[launch * k : (launch + 1) * k]


def _launch(mode: str, workdir: Path, inputs: ServeInputs, launch: int, trace: bool, budget: float) -> ServerProcess:
    warm = _warm_indices(inputs, launch)
    server = ServerProcess(mode, workdir, trace=trace, budget=budget if mode == "cluster" else None)
    try:
        return server.start([inputs.bodies[i] for i in warm], [inputs.headers(i) for i in warm])
    except BaseException:
        server.kill()
        raise


def _drive(
    server: ServerProcess,
    inputs: ServeInputs,
    indices: List[int],
    cfg: dict,
    common: dict,
    connections: int,
    speed: Optional[Speed] = None,
):
    """Send ``indices`` back to back over ``connections``, with the 1 Hz scrape.

    With ``speed``, a reference timing is taken between two requests
    every ``probe_period_s``.
    """
    scrapes: List[float] = []

    def scrape(conn) -> None:
        t0 = time.perf_counter()
        conn.request("GET", "/metrics")
        conn.getresponse().read()
        scrapes.append(time.perf_counter() - t0)

    loop = ClosedLoop(
        server.port,
        "/solve?scheduler=approx",
        [inputs.bodies[i] for i in indices],
        [inputs.headers(i) for i in indices],
        connections=connections,
        timeout_s=common["request_timeout_s"],
        side_task=scrape,
        side_period_s=cfg["scrape_period_s"],
        between=None if speed is None else speed.probe,
        between_period_s=cfg["probe_period_s"],
    )
    return loop.run(), scrapes


def _check_answers(result: Result, inputs: ServeInputs, pairs) -> None:
    """Every 200 answer is feasible and within its own instance budget."""
    for doc_index, body in pairs:
        budget = float(inputs.docs[doc_index]["budget"])
        result.check(
            bool(body.get("feasible")) and not body.get("violations"),
            f"request {doc_index}: infeasible answer {body.get('violations')}",
        )
        energy = float(body["metrics"]["energy_joules"])
        result.check(energy <= budget * (1 + REL_TOL), f"request {doc_index}: energy {energy} exceeds budget {budget}")


def _check_sample(result: Result, seed: int, inputs: ServeInputs, pairs, size: int) -> None:
    """A seeded sample of served answers equals an in-process solve of the same document."""
    rng = rng_for(seed, "serve-sample")
    if not pairs:
        return
    picks = rng.choice(len(pairs), size=min(size, len(pairs)), replace=False)
    scheduler = make_scheduler("approx")
    for p in sorted(int(x) for x in picks):
        doc_index, body = pairs[p]
        instance = instance_from_dict(inputs.docs[doc_index])
        served_budget = float(body["metrics"]["budget_joules"])
        if served_budget != instance.budget:  # a cluster worker clipped it to its grant
            instance = dataclasses.replace(instance, budget=served_budget)
        local = scheduler.solve_with_info(instance).schedule
        served = np.asarray(body["schedule"]["times"], dtype=float)
        same = served.shape == local.times.shape and np.allclose(served, local.times, rtol=1e-9, atol=1e-12)
        result.check(same, f"request {doc_index}: served schedule differs from the in-process solve")


def _latencies(outcomes: List[Outcome]) -> List[float]:
    """Latency; a failed request counts as infinitely late."""
    return [o.latency if o.ok else math.inf for o in outcomes]


def run(mode: str, seed: int, seconds: int, trace: bool, cfg: dict, common: dict, workdir: Path) -> Result:
    result = Result()
    limit = cfg["latency_limit_ms"] / 1e3
    if trace:
        # Traced run: the latency phase only, the same requests against
        # alternately untraced and traced fresh servers.
        latency_s, capacity_s, launches = seconds / len(TRACE_PASSES), 0.0, len(TRACE_PASSES)
    else:
        latency_s = seconds * cfg["latency_share"]
        capacity_s, launches = seconds - latency_s, common["setup_launches"]
    # Each phase is a fixed amount of work, sized from the run's seconds
    # at about the rates each server answered in the seed state.
    inputs = serve_inputs(
        seed,
        cfg["sizes"],
        cfg["m"],
        launches,
        cfg["warm_per_launch"],
        int(math.ceil(cfg["latency_requests_per_s"][mode] * latency_s)),
        int(math.ceil(cfg["capacity_requests_per_s"][mode] * capacity_s)),
    )
    budget = _budget_for(inputs)
    result.digest = (
        f"input digest: {digest(inputs.bodies)} ({len(inputs.latency)} latency-phase and"
        f" {len(inputs.capacity)} capacity-phase requests, {len(inputs.warm)} warm-up)"
    )
    if trace:
        return _run_traced(mode, inputs, budget, cfg, common, workdir, result)

    setups: List[float] = []
    server: Optional[ServerProcess] = None
    try:
        for launch in range(launches):
            if server is not None:
                server.stop()
            server = _launch(mode, workdir / f"launch{launch}", inputs, launch, False, budget)
            setups.append(server.setup_s)
        speed = Speed(cfg["probe_seconds"], cfg["probe_scale"])
        outcomes, scrapes = _drive(server, inputs, inputs.latency, cfg, common, 1, speed)
        closed, more_scrapes = _drive(server, inputs, inputs.capacity, cfg, common, common["connections"])
        _, final_metrics = get(server.port, "/metrics")
        peak_rss = server.peak_rss_mb()
        report = server.stop()
    finally:
        if server is not None:
            server.kill()

    result.attempted = len(outcomes) + len(closed)
    result.failed = sum(1 for o in outcomes + closed if not o.ok)
    ok_pairs = [(inputs.latency[o.index], o.body) for o in outcomes if o.ok]
    closed_pairs = [(inputs.capacity[o.index], o.body) for o in closed if o.ok]
    warm_pairs = list(zip(_warm_indices(inputs, launches - 1), server.warm_outcomes))
    _check_answers(result, inputs, warm_pairs + ok_pairs + closed_pairs)
    _check_sample(result, seed, inputs, ok_pairs + closed_pairs, cfg["compare_sample"])
    _check_ledger(result, mode, server, report, warm_pairs + ok_pairs + closed_pairs, budget)

    verdict = phase_verdict(outcomes, limit)
    result.timing("latency_ms", [o.latency for o in outcomes if o.ok])
    result.lines.append(
        f"  latency phase: n={verdict['n']} p90={verdict['p90_s'] * 1e3:.1f} ms"
        f" failed={verdict['failed_share']:.3f} degrading={verdict['degrading']} passes={verdict['passes']}"
    )
    result.timing("capacity_phase_latency_ms", [o.latency for o in closed if o.ok])
    lat = _latencies(outcomes)
    result.timing("loadgen.lateness_ms", [o.lateness for o in outcomes])
    result.timing("solver_runtime_ms", [float(b["metrics"]["runtime_seconds"]) for _, b in ok_pairs])
    result.timing("metrics_scrape_ms", scrapes + more_scrapes)
    served = sum(1 for o in closed if o.ok)
    result.lines.append(
        f"capacity phase: {served} answers over {common['connections']} connections in {max(o.done for o in closed):.2f} s"
    )
    factor = speed.factor
    result.lines.append(speed.line())
    p50, p90, capacity_rate = percentile(lat, 50.0) * 1e3, percentile(lat, 90.0) * 1e3, closed_loop_rate(closed)
    result.lines.append(f"raw: latency_p50_ms {p50:.4f}, latency_p90_ms {p90:.4f}, max_rate_per_s {capacity_rate:.3f}")
    n_tasks = sum(len(inputs.docs[i]["tasks"]) for i, _ in ok_pairs)
    result.metric("setup_s", median(setups), "s", len(setups))
    result.metric("peak_rss_mb", peak_rss, "MB", 1)
    result.metric("latency_p50_ms", p50 / factor, "ms", len(lat))
    result.metric("latency_p90_ms", p90 / factor, "ms", len(lat))
    result.metric("max_rate_per_s", capacity_rate * factor, "1/s", served)
    result.metric(
        "mean_accuracy", sum(float(b["metrics"]["total_accuracy"]) for _, b in ok_pairs) / max(n_tasks, 1), "ratio", n_tasks
    )
    result.metric("on_time_share", sum(1 for x in lat if x <= limit) / len(lat), "ratio", len(lat))
    if mode == "cluster":
        layer = _cluster_layer(final_metrics, report)
        result.lines.append("cluster: " + ", ".join(f"{k.split('.', 1)[1]}={v:.3g}" for k, v in layer.items()))
    return result


def _check_ledger(result: Result, mode: str, server: ServerProcess, report: dict, pairs, budget: float) -> None:
    if mode == "single":
        spent = recover(str(server.workdir / "journal")).energy_spent
        served = sum(float(b["metrics"]["energy_joules"]) for _, b in pairs)
        result.check(
            math.isclose(spent, served, rel_tol=1e-9, abs_tol=1e-9),
            f"journal recovers {spent} J but responses sum to {served} J",
        )
    else:
        result.check(report["audit_certified"], f"audit_cluster did not certify: {report['audit_summary']}")
        result.check(not report["ledger_violations"], f"ledger audit: {report['ledger_violations']}")
        spent = float(report["ledger"]["total_spent"])
        result.check(spent <= budget * (1 + REL_TOL), f"cluster spent {spent} J over budget {budget} J")


def _cluster_layer(final_metrics: bytes, report: dict) -> Dict[str, float]:
    """Cluster numbers from the program's own exports (/metrics, shard stats, ledger)."""
    samples = parse_prometheus(final_metrics.decode())
    wait = merged_histogram(samples, "frontend_queue_delay_seconds")
    solves = [v for v in report["shard_solves"].values() if v is not None]
    shards = report["ledger"]["shards"].values()
    return {
        "cluster.queue_wait_ms_p50": (histogram_quantile(wait, 0.5) or 0.0) * 1e3,
        "cluster.queue_wait_ms_p90": (histogram_quantile(wait, 0.9) or 0.0) * 1e3,
        "cluster.shard_skew": max(solves) / (sum(solves) / len(solves)) if solves and sum(solves) else 0.0,
        "cluster.ledger.denied": float(sum(int(s.get("denied", 0)) for s in shards)),
        "cluster.ledger.rebalances": float(report["ledger"]["rebalances"]),
        "cluster.retries": family_total(samples, "frontend_retries_total"),
        "overload.shed": family_total(samples, "overload_shed_total"),
    }


#: The traced run alternates untraced and traced servers, so a drift in the
#: box's speed during the run falls on both sides of the overhead estimate.
TRACE_PASSES = (False, True, False, True)


def _request_rows(mode: str, key: str, outcome: Outcome, per_key) -> Dict[str, float]:
    """One traced request's time by layer, including what the spans cannot see."""
    row = dict(per_key.get(key, {}))
    row["loadgen.delay"] = outcome.lateness
    if mode == "cluster":
        # The solve ran in a shard worker: its time comes from the response,
        # and the rest of the wait for the result is dispatch.
        runtime = float(outcome.body["metrics"]["runtime_seconds"])
        row["algorithms (worker)"] = runtime
        row["cluster.dispatch"] = row.pop("cluster.wait", 0.0) - runtime
    return row


def _run_traced(mode, inputs, budget, cfg, common, workdir, result) -> Result:
    measured = inputs.latency
    plain: List[Outcome] = []
    traced: List[Outcome] = []
    totals: Dict[str, float] = {}
    rows: Dict[str, Dict[str, float]] = {}
    durations: Dict[str, List[float]] = {}
    all_nodes = []
    for k, trace in enumerate(TRACE_PASSES):
        server = None
        try:
            server = _launch(mode, workdir / f"pass{k}", inputs, k, trace, budget)
            outcomes, _ = _drive(server, inputs, measured, cfg, common, 1)
            _, final_metrics = get(server.port, "/metrics")
            report = server.stop()
        finally:
            if server is not None:
                server.kill()
        ok_pairs = [(measured[o.index], o.body) for o in outcomes if o.ok]
        warm_pairs = list(zip(_warm_indices(inputs, k), server.warm_outcomes))
        _check_answers(result, inputs, warm_pairs + ok_pairs)
        _check_ledger(result, mode, server, report, warm_pairs + ok_pairs, budget)
        result.attempted += len(outcomes)
        result.failed += sum(1 for o in outcomes if not o.ok)
        if not trace:
            plain += outcomes
            continue
        traced += outcomes
        nodes = spans.self_times(spans.spans_from_json(report["spans"]))
        spans.inherit_keys(nodes)
        all_nodes += nodes
        per_key = spans.self_by_key(nodes)
        for node in nodes:
            durations.setdefault(node.span.name, []).append(node.span.duration)
        for o in outcomes:
            if o.ok:
                tid = inputs.trace_ids[measured[o.index]]
                totals[f"{k}:{tid}"] = o.latency
                rows[f"{k}:{tid}"] = _request_rows(mode, tid, o, per_key)
        last_metrics, last_report = final_metrics, report

    untraced_p50 = percentile(_latencies(plain), 50.0)
    traced_p50 = percentile(_latencies(traced), 50.0)
    keys = list(totals)
    band = [keys[j] for j in median_band([totals[key] for key in keys])]
    table, rest, total = spans.layer_table(totals, rows, band)
    result.lines.append(
        spans.format_table(
            "per-layer split of a median latency-phase request "
            f"(untraced p50 {untraced_p50 * 1e3:.3f} ms, traced p50 {traced_p50 * 1e3:.3f} ms)",
            table,
            rest,
            total,
        )
    )

    def p(name: str, q: float) -> float:
        values = durations.get(name)
        return percentile(values, q) * 1e3 if values else 0.0

    ok = [o for o in traced if o.ok]
    n = len(ok)
    non_solve = [(o.done - o.sent) - float(o.body["metrics"]["runtime_seconds"]) for o in plain if o.ok]
    if mode == "single":
        for name, value in spans.solver_layer_metrics(all_nodes, sum(totals.values())).items():
            result.metric(name, value, "count" if "calls" in name else "ratio", n)
        result.metric("core.decode_ms_p50", p("core.decode", 50), "ms", len(durations.get("core.decode", [])))
        result.metric("core.payload_ms_p50", p("core.payload", 50), "ms", len(durations.get("core.payload", [])))
        result.metric("server.non_solve_ms_p50", percentile(non_solve, 50.0) * 1e3, "ms", len(non_solve))
        result.metric("server.unattributed_share", rest / total, "ratio", len(band))
        appends = len(durations.get("durability.append", []))
        result.metric("durability.append_ms_p50", p("durability.append", 50), "ms", appends)
        result.metric("durability.append_ms_p90", p("durability.append", 90), "ms", appends)
        result.metric(
            "durability.snapshot_ms_p50", p("durability.snapshot", 50), "ms", len(durations.get("durability.snapshot", []))
        )
    else:
        submit = {node.span.key: node.span.duration for node in all_nodes if node.span.name == "cluster.submit"}
        http = [
            o.done - o.sent - submit[inputs.trace_ids[measured[o.index]]]
            for o in ok
            if inputs.trace_ids[measured[o.index]] in submit
        ]
        dispatch = [row["cluster.dispatch"] for row in rows.values()]
        ledger = [d for name, ds in durations.items() if name.startswith("cluster.ledger.") for d in ds]
        served = len(traced) + len(inputs.warm) // inputs.launches * TRACE_PASSES.count(True)
        windows = len(durations.get("cluster.ledger.reserve", []))
        result.metric("cluster.non_solve_ms_p50", percentile(non_solve, 50.0) * 1e3, "ms", len(non_solve))
        result.metric("cluster.http_ms_p50", percentile(http, 50.0) * 1e3 if http else 0.0, "ms", len(http))
        result.metric("cluster.dispatch_ms_p50", percentile(dispatch, 50.0) * 1e3, "ms", len(dispatch))
        result.metric("cluster.ledger.ops_per_request", len(ledger) / served, "count", len(ledger))
        result.metric("cluster.ledger.busy_ms", sum(ledger) * 1e3, "ms", len(ledger))
        result.metric("cluster.window_size_mean", served / windows if windows else 0.0, "count", windows)
        for name, value in _cluster_layer(last_metrics, last_report).items():
            unit = {"cluster.shard_skew": "ratio"}.get(name, "ms" if "_ms_" in name else "count")
            result.metric(name, value, unit, n)
    result.metric(
        "resilience.admission.rejected", float(sum(1 for o in plain + traced if o.status == 503)), "count", len(plain) + n
    )
    result.metric("loadgen.lateness_ms_p90", percentile([o.lateness for o in plain], 90.0) * 1e3, "ms", len(plain))
    result.metric("bench.tracing_overhead_share", (traced_p50 - untraced_p50) / untraced_p50, "ratio", n)
    return result
