"""The serving benchmark: load-generate against one process and a cluster.

``repro bench serve`` answers the operational question the cluster
exists for — *what does sharding buy, at what tail latency, for how
much energy?* — by driving the same request mix through

1. a **single-process baseline**: a
   :class:`~repro.cluster.worker.LocalShard`, the in-process shard the
   plain server runs (every request solved on its client's thread, so
   the GIL bounds the throughput of one process), and
2. an **N-shard cluster**: requests routed, batched into solve windows,
   solved by worker processes under per-shard energy leases.

Both sides are driven through the same call,
``submit(scheduler, instance_doc, trace_id=...)``.

Both sides run the same closed-loop load (``concurrency`` clients
issuing back-to-back requests for ``duration`` seconds) or an open-loop
arrival schedule (``rate`` requests/s, Poisson), and report throughput,
p50/p90/p99 latency and error mix.  The cluster run additionally reports
per-shard energy spend and the :func:`~repro.cluster.ledger.audit_cluster`
certificate that the shards' journalled spends sum within the global
budget.  Results are written to ``benchmarks/BENCH_serve.json``
alongside ``cpu_count`` — a 4-shard cluster on one core *cannot* show a
4× speedup, and the artifact must let a reader see that.
"""

from __future__ import annotations

import contextvars
import json
import os
import random
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..core.serialization import instance_to_dict
from ..telemetry import new_trace_id
from ..utils.fileio import atomic_write
from ..utils.validation import check_positive, require
from .frontend import ClusterConfig, ClusterManager
from .ledger import audit_cluster
from .worker import LocalShard, WorkerConfig

__all__ = ["LoadStats", "run_load", "bench_serve"]


class LoadStats:
    """Latency/throughput aggregate of one load run."""

    def __init__(self, latencies: List[float], statuses: List[int], duration: float):
        self.latencies = sorted(latencies)
        self.statuses = statuses
        self.duration = float(duration)

    @staticmethod
    def _percentile(values: List[float], q: float) -> float:
        if not values:
            return float("nan")
        index = min(int(q * len(values)), len(values) - 1)
        return values[index]

    def to_dict(self) -> Dict[str, Any]:
        ok = sum(1 for s in self.statuses if s == 200)
        by_status: Dict[str, int] = {}
        for status in self.statuses:
            by_status[str(status)] = by_status.get(str(status), 0) + 1
        return {
            "requests": len(self.statuses),
            "ok": ok,
            "errors": len(self.statuses) - ok,
            "by_status": by_status,
            "duration_s": self.duration,
            "throughput_rps": (ok / self.duration) if self.duration > 0 else 0.0,
            "latency_s": {
                "mean": (sum(self.latencies) / len(self.latencies)) if self.latencies else float("nan"),
                "p50": self._percentile(self.latencies, 0.50),
                "p90": self._percentile(self.latencies, 0.90),
                "p99": self._percentile(self.latencies, 0.99),
            },
        }


def run_load(
    submit: Callable[[], int],
    *,
    duration: float,
    concurrency: int = 4,
    rate: Optional[float] = None,
    seed: int = 0,
) -> LoadStats:
    """Drive ``submit`` (returns an HTTP-ish status) for ``duration`` seconds.

    ``rate=None`` runs closed-loop: ``concurrency`` clients issue
    back-to-back requests.  With ``rate`` the load is open-loop: arrivals
    follow a Poisson schedule at ``rate`` req/s (capped by the same
    client pool), which is the arrival model the paper's online setting
    assumes — queueing delay then shows up in the measured latency.
    """
    check_positive(duration, "duration")
    require(concurrency >= 1, f"concurrency must be >= 1, got {concurrency}")
    latencies: List[float] = []
    statuses: List[int] = []
    record_lock = threading.Lock()
    deadline = time.perf_counter() + duration

    def one_request() -> None:
        t0 = time.perf_counter()
        status = submit()
        t1 = time.perf_counter()
        with record_lock:
            latencies.append(t1 - t0)
            statuses.append(status)

    def closed_loop() -> None:
        while time.perf_counter() < deadline:
            one_request()

    threads: List[threading.Thread] = []
    if rate is None:
        for index in range(concurrency):
            context = contextvars.copy_context()
            threads.append(
                threading.Thread(target=lambda c=context: c.run(closed_loop), name=f"load-{index}", daemon=True)
            )
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        check_positive(rate, "rate")
        rng = random.Random(seed)
        start = time.perf_counter()
        clock = start
        while clock < deadline:
            clock += rng.expovariate(rate)
            now = time.perf_counter()
            if clock > now:
                time.sleep(clock - now)
            context = contextvars.copy_context()
            thread = threading.Thread(target=lambda c=context: c.run(one_request), daemon=True)
            thread.start()
            threads.append(thread)
            # Bound the outstanding pool so open loop cannot fork-bomb.
            if len(threads) > 4 * concurrency:
                threads.pop(0).join()
        for thread in threads:
            thread.join(timeout=30.0)
    elapsed = time.perf_counter() - start
    return LoadStats(latencies, statuses, elapsed)


def _make_instance_doc(n: int, m: int, beta: float, seed: int) -> Dict[str, Any]:
    from ..hardware.sampling import sample_uniform_cluster
    from ..workloads.generator import TaskGenConfig, generate_instance

    cluster = sample_uniform_cluster(m, seed=seed)
    instance = generate_instance(TaskGenConfig(n=n), cluster, beta, seed=seed + 1)
    return instance_to_dict(instance)


def bench_serve(
    out_path: str = "benchmarks/BENCH_serve.json",
    *,
    shards: int = 4,
    duration: float = 5.0,
    concurrency: int = 8,
    rate: Optional[float] = None,
    scheduler: str = "approx",
    n_tasks: int = 20,
    n_machines: int = 4,
    beta: float = 0.5,
    budget: Optional[float] = None,
    journal_root: Optional[str] = None,
    max_batch: int = 8,
    seed: int = 0,
    skip_single: bool = False,
    command: Optional[str] = None,
    progress: Callable[[str], None] = print,
) -> Dict[str, Any]:
    """The ``repro bench serve`` implementation; returns the written report.

    ``command`` is the command line that produced the run, recorded in
    the report next to ``cpu_count``.
    """
    instance_doc = _make_instance_doc(n_tasks, n_machines, beta, seed)
    report: Dict[str, Any] = {
        "benchmark": "cluster-serve",
        "command": command,
        "cpu_count": os.cpu_count(),
        "note": (
            "speedup is bounded by cpu_count: N solver processes cannot beat one "
            "process on a single core, they only add IPC overhead there"
        ),
        "config": {
            "shards": shards,
            "duration_s": duration,
            "concurrency": concurrency,
            "rate_rps": rate,
            "scheduler": scheduler,
            "instance": {"n": n_tasks, "m": n_machines, "beta": beta, "seed": seed},
            "budget_joules": budget,
            "max_batch": max_batch,
        },
    }

    def submit_to(target: Any) -> Callable[[], int]:
        return lambda: int(target.submit(scheduler, instance_doc, trace_id=new_trace_id()).get("status", 200))

    if not skip_single:
        progress(f"single-process baseline: {concurrency} client(s), {duration:.1f} s ...")
        # The bound sits above run_load's outstanding-request cap, so
        # admission never sheds the baseline's own load.
        local = LocalShard(WorkerConfig("single", max_in_flight=5 * concurrency, profile_hz=0.0))
        single = run_load(
            submit_to(local), duration=duration, concurrency=concurrency, rate=rate, seed=seed
        ).to_dict()
        report["single"] = single
        progress(
            f"  {single['throughput_rps']:.1f} req/s, "
            f"p99 {single['latency_s']['p99'] * 1000:.0f} ms"
        )

    progress(f"{shards}-shard cluster: {concurrency} client(s), {duration:.1f} s ...")
    cluster_config = ClusterConfig(
        shards=shards,
        budget=budget,
        journal_root=journal_root,
        max_batch=max_batch,
        fsync="never" if journal_root is None else "rotate",
    )
    with ClusterManager(cluster_config) as manager:
        cluster_stats = run_load(
            submit_to(manager), duration=duration, concurrency=concurrency, rate=rate, seed=seed
        ).to_dict()
        report["cluster"] = cluster_stats
        report["ledger"] = manager.ledger.to_dict()
        stats = manager.shard_stats()
        report["per_shard"] = {
            shard: (
                None
                if doc is None
                else {"energy_spent_joules": doc["energy_spent"], "solves": doc["solves_total"]}
            )
            for shard, doc in stats.items()
        }
    progress(
        f"  {cluster_stats['throughput_rps']:.1f} req/s, "
        f"p99 {cluster_stats['latency_s']['p99'] * 1000:.0f} ms"
    )

    if not skip_single and report["single"]["throughput_rps"] > 0:
        report["speedup"] = cluster_stats["throughput_rps"] / report["single"]["throughput_rps"]
        progress(f"  speedup over single process: {report['speedup']:.2f}x on {report['cpu_count']} CPU(s)")

    if journal_root is not None:
        audit = audit_cluster(journal_root, budget=budget)
        report["audit"] = {
            "certified": audit.certified,
            "total_spent_joules": audit.total_spent,
            "budget_joules": budget,
            "violations": audit.violations,
            "shard_spend": audit.shard_spend,
        }
        progress("  " + audit.summary())

    path = Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    progress(f"report written to {path}")
    return report
