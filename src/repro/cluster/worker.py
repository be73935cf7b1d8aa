"""The shard worker: a solver process with its own durable ledger.

Each shard of the cluster is one OS process running
:func:`worker_main`: a loop over a request queue whose envelopes carry
solve windows, stats probes, and shutdown.  Per shard — *not* shared
with any other process — the worker owns:

* a :class:`~repro.telemetry.MetricsRegistry` collecting its counters
  and solve spans (fetched by the front-end's ``stats`` probe for the
  cluster-level ``/metrics`` aggregation);
* an :class:`~repro.resilience.admission.AdmissionController` whose
  circuit breaker trips on repeated solver failures, shedding load at
  the shard before it melts;
* a :class:`~repro.durability.JournalWriter` + snapshot store — the
  shard's write-ahead energy ledger, recovered on restart and audited
  by :func:`repro.cluster.ledger.audit_cluster`;
* an optional :class:`~repro.observe.slo.BurnRateMonitor` watching the
  shard's spend rate against its lease.

Trace identity crosses the process boundary in data, not context: every
request in a window envelope carries its ``trace_id``, the worker
re-opens :func:`~repro.telemetry.trace_scope` around the solve, and the
journal record carries the id — so one trace correlates the front-end
span, the worker's solve span and the durable ledger entry.

:class:`LocalShard` runs the same shard state and solve path inside the
calling process, on the caller's thread: it is what ``repro serve``
(:func:`repro.server.make_server`) serves through the one HTTP handler.

Energy discipline: the envelope carries the window's ``grant`` (joules
reserved from the shard's lease by the front-end).  The worker solves
each request with its instance budget clipped to the remaining grant,
deducts realised energy, and *sheds* requests (503, ``lease_exhausted``)
once the grant runs dry — it can never spend a joule the ledger did not
reserve.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import queue
import signal
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, Optional, Sequence

from ..chaos import ChaosEvent, FaultInjector, WORKER_SITE
from ..core.instance import ProblemInstance
from ..core.serialization import instance_from_dict
from ..core.task import Task, TaskSet
from ..durability import JournalWriter, SnapshotStore, recover
from ..durability.journal import encode_record
from ..observe.slo import BurnRateMonitor
from ..observe.tracing import to_trace_events, trace_spans
from ..overload.brownout import BROWNOUT_LADDER
from ..profile.exports import merge_profiles
from ..profile.phases import hottest_phases, merge_phase_breakdowns, phase_breakdown
from ..profile.sampler import StackSampler
from ..resilience.admission import AdmissionController
from ..resilience.degrade import truncate_accuracy
from ..telemetry import MetricsRegistry, collector, new_trace_id, trace_scope
from ..utils.errors import FallbackExhaustedError, ReproError, SolverTimeoutError
from .solve_service import SolveService, SolveServiceConfig, solve_payload

__all__ = ["LocalShard", "WorkerConfig", "worker_main", "SERVING_SPAN_LIMIT"]

#: Spans a long-lived serving registry keeps (the most recent ones): a
#: shard records about a dozen per solve, and ``/trace/<id>`` and
#: ``/debug/profile`` read the whole store on every call.
SERVING_SPAN_LIMIT = 10_000


class WorkerConfig:
    """Plain-data worker configuration (must survive pickling to the child)."""

    def __init__(
        self,
        shard: str,
        *,
        journal_dir: Optional[str] = None,
        solver_timeout: Optional[float] = None,
        fallback: bool = False,
        max_in_flight: int = 4,
        snapshot_every: int = 25,
        fsync: str = "always",
        lease_horizon_seconds: Optional[float] = None,
        chaos_events: Optional[Sequence[ChaosEvent]] = None,
        profile_hz: float = 19.0,
    ):
        self.shard = str(shard)
        self.journal_dir = journal_dir
        self.solver_timeout = solver_timeout
        self.fallback = bool(fallback)
        self.max_in_flight = int(max_in_flight)
        self.snapshot_every = int(snapshot_every)
        self.fsync = fsync
        self.lease_horizon_seconds = lease_horizon_seconds
        #: continuous-profiler sampling rate; ``0`` disables the sampler
        self.profile_hz = float(profile_hz)
        #: planned worker-site chaos faults (frozen dataclasses pickle across fork)
        self.chaos_events = tuple(chaos_events) if chaos_events else ()


class _ShardState:
    """Everything one shard owns: built once inside the worker child, or
    in-process by :class:`LocalShard` (optionally around a caller's
    registry and admission controller)."""

    def __init__(
        self,
        config: WorkerConfig,
        *,
        telemetry: Optional[MetricsRegistry] = None,
        admission: Optional[AdmissionController] = None,
    ):
        self.config = config
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry(max_spans=SERVING_SPAN_LIMIT)
        self.service = SolveService(SolveServiceConfig(solver_timeout=config.solver_timeout, fallback=config.fallback))
        self.admission = (
            admission if admission is not None else AdmissionController(max_in_flight=config.max_in_flight)
        )
        # Guards the spend counters and the journal.  In-process, handler
        # threads race on them; in a worker process it is never contended.
        self.lock = threading.Lock()
        self.journal: Optional[JournalWriter] = None
        self.snapshots: Optional[SnapshotStore] = None
        self.energy_spent = 0.0
        self.solves_since_snapshot = 0
        self.solves_total = 0
        self.started_at = time.monotonic()
        self.burn: Optional[BurnRateMonitor] = None
        self.cancelled: set = set()  # trace ids the front-end withdrew (hedge losers)
        self.brownout_level = 0  # cluster-wide level stamped into window envelopes
        self.injector: Optional[FaultInjector] = None
        if config.chaos_events:
            self.injector = FaultInjector(config.chaos_events, telemetry=self.telemetry)
        # The always-on continuous profiler.  Started *here*, inside the
        # child process — a sampler thread must never be running in the
        # parent when a worker forks (its lock could be held mid-fork).
        self.sampler: Optional[StackSampler] = None
        if config.profile_hz > 0.0:
            self.sampler = StackSampler(self.telemetry, hz=config.profile_hz).start()
        if config.journal_dir is not None:
            state = recover(config.journal_dir)
            self.journal = JournalWriter(config.journal_dir, fsync=config.fsync)
            self.snapshots = SnapshotStore(config.journal_dir, fsync=config.fsync != "never")
            self.energy_spent = state.energy_spent
            kind = "resume" if state.total_records else "run_start"
            record: Dict[str, Any] = {"type": kind, "meta": {"kind": "cluster-shard", "shard": config.shard}}
            if kind == "resume":
                record["cum_energy"] = state.energy_spent
            self.journal.append(record)

    def arm_burn_monitor(self, lease: float) -> None:
        horizon = self.config.lease_horizon_seconds
        if horizon is None or lease <= 0.0:
            return
        self.burn = BurnRateMonitor(
            budget=lease,
            horizon=horizon,
            start_time=time.monotonic() - self.started_at,
            start_energy=self.energy_spent,
        )

    def journal_solve(self, scheduler_name: str, energy: float, trace_id: Optional[str]) -> None:
        """Count one served solve and commit it to the shard's WAL.

        The one writer of serving ``solve`` records.  The append (fsync
        included) runs under the lock on purpose: ``cum_energy`` must be
        strictly ordered in the ledger, so concurrent solves serialise
        here, and the snapshot must capture a settled ledger.
        """
        with self.lock:
            cum = self.energy_spent + float(energy)
            if self.journal is not None:
                record: Dict[str, Any] = {
                    "type": "solve",
                    "shard": self.config.shard,
                    "scheduler": scheduler_name,
                    "energy": float(energy),
                    "cum_energy": cum,
                }
                if trace_id is not None:
                    record["trace_id"] = trace_id
                self.journal.append(record)  # repro: noqa[RL011]
            self.energy_spent = cum
            self.solves_total += 1
            if self.journal is None:
                return
            self.solves_since_snapshot += 1
            if 0 < self.config.snapshot_every <= self.solves_since_snapshot:
                assert self.snapshots is not None
                self.snapshots.save(  # repro: noqa[RL011]
                    {
                        "meta": {"kind": "cluster-shard", "shard": self.config.shard},
                        "windows": [],
                        "cum_energy": cum,
                        "level": -1,
                    },
                    journal_records=self.journal.record_count,
                )
                self.solves_since_snapshot = 0


def _brownout_instance(instance: ProblemInstance, level: int) -> ProblemInstance:
    """Apply the cluster-wide brownout level to one instance before solving.

    Level 1 caps each task's work at the rung's fraction of its maximum;
    levels 2+ force every task to its *lowest-θ variant* — the smallest
    positive breakpoint of its accuracy curve, i.e. the cheapest
    compression level the task ships with.  Tasks are never shed here
    (the front-end sheds whole best-effort *requests* at level 3); a
    browned-out window always answers every request, just less
    accurately.
    """
    if level <= 0:
        return instance
    rung = BROWNOUT_LADDER[min(level, len(BROWNOUT_LADDER) - 1)]
    tasks = []
    for task in instance.tasks:
        if rung.force_lowest:
            positive = task.accuracy.breakpoints[task.accuracy.breakpoints > 0]
            cap = float(positive[0]) if len(positive) else rung.work_cap_scale * task.f_max
        else:
            cap = rung.work_cap_scale * task.f_max
        acc = truncate_accuracy(task.accuracy, min(max(cap, 1e-12), task.f_max))
        tasks.append(Task(deadline=task.deadline, accuracy=acc, name=task.name))
    return ProblemInstance(TaskSet(tasks, assume_sorted=True), instance.cluster, instance.budget)


def _failed(state: _ShardState, status: int, error: str, trace_id: Optional[str], **extra: Any) -> Dict[str, Any]:
    state.telemetry.counter("worker_errors_total", shard=state.config.shard, status=str(status)).inc()
    return {"status": status, "error": error, "trace_id": trace_id, **extra}


def _solve_one(state: _ShardState, item: Dict[str, Any], remaining_grant: float, enforce: bool):
    """One request; returns ``(result_doc, energy_spent)``.

    The request is decoded and its scheduler built *before* admission: a
    malformed document or an unknown scheduler answers 400 and never
    reaches the circuit breaker, which counts only failures of admitted
    solves (503 for a timeout or an exhausted fallback chain, 500 for
    any other error, a failed journal append included).
    """
    tele = state.telemetry
    shard = state.config.shard
    trace_id = item.get("trace_id")
    name = str(item.get("scheduler", "approx"))
    if enforce and remaining_grant <= 0.0:
        tele.counter("worker_shed_total", shard=shard, reason="lease_exhausted").inc()
        return {"status": 503, "error": "lease_exhausted", "retry_after": 1.0, "trace_id": trace_id}, 0.0

    if trace_id is not None and trace_id in state.cancelled:
        state.cancelled.discard(trace_id)
        tele.counter("worker_cancelled_total", shard=shard).inc()
        return {"status": 499, "error": "cancelled by front-end", "trace_id": trace_id}, 0.0

    with trace_scope(trace_id) if trace_id else contextlib.nullcontext():
        try:
            instance = instance_from_dict(item["instance"])
            scheduler = state.service.build_scheduler(name)
            if enforce and instance.budget > remaining_grant:
                instance = dataclasses.replace(instance, budget=remaining_grant)
            if state.brownout_level > 0:
                instance = _brownout_instance(instance, state.brownout_level)
                tele.counter(
                    "worker_brownout_solves_total", shard=shard, level=str(state.brownout_level)
                ).inc()
        except ReproError as exc:
            return _failed(state, 400, str(exc), trace_id), 0.0
        except Exception as exc:  # noqa: BLE001 — a malformed document can fail in any shape
            return _failed(state, 400, f"invalid instance document: {exc}", trace_id), 0.0
        with tele.span("server.admission"):
            decision = state.admission.try_begin()
        if not decision.admitted:
            tele.counter("worker_shed_total", shard=shard, reason=decision.reason).inc()
            return {
                "status": 503,
                "error": f"shard overloaded ({decision.reason})",
                "retry_after": max(decision.retry_after_seconds, 1.0),
                "trace_id": trace_id,
            }, 0.0
        # Every failure below is recorded on the breaker BEFORE answering:
        # a client retrying on the 503 must observe the state it produced.
        try:
            with tele.span("server.solve", shard=shard, scheduler=name):
                result = state.service.solve(scheduler, instance)
            with tele.span("server.schedule"):
                energy = float(result.schedule.total_energy)
                state.journal_solve(scheduler.name, energy, trace_id)
                payload = solve_payload(scheduler.name, result, instance, trace_id=trace_id)
        except (SolverTimeoutError, FallbackExhaustedError) as exc:
            state.admission.finish(failure=True)
            retry_after = max(state.admission.retry_after_seconds, 1.0)
            return _failed(state, 503, f"solve timed out: {exc}", trace_id, retry_after=retry_after), 0.0
        except ReproError as exc:
            state.admission.finish(failure=True)
            return _failed(state, 500, f"solve failed: {exc}", trace_id), 0.0
        except Exception as exc:  # noqa: BLE001 — the worker must outlive any request
            state.admission.finish(failure=True)
            detail = traceback.format_exc(limit=3)
            return _failed(state, 500, f"internal error: {exc}", trace_id, detail=detail), 0.0
    state.admission.finish(failure=False)
    payload["status"] = 200
    payload["shard"] = shard
    if state.burn is not None:
        for alert in state.burn.observe(time.monotonic() - state.started_at, state.energy_spent):
            tele.counter("shard_burn_alerts_total", shard=shard, severity=alert.severity).inc()
    return payload, energy


def _apply_worker_fault(state: _ShardState, event: ChaosEvent) -> bool:
    """Apply a fired worker-site fault; ``True`` means *drop the reply*.

    The fault is journalled into the shard's own WAL first (``recover``
    tolerates foreign event types), so a post-mortem read of the ledger
    shows the fault next to the solves it perturbed.  Fatal kinds do not
    return.
    """
    if state.journal is not None and event.kind != "worker_exit":
        state.journal.append({"type": "chaos_event", **event.to_dict()})
    if event.kind == "worker_stall":
        time.sleep(max(event.magnitude, 0.0))
    elif event.kind == "reply_drop":
        return True
    elif event.kind == "worker_kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif event.kind == "worker_exit":
        # A clean-but-silent exit: the journal closes intact, no ack is sent.
        if state.journal is not None:
            state.journal.append({"type": "chaos_event", **event.to_dict()})
            state.journal.close()
        os._exit(0)
    elif event.kind == "journal_torn_write":
        # Tear the WAL tail mid-record, then die hard: recovery must repair
        # the torn frame and keep every record before it.
        if state.journal is not None:
            frame = encode_record(
                {
                    "type": "solve",
                    "shard": state.config.shard,
                    "scheduler": "torn",
                    "energy": 0.0,
                    "cum_energy": state.energy_spent,
                }
            )
            state.journal._fh.write(frame[: max(len(frame) // 2, 4)])
            state.journal._fh.flush()
        os._exit(1)
    return False


def _handle_window(
    state: _ShardState,
    envelope: Dict[str, Any],
    drain: Optional[Callable[[], None]] = None,
) -> Optional[Dict[str, Any]]:
    grant = envelope.get("grant")
    enforce = grant is not None
    remaining = float(grant) if enforce else float("inf")
    if enforce and state.burn is None:
        state.arm_burn_monitor(float(envelope.get("lease", grant)))
    level = int(envelope.get("brownout", 0))
    if level != state.brownout_level:
        # The front-end moved the cluster-wide brownout level; journal the
        # transition into the shard WAL (recover tolerates foreign record
        # types) so a post-mortem read shows *when* accuracy was degraded.
        if state.journal is not None:
            state.journal.append(
                {"type": "brownout", "shard": state.config.shard, "from": state.brownout_level, "to": level}
            )
        state.brownout_level = level
        state.telemetry.gauge("worker_brownout_level").set(level)
    drop_reply = False
    if state.injector is not None:
        event = state.injector.fire(WORKER_SITE, state.config.shard)
        if event is not None:
            drop_reply = _apply_worker_fault(state, event)
    spent = 0.0
    results = []
    elapsed = []
    with state.telemetry.span("worker.window", shard=state.config.shard):
        for item in envelope.get("requests", []):
            if drain is not None:
                drain()  # pick up cancellations racing this window
            began = time.monotonic()
            doc, energy = _solve_one(state, item, remaining, enforce)
            elapsed.append(time.monotonic() - began)
            results.append(doc)
            remaining -= energy
            spent += energy
    if drop_reply:
        return None
    return {
        "op": "window_done",
        "batch_id": envelope["batch_id"],
        "shard": state.config.shard,
        "epoch": envelope.get("epoch"),
        "results": results,
        "elapsed": elapsed,
        "spent": spent,
        "cum_energy": state.energy_spent,
    }


def _handle_stats(state: _ShardState, envelope: Dict[str, Any]) -> Dict[str, Any]:
    """Counters plus metric series only: a scrape never ships the spans."""
    with state.lock:
        counters = {
            "energy_spent": state.energy_spent,
            "solves_total": state.solves_total,
            "journal_records": state.journal.record_count if state.journal is not None else 0,
        }
    return {
        **counters,
        "breaker_state": state.admission.breaker.state,
        "brownout_level": state.brownout_level,
        "telemetry": state.telemetry.snapshot(spans=False),
        "burn_alerts": [a.severity for a in state.burn.alerts] if state.burn is not None else [],
    }


def _handle_profile(state: _ShardState, envelope: Dict[str, Any]) -> Dict[str, Any]:
    """The shard's continuous profile plus exact per-phase span splits."""
    return {
        "profile": state.sampler.profile() if state.sampler is not None else None,
        "phases": phase_breakdown(state.telemetry.snapshot()),
    }


def _handle_trace(state: _ShardState, envelope: Dict[str, Any]) -> Dict[str, Any]:
    """The spans this shard recorded under one trace id."""
    return {"spans": trace_spans(state.telemetry, envelope["trace_id"])}


#: Read-only probes the front-end sends a shard, by op name.
_PROBES: Dict[str, Callable[[_ShardState, Dict[str, Any]], Dict[str, Any]]] = {
    "stats": _handle_stats,
    "profile": _handle_profile,
    "trace": _handle_trace,
}


def _probe(state: _ShardState, envelope: Dict[str, Any]) -> Dict[str, Any]:
    op = envelope["op"]
    reply = {"op": op, "batch_id": envelope.get("batch_id"), "shard": state.config.shard}
    reply.update(_PROBES[op](state, envelope))
    return reply


def profile_document(
    shard_docs: Dict[str, Optional[Dict[str, Any]]], *extra_phases: Dict[str, Dict[str, float]]
) -> Dict[str, Any]:
    """Per-shard ``profile`` probe replies plus their merge.

    ``extra_phases`` folds in phase splits recorded outside any shard
    (the cluster front-end's own spans).
    """
    live = [d for d in shard_docs.values() if d is not None]
    phases = merge_phase_breakdowns([d.get("phases", {}) for d in live] + list(extra_phases))
    return {
        "shards": {
            shard: (None if doc is None else {"profile": doc.get("profile"), "phases": doc.get("phases", {})})
            for shard, doc in shard_docs.items()
        },
        "merged": {
            "profile": merge_profiles(d.get("profile") for d in live),
            "phases": phases,
            "hottest": [{"phase": name, **entry} for name, entry in hottest_phases(phases)],
        },
    }


class LocalShard:
    """One shard served in-process, on the calling thread.

    It has the members the HTTP handler calls on a
    :class:`~repro.cluster.frontend.ClusterManager` (``telemetry``,
    ``submit``, ``health``, ``shard_stats``, ``metrics_snapshot``,
    ``trace_document``, ``profile_document``), built from the worker's
    own shard state and solve path.  There is no process, queue or
    batching window, and no energy lease: a lone server has no global
    budget to split.  ``telemetry`` and ``admission`` replace the
    shard's own registry and admission controller when given.
    """

    def __init__(
        self,
        config: WorkerConfig,
        *,
        telemetry: Optional[MetricsRegistry] = None,
        admission: Optional[AdmissionController] = None,
    ):
        self.config = config
        self._state = _ShardState(config, telemetry=telemetry, admission=admission)
        self.telemetry = self._state.telemetry

    @property
    def journal(self) -> Optional[JournalWriter]:
        """The shard's WAL writer (``None`` without a journal directory)."""
        return self._state.journal

    @property
    def energy_spent(self) -> float:
        """Joules served so far, recovered from the journal at start."""
        return self._state.energy_spent

    def submit(
        self,
        scheduler: str,
        instance_doc: Dict[str, Any],
        *,
        trace_id: Optional[str] = None,
        priority: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Solve one request now; returns the same document a cluster does.

        ``priority`` and ``deadline_seconds`` order and shed a cluster's
        queues; with no queue to order they have no effect here.
        """
        item = {"scheduler": scheduler, "instance": instance_doc, "trace_id": trace_id or new_trace_id()}
        with collector(self.telemetry):
            return _solve_one(self._state, item, math.inf, False)[0]

    def health(self) -> Dict[str, Any]:
        """Always ``ok``; with a journal, also the spend so far."""
        health: Dict[str, Any] = {"status": "ok"}
        if self.journal is not None:
            health["energy_spent_joules"] = self.energy_spent
        return health

    def shard_stats(self) -> Dict[str, Optional[Dict[str, Any]]]:
        """The shard's ``stats`` probe reply, keyed by its name."""
        return {self.config.shard: _probe(self._state, {"op": "stats"})}

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Every metric series (no spans): what ``/metrics`` and ``/slo`` read."""
        return self.telemetry.snapshot(spans=False)

    def trace_document(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """One trace's spans as ``trace_event`` JSON (``None`` if unknown)."""
        spans = trace_spans(self.telemetry, trace_id)
        return to_trace_events(spans, trace_id=trace_id) if spans else None

    def profile_document(self) -> Dict[str, Any]:
        """The shard's phase profile, in the cluster's document shape."""
        return profile_document({self.config.shard: _probe(self._state, {"op": "profile"})})


def worker_main(config: WorkerConfig, requests: Any, replies: Any) -> None:
    """Entry point of a shard worker process (also runnable in-process).

    ``requests``/``replies`` are queue-like (``get()``/``put()``); the
    loop exits on a ``shutdown`` envelope, closing the journal cleanly.
    A fork-started child inherits the parent's context, so the worker
    activates its own registry for everything it runs.

    ``cancel`` envelopes are *control* traffic: they jump the line.  The
    loop drains the queue between window items so a hedge winner's
    cancellation reaches the loser before it burns energy on a solve
    whose result nobody will accept.
    """
    state = _ShardState(config)
    # Bounded: a front-end gone haywire cannot balloon the worker's memory.
    # Overflow drops the *oldest* queued envelope — its window is swept and
    # answered 503 by the front-end's stale-window sweeper.
    backlog: deque = deque(maxlen=4096)

    def _drain_control() -> None:
        while True:
            try:
                pulled = requests.get_nowait()
            except queue.Empty:
                return
            if isinstance(pulled, dict) and pulled.get("op") == "cancel":
                state.cancelled.update(pulled.get("trace_ids", []))
            else:
                backlog.append(pulled)

    with collector(state.telemetry):
        while True:
            if backlog:
                envelope = backlog.popleft()
            else:
                try:
                    envelope = requests.get(timeout=1.0)
                except queue.Empty:
                    continue
            op = envelope.get("op") if isinstance(envelope, dict) else "shutdown"
            if op == "shutdown":
                if state.journal is not None:
                    state.journal.close()
                replies.put({"op": "shutdown_ack", "shard": config.shard, "batch_id": envelope.get("batch_id")})
                return
            if op == "cancel":
                state.cancelled.update(envelope.get("trace_ids", []))
            elif op in _PROBES:
                replies.put(_probe(state, envelope))
            elif op == "window":
                reply = _handle_window(state, envelope, _drain_control)
                if reply is not None:
                    replies.put(reply)
            else:
                replies.put(
                    {
                        "op": "error",
                        "batch_id": envelope.get("batch_id"),
                        "shard": config.shard,
                        "error": f"unknown op {op!r}",
                    }
                )
