"""A minimal HTTP scheduling service (stdlib only).

Turns the library into a local JSON-over-HTTP planner, the shape an
MLaaS control plane would embed:

* ``GET  /health``            — liveness and version;
* ``GET  /schedulers``        — registered method names;
* ``GET  /metrics``           — Prometheus text exposition of the
  server's telemetry registry (request counters, solve-phase spans);
* ``GET  /slo``               — the configured SLOs evaluated against
  the same series ``/metrics`` renders (see :mod:`repro.observe.slo`);
* ``GET  /trace/<id>``        — one request's spans as Chrome/Perfetto
  ``trace_event`` JSON (load at https://ui.perfetto.dev);
* ``GET  /shards``, ``GET /debug/profile`` — the shard's stats and
  phase profile;
* ``POST /solve?scheduler=X`` — body: an instance document (the
  ``repro.core.serialization`` format); response: the schedule document
  plus headline metrics and the feasibility audit.

There is one serving path in the package.  :func:`make_server` puts the
cluster front-end's HTTP handler (:mod:`repro.cluster.frontend`) in
front of a :class:`~repro.cluster.worker.LocalShard`: one shard that
runs the worker's decode → admission → solve → journal path on the
request thread, with no worker process, queue or batching window.  A
client cannot tell ``repro serve`` from ``repro cluster`` by its routes,
status codes, metric names or trace tree.

Every ``/solve`` request runs under a trace: the ``X-Repro-Trace-Id``
request header (when well-formed) or a fresh id becomes the request's
trace id, is echoed back on the response, stamps every span the request
opens (``server.request`` → admission, solve, schedule) and is attached
to the journal record — so one id correlates the HTTP exchange, the
flame graph at ``/trace/<id>`` and the durable ledger entry.

The serving path is guarded by :mod:`repro.resilience`: an
:class:`~repro.resilience.admission.AdmissionController` bounds
concurrent solves and trips a circuit breaker on repeated failures of
admitted solves (rejections answer ``503`` with a ``Retry-After``
header; a malformed request answers ``400`` and never reaches the
breaker), an optional per-request wall-clock deadline cancels runaway
solves, and ``fallback=True`` degrades through cheaper solver tiers
instead of failing the request.

Intended for trusted local use (demos, integration tests, sidecars) —
there is no authentication; bind to localhost.

    python -m repro serve --port 8080 --solver-timeout 5 --fallback
    curl -s localhost:8080/health
    curl -s -X POST localhost:8080/solve?scheduler=approx -d @instance.json
"""

from __future__ import annotations

from http.server import ThreadingHTTPServer
from typing import Optional

from .algorithms.registry import available_schedulers
from .cluster.frontend import make_cluster_server
# Decoding and payload encoding run in the shard's solve path
# (repro.cluster.worker); both names stay importable from this module.
from .cluster.solve_service import solve_payload  # noqa: F401
from .cluster.worker import LocalShard, WorkerConfig
from .core.serialization import instance_from_dict  # noqa: F401
from .observe.slo import SLOSpec
from .resilience.admission import AdmissionController
from .telemetry import MetricsRegistry, export_file

__all__ = ["make_server", "serve"]


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
    telemetry: Optional[MetricsRegistry] = None,
    admission: Optional[AdmissionController] = None,
    solver_timeout: Optional[float] = None,
    fallback: bool = False,
    journal_dir: Optional[str] = None,
    snapshot_every: int = 10,
    slo: Optional[SLOSpec] = None,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server; port 0 picks a free port.

    Every server carries a :class:`~repro.telemetry.MetricsRegistry`
    (``server.telemetry``; pass one to share it) that backs ``GET
    /metrics`` and collects per-request solve traces, plus an
    :class:`~repro.resilience.admission.AdmissionController` (pass one
    to share it; 8 concurrent solves by default) guarding ``POST
    /solve``.  ``solver_timeout`` bounds each solve's wall clock
    (seconds); ``fallback`` serves every request through
    :meth:`FallbackChain.default` with the requested scheduler pinned to
    the front of the ladder.

    ``journal_dir`` makes the service durable: every served solve's
    energy is appended to a write-ahead log directly in that directory
    (fsync on every append, snapshot every ``snapshot_every`` solves),
    and on startup the previous incarnation's cumulative spend is
    recovered (surfaced as ``energy_spent_joules`` on ``GET /health``) —
    a restarted server keeps its ledger.  ``server.journal`` is the
    writer (``None`` without a journal);
    :func:`~repro.cluster.ledger.audit_cluster` certifies the directory.

    ``slo`` configures the targets ``GET /slo`` evaluates (an empty spec
    answers with no objectives).
    """
    shard = LocalShard(
        WorkerConfig(
            "local",
            journal_dir=journal_dir,
            solver_timeout=solver_timeout,
            fallback=fallback,
            max_in_flight=8,
            snapshot_every=snapshot_every,
            profile_hz=0.0,
        ),
        telemetry=telemetry,
        admission=admission,
    )
    server = make_cluster_server(shard, host, port, verbose=verbose)
    server.telemetry = shard.telemetry  # type: ignore[attr-defined]
    server.journal = shard.journal  # type: ignore[attr-defined]
    server.slo = slo  # type: ignore[attr-defined]
    return server


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    metrics_out: Optional[str] = None,
    solver_timeout: Optional[float] = None,
    fallback: bool = False,
    max_in_flight: int = 8,
    journal_dir: Optional[str] = None,
    snapshot_every: int = 10,
    slo: Optional[SLOSpec] = None,
) -> None:
    """Run the service until interrupted (the CLI's ``serve`` command).

    ``metrics_out`` exports the accumulated telemetry on shutdown (the
    live view is always available at ``GET /metrics``).
    """
    server = make_server(
        host,
        port,
        verbose=True,
        admission=AdmissionController(max_in_flight=max_in_flight),
        solver_timeout=solver_timeout,
        fallback=fallback,
        journal_dir=journal_dir,
        snapshot_every=snapshot_every,
        slo=slo,
    )
    print(f"repro scheduling service on http://{host}:{server.server_address[1]}")
    print(f"methods: {', '.join(available_schedulers())}")
    if solver_timeout is not None or fallback:
        mode = "fallback chain" if fallback else "single solver"
        print(f"resilience: {mode}, solver timeout {solver_timeout or 'none'}, max in-flight {max_in_flight}")
    if journal_dir is not None:
        print(
            f"durability: journal at {journal_dir}, snapshot every {snapshot_every} solves, "
            f"recovered spend {server.manager.energy_spent:.1f} J"  # type: ignore[attr-defined]
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if server.journal is not None:  # type: ignore[attr-defined]
            server.journal.close()  # type: ignore[attr-defined]
        if metrics_out is not None:
            path = export_file(server.telemetry, metrics_out)  # type: ignore[attr-defined]
            print(f"telemetry written to {path}")
