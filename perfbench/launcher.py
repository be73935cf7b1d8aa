"""Start the program under test in its own process.

    python3 perfbench/launcher.py --mode single  --workdir DIR [--trace]
    python3 perfbench/launcher.py --mode cluster --workdir DIR --budget B [--trace]
    python3 perfbench/launcher.py --mode inproc  --workdir DIR --warm FILE

``single`` builds the server with the public ``repro.server.make_server``
(journal on, as ``repro serve --journal-dir`` does), ``cluster`` a
``ClusterManager`` with two shards behind ``make_cluster_server``.  Both
print ``READY <port>`` once listening, then serve until a ``stop`` line
arrives on stdin.  They then shut down, write what only the server
process can see (spans, shard stats, ledger audit) to
``DIR/report.json`` and exit.

``inproc`` measures a cold start of the in-process workloads: it imports
the solver and solves the warm-up document in ``FILE``, prints ``READY``
and exits.

With ``--trace`` the layer wrappers of :mod:`spans` are installed; in
the cluster they are installed after the shard workers fork, so only the
front-end is traced and the workers run unwrapped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def _wait_for_stop() -> None:
    for line in sys.stdin:
        if line.strip() == "stop":
            return


def _serve(server) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    print(f"READY {server.server_address[1]}", flush=True)
    return thread


def run_single(workdir: Path, trace: bool) -> dict:
    from repro.server import make_server
    from repro.telemetry import current_trace_id

    from spans import SERVER_TARGETS, SOLVER_TARGETS, Recorder

    recorder = Recorder(current_trace_id) if trace else None
    if recorder is not None:
        recorder.install(SOLVER_TARGETS + SERVER_TARGETS)
    server = make_server("127.0.0.1", 0, journal_dir=str(workdir / "journal"))
    thread = _serve(server)
    _wait_for_stop()
    server.shutdown()
    thread.join()
    server.server_close()
    server.journal.close()
    return {"spans": recorder.to_json() if recorder else []}


def run_cluster(workdir: Path, trace: bool, budget: float) -> dict:
    from repro.cluster import ClusterConfig, ClusterManager, audit_cluster, make_cluster_server
    from repro.telemetry import current_trace_id

    from spans import CLUSTER_TARGETS, Recorder

    journal_root = str(workdir / "journals")
    manager = ClusterManager(ClusterConfig(shards=2, budget=budget, journal_root=journal_root)).start()
    recorder = Recorder(current_trace_id) if trace else None
    if recorder is not None:
        recorder.install(CLUSTER_TARGETS)
    server = make_cluster_server(manager)
    thread = _serve(server)
    _wait_for_stop()
    server.shutdown()
    thread.join()
    server.server_close()
    stats = manager.shard_stats()
    ledger = manager.ledger.to_dict()
    ledger_violations = manager.ledger.audit()
    manager.stop()
    audit = audit_cluster(journal_root, budget=budget)
    return {
        "spans": recorder.to_json() if recorder else [],
        "shard_solves": {s: (None if d is None else d.get("solves_total")) for s, d in stats.items()},
        "ledger": ledger,
        "ledger_violations": ledger_violations,
        "audit_certified": bool(audit.certified),
        "audit_summary": audit.summary(),
    }


def run_inproc(warm: Path) -> None:
    import repro.online  # noqa: F401  (the online workload's layer)
    from repro.algorithms.registry import make_scheduler
    from repro.core.serialization import instance_from_dict

    instance = instance_from_dict(json.loads(warm.read_text()))
    make_scheduler("approx").solve_with_info(instance)
    print("READY", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("single", "cluster", "inproc"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--budget", type=float, default=None)
    parser.add_argument("--warm", type=Path, default=None)
    args = parser.parse_args()
    if args.mode == "inproc":
        run_inproc(args.warm)
        return 0
    if args.mode == "single":
        report = run_single(args.workdir, args.trace)
    else:
        report = run_cluster(args.workdir, args.trace, args.budget)
    report["pid"] = os.getpid()
    (args.workdir / "report.json").write_text(json.dumps(report))
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
