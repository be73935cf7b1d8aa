"""One serving path: the in-process shard and the cluster share one solve
path, one journal writer and one set of probes.

Each test here pins a behaviour both topologies must show: malformed
requests never trip a shard's circuit breaker, admitted solver failures
answer 500, window metrics reach ``/metrics``, stats probes carry metric
series only, and ``audit_cluster`` certifies a single server's journal.
"""

import contextlib
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.algorithms.base import Scheduler
from repro.cluster import ClusterConfig, ClusterManager, LocalShard, WorkerConfig, audit_cluster, make_cluster_server
from repro.core import instance_to_dict
from repro.durability import read_events, recover
from repro.durability.journal import encode_record, journal_segments
from repro.server import make_server
from repro.utils.errors import SolverError

from conftest import make_instance


class FailingScheduler(Scheduler):
    """An admitted solve that fails with a library error."""

    name = "failing"

    def solve(self, instance):
        raise SolverError("backend unavailable")


@contextlib.contextmanager
def serving(topology):
    """A running server of either topology; yields its base URL."""
    manager = None
    if topology == "single":
        server = make_server()
    else:
        manager = ClusterManager(ClusterConfig(shards=1, profile_hz=0)).start()
        server = make_cluster_server(manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        if manager is not None:
            manager.stop()


def post(url, payload):
    request = urllib.request.Request(url, data=json.dumps(payload).encode(), method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def malformed_documents(doc):
    """Five bad documents (the breaker's default failure threshold), each
    failing the decode in a different way."""
    yield {"tasks": "garbage"}
    for key, value in (("tasks", 5), ("tasks", [5]), ("machines", None), ("budget", "x")):
        yield {**doc, key: value}


@pytest.mark.parametrize("topology", ["single", "cluster"])
def test_malformed_requests_never_trip_the_breaker(topology):
    doc = instance_to_dict(make_instance(n=4, m=2, beta=0.5, seed=930))
    with serving(topology) as url:
        for bad in malformed_documents(doc):
            status, payload = post(url + "/solve", bad)
            assert status == 400, payload
        status, _ = post(url + "/solve?scheduler=warpdrive", doc)
        assert status == 400
        status, payload = post(url + "/solve", doc)
        assert status == 200, payload
        assert payload["feasible"]


@pytest.mark.parametrize("topology", ["single", "cluster"])
def test_admitted_solver_error_answers_500(topology, monkeypatch):
    # Patched before the cluster forks, so the shard worker inherits it.
    monkeypatch.setattr("repro.cluster.solve_service.make_scheduler", lambda name: FailingScheduler())
    doc = instance_to_dict(make_instance(n=4, m=2, beta=0.5, seed=931))
    with serving(topology) as url:
        status, payload = post(url + "/solve", doc)
    assert status == 500
    assert "backend unavailable" in payload["error"]


def test_window_metrics_reach_the_cluster_metrics():
    doc = instance_to_dict(make_instance(n=4, m=2, beta=0.5, seed=932))
    solves = 3
    with ClusterManager(ClusterConfig(shards=1, profile_hz=0)) as manager:
        for _ in range(solves):  # one at a time: every window holds one request
            assert manager.submit("approx", doc)["status"] == 200
        series = {
            entry["name"]: entry
            for entry in manager.metrics_snapshot()["metrics"]
            if entry["name"].startswith("window_shard_00_")
        }
    assert series["window_shard_00_windows_total"]["value"] >= 1
    assert series["window_shard_00_window_size"]["count"] == solves
    assert series["window_shard_00_window_size"]["sum"] == solves
    assert series["window_shard_00_queue_depth"]["value"] == 0


def test_stats_probe_ships_metric_series_only():
    doc = instance_to_dict(make_instance(n=4, m=2, beta=0.5, seed=933))
    with ClusterManager(ClusterConfig(shards=1, profile_hz=0)) as manager:
        result = manager.submit("approx", doc, trace_id="5ca1ab1e00000001")
        assert result["status"] == 200
        (stats,) = manager.shard_stats().values()
        assert stats["telemetry"]["spans"] == []
        assert stats["solves_total"] == 1
        assert any(m["name"] == "span_duration_seconds" for m in stats["telemetry"]["metrics"])
        # The spans are still there for the one trace that asks for them.
        document = manager.trace_document("5ca1ab1e00000001")
    names = {e["name"] for e in document["traceEvents"]}
    assert {"frontend.request", "server.admission", "server.solve", "server.schedule"} <= names


def test_audit_certifies_a_single_server_journal(tmp_path):
    doc = instance_to_dict(make_instance(n=5, m=2, beta=0.5, seed=934))
    server = make_server(journal_dir=str(tmp_path))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        served = [post(url + "/solve", doc)[1]["metrics"]["energy_joules"] for _ in range(3)]
    finally:
        server.shutdown()
        server.server_close()
        server.journal.close()
    audit = audit_cluster(tmp_path)
    assert audit.certified, audit.violations
    assert audit.total_spent == pytest.approx(sum(served))
    assert recover(tmp_path).energy_spent == pytest.approx(sum(served))

    # Break the cumulative-spend chain of the second solve record by hand.
    events = read_events(tmp_path)
    solves = [e for e in events if e["type"] == "solve"]
    solves[1]["cum_energy"] += 1.0
    (segment,) = journal_segments(tmp_path)
    segment.write_bytes(b"".join(encode_record(e) for e in events))
    audit = audit_cluster(tmp_path)
    assert not audit.certified
    assert any("cumulative-spend chain broken" in v for v in audit.violations)


def test_local_shard_journal_orders_concurrent_solves(tmp_path):
    """Handler threads race on one shard: every solve is journalled once,
    in one unbroken cumulative-spend chain."""
    doc = instance_to_dict(make_instance(n=4, m=2, beta=0.5, seed=935))
    shard = LocalShard(WorkerConfig("local", journal_dir=str(tmp_path), snapshot_every=3, profile_hz=0.0))
    results = []

    def client():
        for _ in range(3):
            results.append(shard.submit("approx", doc))

    threads = [threading.Thread(target=client) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    shard.journal.close()
    assert [r["status"] for r in results] == [200] * 12
    (stats,) = shard.shard_stats().values()
    assert stats["solves_total"] == 12
    audit = audit_cluster(tmp_path)
    assert audit.certified, audit.violations
    assert audit.total_spent == pytest.approx(sum(r["metrics"]["energy_joules"] for r in results))


def test_serving_registries_keep_only_the_newest_spans(monkeypatch):
    from repro.cluster import worker

    monkeypatch.setattr(worker, "SERVING_SPAN_LIMIT", 50)
    shard = LocalShard(WorkerConfig("local", profile_hz=0.0))
    doc = instance_to_dict(make_instance(n=4, m=2, seed=1))
    trace_ids = [f"{i:016x}" for i in range(1, 13)]
    for trace_id in trace_ids:
        assert shard.submit("approx", doc, trace_id=trace_id)["status"] == 200
    assert len(shard.telemetry.spans) == 50  # a dozen solves recorded far more
    newest = shard.trace_document(trace_ids[-1])
    assert newest is not None
    assert {e.get("name") for e in newest["traceEvents"]} >= {"server.solve"}
    assert shard.trace_document(trace_ids[0]) is None  # aged out


def test_only_long_lived_serving_registries_are_bounded():
    from repro.cluster.worker import SERVING_SPAN_LIMIT
    from repro.telemetry import MetricsRegistry

    server = make_server()
    try:
        assert server.telemetry.spans.maxlen == SERVING_SPAN_LIMIT
    finally:
        server.server_close()
    assert ClusterManager(ClusterConfig(shards=1)).telemetry.spans.maxlen == SERVING_SPAN_LIMIT
    assert MetricsRegistry().spans.maxlen is None  # one-shot registries keep every span
