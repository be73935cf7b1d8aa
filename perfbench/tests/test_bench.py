"""Unit tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import http.server
import math
import socket
import threading
import time

import pytest

from inputs import online_digest_docs, online_inputs, serve_inputs, sweep_inputs
from loadgen import ClosedLoop, Outcome, closed_loop_rate, phase_verdict
from spans import Span, layer_table, search_time, self_by_key, self_times
from stats import digest, highest_supported_percentile, histogram_quantile, median_band, percentile, summarize


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, expected",
        [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert highest_supported_percentile(n) == expected

    def test_summary_reports_tail_and_count(self):
        s = summarize(list(range(1, 101)))
        assert s["n"] == 100 and s["tail_q"] == 90.0
        assert s["tail"] == pytest.approx(percentile(list(range(1, 101)), 90.0))

    def test_small_sample_has_no_tail(self):
        assert "tail" not in summarize([1.0, 2.0, 3.0])

    def test_percentile_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert percentile([5.0], 90.0) == 5.0


class TestSelfTime:
    def tree(self):
        # root [0, 10] on thread 1 with children a [1, 4] (grandchild g [2, 3])
        # and b [5, 9]; an unrelated span on thread 2 overlaps root in time.
        return [
            Span("root", "k", 1, 0.0, 10.0),
            Span("a", "k", 1, 1.0, 4.0),
            Span("g", "k", 1, 2.0, 3.0),
            Span("b", "k", 1, 5.0, 9.0),
            Span("other", None, 2, 0.5, 9.5),
        ]

    def test_span_minus_children(self):
        nodes = self_times(self.tree())
        got = {n.span.name: n.self_time for n in nodes}
        assert got == pytest.approx({"root": 3.0, "a": 2.0, "g": 1.0, "b": 4.0, "other": 9.0})

    def test_parents(self):
        nodes = self_times(self.tree())
        names = [n.span.name for n in nodes]
        parent = {n.span.name: (None if n.parent is None else names[n.parent]) for n in nodes}
        assert parent == {"root": None, "a": "root", "g": "a", "b": "root", "other": None}

    def test_self_times_partition_the_root(self):
        nodes = self_times(self.tree())
        per_key = self_by_key(nodes)
        assert sum(per_key["k"].values()) == pytest.approx(10.0)

    def test_layer_table_adds_up_to_the_band(self):
        per_key = {"x": {"l1": 1.0, "l2": 2.0}, "y": {"l1": 3.0}}
        rows, rest, total = layer_table({"x": 4.0, "y": 6.0}, per_key, ["x", "y"])
        assert total == pytest.approx(5.0)
        assert sum(v for _, v in rows) + rest == pytest.approx(total)
        assert dict(rows) == pytest.approx({"l1": 2.0, "l2": 1.0})

    def test_search_time_is_tail_after_first_refine(self):
        spans = [
            Span("algorithms.fractional", "k", 1, 0.0, 10.0),
            Span("algorithms.alg3", "k", 1, 2.0, 3.0),
            Span("algorithms.alg3", "k", 1, 6.0, 7.0),
        ]
        assert search_time(self_times(spans)) == pytest.approx(7.0)


def _outcome(i, latency, status=200):
    return Outcome(i, ready=float(i), sent=float(i), done=float(i) + latency, status=status)


class TestFailures:
    def test_refused_request_fails_and_misses_the_limit(self):
        outs = [_outcome(i, 0.01) for i in range(9)] + [_outcome(9, 0.01, status=0)]
        v = phase_verdict(outs, limit_s=0.1)
        assert v["failed_share"] == pytest.approx(0.1)
        assert not v["passes"]

    def test_refused_requests_count_as_infinitely_late(self):
        # Failures in most segments put the (segmented) p90 over any limit.
        outs = [_outcome(i, 0.01, status=0 if i % 2 else 200) for i in range(20)]
        v = phase_verdict(outs, limit_s=10.0)
        assert math.isinf(v["p90_s"]) and not v["passes"]

    def test_non_200_counts_as_failed(self):
        v = phase_verdict([_outcome(i, 0.01, status=503) for i in range(5)], limit_s=0.1)
        assert v["failed_share"] == 1.0 and not v["passes"]

    def test_refused_connection_is_recorded_as_failed(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]  # bound but not listening: connections are refused
            loop = ClosedLoop(port, "/solve", [b"{}", b"{}"], [{}, {}], connections=2, timeout_s=1.0)
            outcomes = loop.run()
        assert len(outcomes) == 2 and all(not o.ok and o.status == 0 for o in outcomes)
        assert not phase_verdict(outcomes, limit_s=10.0)["passes"]

    def test_degrading_latency_fails_the_phase(self):
        # Every latency is within a loose p90 limit, but the last third is over it.
        outs = [_outcome(i, 0.01) for i in range(20)] + [_outcome(20 + i, 0.5) for i in range(2)]
        outs += [_outcome(30 + i, 1.0) for i in range(8)]
        v = phase_verdict(outs, limit_s=0.9)
        assert v["degrading"] and not v["passes"]


class _Ok(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        time.sleep(0.01)
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


class TestClosedLoop:
    def test_rate_is_the_median_slice_rate(self):
        # 10 answers per second over 5 s, but the third second stalls.
        done = [k + (j + 0.5) / 10 for k in range(5) if k != 2 for j in range(10)] + [2.5]
        outs = [Outcome(i, 0.0, 0.0, t, 200) for i, t in enumerate(sorted(done))]
        assert closed_loop_rate(outs, slices=5) == pytest.approx(10.0 * 5 / 4.95)
        assert closed_loop_rate([]) == 0.0

    def test_failed_answers_do_not_count(self):
        outs = [Outcome(i, 0.0, 0.0, (i + 1) / 10, 200 if i % 2 else 503) for i in range(50)]
        assert closed_loop_rate(outs) == pytest.approx(5.0)

    def test_each_connection_sends_back_to_back(self):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Ok)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            n = 20
            loop = ClosedLoop(server.server_address[1], "/solve", [b"{}"] * n, [{}] * n, connections=2, timeout_s=5.0)
            outcomes = loop.run()
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert len(outcomes) == n and all(o.ok for o in outcomes)
        # Each answer takes at least the handler's 10 ms, so two connections
        # cannot finish 20 requests in less than 0.1 s.
        assert max(o.done for o in outcomes) >= 0.1
        assert all(0.0 <= o.lateness < 0.05 for o in outcomes)

    def test_between_runs_with_nothing_in_flight(self):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Ok)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        calls = []
        try:
            n = 20
            loop = ClosedLoop(
                server.server_address[1], "/solve", [b"{}"] * n, [{}] * n, connections=1, timeout_s=5.0,
                between=lambda: calls.append(time.perf_counter() - loop_start[0]), between_period_s=0.05,
            )
            loop_start = [time.perf_counter()]
            outcomes = loop.run()
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert len(calls) >= 2
        # No call falls inside a request's send..answer interval.
        for t in calls:
            assert not any(o.sent < t - 0.001 and t + 0.001 < o.done for o in outcomes)


class TestInputs:
    def test_serve_digest_is_deterministic_per_seed(self):
        a = serve_inputs(3, [10, 20], 4, 1, 1, 5, 2)
        b = serve_inputs(3, [10, 20], 4, 1, 1, 5, 2)
        c = serve_inputs(4, [10, 20], 4, 1, 1, 5, 2)
        assert digest(a.bodies) == digest(b.bodies) != digest(c.bodies)
        assert a.trace_ids == b.trace_ids and a.latency == b.latency and a.capacity == b.capacity

    def test_every_request_is_distinct(self):
        a = serve_inputs(3, [10], 4, 2, 2, 20)
        assert len(set(a.bodies)) == len(a.bodies)
        assert len(set(a.trace_ids)) == len(a.trace_ids)

    def test_sweep_digest_is_deterministic_per_seed(self):
        classes = [{"n": 5, "m": 2, "count": 6}]
        a = [item.doc for item in sweep_inputs(1, classes, 1.0)]
        b = [item.doc for item in sweep_inputs(1, classes, 1.0)]
        assert digest(a) == digest(b) != digest(item.doc for item in sweep_inputs(2, classes, 1.0))

    def test_online_digest_is_deterministic_per_seed(self):
        cfg = {"gpus": ["Tesla T4", "A30"], "window_seconds": 2.0, "calm_rate": 2.0, "burst_rate": 6.0, "mean_phase_seconds": 5.0}
        a, _ = online_inputs(1, cfg, 20)
        b, _ = online_inputs(1, cfg, 20)
        assert len(a.windows) == 20
        assert digest(online_digest_docs(a)) == digest(online_digest_docs(b))


def test_histogram_quantile_interpolates_within_bucket():
    buckets = [(0.1, 10.0), (0.2, 30.0), (math.inf, 40.0)]
    assert histogram_quantile(buckets, 0.5) == pytest.approx(0.15)
    assert histogram_quantile([], 0.5) is None


def test_median_band_keeps_the_middle():
    values = list(range(100))
    band = median_band(values)
    assert min(values[i] for i in band) >= 39 and max(values[i] for i in band) <= 60
