"""Closed-loop load generator: a fixed list of requests over a few connections.

``connections`` threads (never more than the box's CPUs) each take the
next request in order, send it as soon as their last answer is back,
and wait for the reply, until the list runs out.
Latency is timed from the send; the generator reports its own delay
between a connection's last answer and its next send.

A refused, timed-out or non-200 request counts as failed and as missing
the latency limit.
"""

from __future__ import annotations

import http.client
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from stats import segmented_percentile


@dataclass
class Outcome:
    index: int
    ready: float  #: seconds after the phase's start when the connection was free for it
    sent: float
    done: float
    status: int  #: HTTP status, 0 for a refused or timed-out request
    body: Optional[dict] = None

    @property
    def latency(self) -> float:
        return self.done - self.sent

    @property
    def lateness(self) -> float:
        """The generator's own delay before sending."""
        return self.sent - self.ready

    @property
    def ok(self) -> bool:
        return self.status == 200


def phase_verdict(outcomes: Sequence[Outcome], limit_s: float) -> Dict[str, object]:
    """p90 (failed requests count as over the limit), failure share and trend.

    The p90 is :func:`stats.segmented_percentile`, so a slow spell of the
    box in one part of the phase does not decide the verdict alone.
    """
    lat = [o.latency if o.ok else math.inf for o in outcomes]
    n = len(lat)
    failed = sum(1 for o in outcomes if not o.ok)
    p90 = segmented_percentile(lat, 90.0) if n else math.inf
    # Latency is degrading when the last third of the phase is, at its
    # median, already over the limit.
    last = sorted(lat[-max(n // 3, 1):]) if n else [math.inf]
    degrading = last[len(last) // 2] > limit_s
    return {
        "n": n,
        "p90_s": p90,
        "failed_share": failed / n if n else 1.0,
        "degrading": degrading,
        "passes": p90 <= limit_s and (failed / n if n else 1.0) <= 0.01 and not degrading,
    }


def closed_loop_rate(outcomes: Sequence[Outcome], slices: int = 5) -> float:
    """Answers per second: the median over ``slices`` equal parts of the phase.

    Every connection is busy from the phase's start to its last answer,
    so each part's successful answers per second is the server's
    throughput at that concurrency.  The median keeps a slow spell of the
    box in one part from deciding the figure.
    """
    if not outcomes:
        return 0.0
    width = max(o.done for o in outcomes) / slices
    counts = [0] * slices
    for o in outcomes:
        if o.ok:
            counts[min(int(o.done / width), slices - 1)] += 1
    return statistics.median(counts) / width


class ClosedLoop:
    """Send a fixed list of ``POST`` bodies to one server, each connection back to back.

    ``side_task`` (the 1 Hz ``/metrics`` scrape) runs on the same
    connections between requests, so it adds load without adding
    threads.  ``between`` runs every ``between_period_s`` between two
    requests of a connection, untimed; over one connection nothing is in
    flight while it runs.
    """

    def __init__(
        self,
        port: int,
        path: str,
        bodies: Sequence[bytes],
        headers: Sequence[Dict[str, str]],
        *,
        connections: int,
        timeout_s: float,
        side_task: Optional[Callable[[http.client.HTTPConnection], None]] = None,
        side_period_s: float = 1.0,
        between: Optional[Callable[[], None]] = None,
        between_period_s: float = 1.0,
    ):
        self.port, self.path = port, path
        self.bodies, self.headers = list(bodies), list(headers)
        self.connections = connections
        self.timeout_s = timeout_s
        self.side_task = side_task
        self.side_period_s = side_period_s
        self.between, self.between_period_s = between, between_period_s
        self.outcomes: List[Optional[Outcome]] = [None] * len(self.bodies)
        self._next = 0
        self._lock = threading.Lock()
        self._next_side = 0.0
        self._next_between = 0.0

    def _take(self) -> Optional[int]:
        with self._lock:
            if self._next >= len(self.bodies):
                return None
            self._next += 1
            return self._next - 1

    def _due(self, t0: float, timer: str, period: float) -> bool:
        """Whether the periodic ``timer`` is due; if so, schedule its next run."""
        with self._lock:
            now = time.perf_counter() - t0
            if now >= getattr(self, timer):
                setattr(self, timer, now + period)
                return True
            return False

    def _worker(self, t0: float) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout_s)
        try:
            while True:
                if self.between is not None and self._due(t0, "_next_between", self.between_period_s):
                    self.between()
                if self.side_task is not None and self._due(t0, "_next_side", self.side_period_s):
                    try:
                        self.side_task(conn)  # type: ignore[misc]
                    except (OSError, http.client.HTTPException):
                        conn.close()
                ready = time.perf_counter() - t0
                i = self._take()
                if i is None:
                    return
                sent = time.perf_counter() - t0
                status, body = 0, None
                try:
                    conn.request("POST", self.path, body=self.bodies[i], headers=self.headers[i])
                    resp = conn.getresponse()
                    raw = resp.read()
                    status = resp.status
                    if status == 200:
                        body = json.loads(raw)
                except (OSError, http.client.HTTPException, ValueError):
                    conn.close()
                    status = 0
                self.outcomes[i] = Outcome(i, ready, sent, time.perf_counter() - t0, status, body)
        finally:
            conn.close()

    def run(self) -> List[Outcome]:
        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=self._worker, args=(t0,), name=f"loadgen-{k}", daemon=True)
            for k in range(self.connections)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return [o for o in self.outcomes if o is not None]
