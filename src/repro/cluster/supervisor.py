"""The shard supervisor: heartbeat and restart.

:class:`ShardSupervisor` is the front-end's repair loop.  Each heartbeat
it checks every shard handle of its :class:`~repro.cluster.frontend.ClusterManager`:

* a handle whose worker process died without the dispatcher noticing
  (e.g. the dispatcher is blocked elsewhere) is declared dead through
  the manager's normal death path — grants conservatively committed,
  orphaned requests requeued, lease epoch bumped;
* a dead shard with restart budget left is brought back: a fresh worker
  generation recovers the shard journal (the durable cumulative-energy
  chain resumes), new queues and a new dispatcher/batcher attach, and
  the consistent-hash ring routes to it again.  Restarts are capped by
  ``max_restarts`` — a shard that keeps dying stays down rather than
  crash-looping.

Windows whose reply never comes are swept by each shard's own reply
pump (:meth:`~repro.cluster.frontend.ClusterManager._sweep_stale`), so
that works without a supervisor too.

The supervisor never makes scheduling decisions; it only restores the
topology the manager was configured with.  It runs as one daemon thread
under a copied context so its telemetry lands in the manager's registry.
"""

from __future__ import annotations

import contextvars
import threading
from typing import TYPE_CHECKING

from ..utils.validation import check_positive, require

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (frontend imports us)
    from .frontend import ClusterManager

__all__ = ["ShardSupervisor"]


class ShardSupervisor:
    """Heartbeat loop restarting dead shard workers (bounded)."""

    def __init__(
        self,
        manager: "ClusterManager",
        *,
        heartbeat_seconds: float = 0.25,
        max_restarts: int = 3,
    ):
        check_positive(heartbeat_seconds, "heartbeat_seconds")
        require(max_restarts >= 0, f"max_restarts must be >= 0, got {max_restarts}")
        self.manager = manager
        self.heartbeat_seconds = float(heartbeat_seconds)
        self.max_restarts = int(max_restarts)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "ShardSupervisor":
        require(self._thread is None, "supervisor already started")
        context = contextvars.copy_context()
        self._thread = threading.Thread(
            target=lambda: context.run(self._loop),
            name="repro-supervisor",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, *, timeout: float = 2.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    # -- the heartbeat ----------------------------------------------------------

    def _beat_once(self) -> None:
        manager = self.manager
        for handle in manager._handles.values():
            if manager._stopping.is_set():
                return
            process = handle.process
            if handle.alive and process is not None and not process.is_alive():
                # The dispatcher usually notices first; this is the
                # backstop for a death it has not seen yet.
                manager._shard_died(handle)
            if (
                not handle.alive
                and process is not None
                and handle.restarts < self.max_restarts
            ):
                manager._restart_shard(handle)

    def _loop(self) -> None:
        while not self._stop.wait(self.heartbeat_seconds):
            if self.manager._stopping.is_set():
                return
            self._beat_once()

    def __repr__(self) -> str:
        return (
            f"ShardSupervisor(heartbeat={self.heartbeat_seconds}, "
            f"max_restarts={self.max_restarts})"
        )
