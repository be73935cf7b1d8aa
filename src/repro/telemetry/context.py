"""Context-local collector activation and the zero-cost default.

Instrumented code never checks "is telemetry on?" — it asks
:func:`get_collector` and reports unconditionally.  When no collector is
active the call lands on the module-level :data:`NOOP` sink, whose
counters, gauges, histograms, timers and spans are shared do-nothing
singletons, so an uninstrumented run pays one ``ContextVar.get`` plus a
method call per instrumentation point and allocates nothing.

Activation is a context manager::

    from repro.telemetry import collector

    with collector() as reg:
        scheduler.solve(instance)
    reg.snapshot()          # every counter/histogram/span of the solve

``collector`` uses a :class:`contextvars.ContextVar`, so activation is
scoped to the current thread/async task and nests: an inner
``collector()`` shadows the outer registry until it exits.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Iterator, Optional, Union

from .registry import MetricsRegistry

__all__ = ["NullCollector", "NOOP", "collector", "get_collector", "active_collector"]


class _NoopInstrument:
    """Stands in for Counter, Gauge, Histogram and timer alike."""

    __slots__ = ()

    def inc(self) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NoopSpan:
    """Reusable, stateless no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set_label(self, key: str, value: object) -> None:
        pass


_NOOP_INSTRUMENT = _NoopInstrument()
_NOOP_SPAN = _NoopSpan()


class NullCollector:
    """API-compatible sink that records nothing (the inactive default)."""

    __slots__ = ()

    def counter(self, name: str, **labels) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def histogram(self, name: str, **kwargs) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def timer(self, name: str, **kwargs) -> _NoopSpan:
        return _NOOP_SPAN

    def span(self, name: str, **labels) -> _NoopSpan:
        return _NOOP_SPAN


#: The process-wide inactive sink; ``get_collector() is NOOP`` tests activation.
NOOP = NullCollector()

_ACTIVE: ContextVar[Optional[MetricsRegistry]] = ContextVar("repro_telemetry_collector", default=None)


def get_collector() -> Union[MetricsRegistry, NullCollector]:
    """The active registry, or the shared no-op sink when none is active."""
    reg = _ACTIVE.get()
    return reg if reg is not None else NOOP


def active_collector() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` — for code that must branch."""
    return _ACTIVE.get()


@contextlib.contextmanager
def collector(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Activate ``registry`` (a fresh one by default) for the enclosed block."""
    reg = registry if registry is not None else MetricsRegistry()
    token = _ACTIVE.set(reg)
    try:
        yield reg
    finally:
        _ACTIVE.reset(token)
