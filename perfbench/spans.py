"""In-memory spans recorded around calls into the program's layers.

The traced run wraps public functions of ``repro`` from the benchmark's
own files: :func:`install` replaces a module or class attribute with a
wrapper that records ``(name, key, thread, start, end)`` for each call.
Nothing is added inside ``src/``.  Spans stay in a list until the run
ends; :func:`self_times` turns them into per-span self time (the span's
duration minus the time its child spans cover), and :func:`layer_table`
splits each request's end-to-end time into layers plus an unattributed
remainder.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Key of the operation being timed, set by in-process workloads around
#: each solve or window; servers key spans by the request's trace id.
current_key: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar("perfbench_key", default=None)


@dataclass
class Span:
    name: str
    key: Optional[str]
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped calls; ``list.append`` is atomic under the GIL."""

    def __init__(self, key_fn: Callable[[], Optional[str]] = current_key.get):
        self.spans: List[Span] = []
        self._key_fn = key_fn
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, key_fn, clock = self.spans, self._key_fn, time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append(Span(name, key_fn(), get_ident(), start, clock()))

        return traced

    def install(self, targets: Iterable[Tuple[str, str, str]]) -> None:
        """Wrap each ``(module, attribute path, span name)`` target.

        The attribute path is ``func`` for a module-level function (patched
        in the module that *calls* it, since ``from x import f`` binds a
        name there) or ``Class.method`` for a method.
        """
        for module_name, path, span_name in targets:
            owner: object = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def to_json(self) -> List[list]:
        return [[s.name, s.key, s.thread, s.start, s.end] for s in self.spans]


def spans_from_json(rows: Sequence[Sequence]) -> List[Span]:
    return [Span(str(r[0]), r[1], int(r[2]), float(r[3]), float(r[4])) for r in rows]


# Wrapped calls, by layer.  Solver functions are patched where they are
# looked up: ``approx`` calls ``solve_fractional`` and ``round_fractional``,
# ``fractional`` calls Algorithms 2 and 3 (also inside the polish search),
# and Algorithm 2 calls Algorithm 1 and the segment-list builder.
SOLVER_TARGETS = (
    ("repro.algorithms.approx", "solve_fractional", "algorithms.fractional"),
    ("repro.algorithms.approx", "round_fractional", "algorithms.alg5"),
    ("repro.algorithms.fractional", "compute_naive_solution", "algorithms.alg2"),
    ("repro.algorithms.fractional", "refine_profile", "algorithms.alg3"),
    ("repro.algorithms.naive_solution", "solve_single_machine", "algorithms.alg1"),
    ("repro.algorithms.naive_solution", "build_segment_list", "core.segments"),
)
ONLINE_TARGETS = (
    ("repro.online.planner", "tasks_from_thetas", "workloads.fit"),
    ("repro.algorithms.approx", "ApproxScheduler.solve", "online.solve"),
)
SERVER_TARGETS = (
    ("repro.server", "instance_from_dict", "core.decode"),
    ("repro.server", "solve_payload", "core.payload"),
    ("repro.cluster.solve_service", "SolveService.solve", "server.solve"),
    ("repro.durability.journal", "JournalWriter.append", "durability.append"),
    ("repro.durability.snapshot", "SnapshotStore.save", "durability.snapshot"),
    ("repro.resilience.admission", "AdmissionController.try_begin", "resilience.admission"),
)
CLUSTER_TARGETS = (
    ("repro.cluster.frontend", "ClusterManager.submit", "cluster.submit"),
    ("repro.cluster.batcher", "WindowBatcher.submit", "cluster.batcher"),
    ("repro.cluster.batcher", "PendingResult.wait", "cluster.wait"),
    ("repro.cluster.router", "ConsistentHashRouter.route", "cluster.router"),
    ("repro.cluster.ledger", "EnergyLeaseLedger.reserve", "cluster.ledger.reserve"),
    ("repro.cluster.ledger", "EnergyLeaseLedger.commit", "cluster.ledger.commit"),
    ("repro.cluster.ledger", "EnergyLeaseLedger.release", "cluster.ledger.release"),
    ("repro.resilience.admission", "AdmissionController.try_begin", "resilience.admission"),
)


@dataclass
class Node:
    span: Span
    parent: Optional[int]
    self_time: float


def self_times(spans: Sequence[Span]) -> List[Node]:
    """Nest spans per thread and compute each one's self time.

    Calls on one thread nest properly, so a span's parent is the
    innermost earlier span on its thread that contains it, and its self
    time is its duration minus the durations of its direct children.
    Returned nodes are in the input order.
    """
    nodes = [Node(s, None, s.duration) for s in spans]
    by_thread: Dict[int, List[int]] = {}
    for i, s in enumerate(spans):
        by_thread.setdefault(s.thread, []).append(i)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: List[int] = []
        for i in indices:
            while stack and spans[stack[-1]].end <= spans[i].start:
                stack.pop()
            if stack and spans[i].end <= spans[stack[-1]].end:
                parent = stack[-1]
                nodes[i].parent = parent
                nodes[parent].self_time -= spans[i].duration
            stack.append(i)
    return nodes


def inherit_keys(nodes: Sequence[Node]) -> None:
    """Give a keyless span the key of its keyed children.

    ``ClusterManager.submit`` opens its request's trace scope inside the
    call, so its own span is recorded without the trace id its children
    carry.  Children are shorter than their parents, so visiting spans
    shortest first carries a key up any number of levels.
    """
    for i in sorted(range(len(nodes)), key=lambda i: nodes[i].span.duration):
        parent = nodes[i].parent
        if parent is not None and nodes[parent].span.key is None and nodes[i].span.key is not None:
            nodes[parent].span.key = nodes[i].span.key


def self_by_key(nodes: Sequence[Node]) -> Dict[Optional[str], Dict[str, float]]:
    """Total self time per (key, span name)."""
    out: Dict[Optional[str], Dict[str, float]] = {}
    for node in nodes:
        row = out.setdefault(node.span.key, {})
        row[node.span.name] = row.get(node.span.name, 0.0) + node.self_time
    return out


def search_time(nodes: Sequence[Node]) -> float:
    """Time each fractional solve spends after its first Algorithm 3 call returns.

    That tail is the polish search (``_polish_profiles``), measured from
    outside as the parent span's end minus its first ``algorithms.alg3``
    child's end.
    """
    first_refine_end: Dict[int, float] = {}
    for node in nodes:
        if node.span.name == "algorithms.alg3" and node.parent is not None:
            parent = node.parent
            if nodes[parent].span.name == "algorithms.fractional":
                end = node.span.end
                if parent not in first_refine_end or end < first_refine_end[parent]:
                    first_refine_end[parent] = end
    return sum(nodes[p].span.end - end for p, end in first_refine_end.items())


def layer_table(
    totals: Dict[str, float],
    per_key: Dict[Optional[str], Dict[str, float]],
    band_keys: Sequence[str],
) -> Tuple[List[Tuple[str, float]], float, float]:
    """Mean per-layer self time (s) over the band's requests.

    ``totals`` maps each request key to its end-to-end time.  Returns
    ``(rows, unattributed, band_mean)`` where the rows plus the
    unattributed remainder add up to the band's mean end-to-end time.
    """
    if not band_keys:
        return [], 0.0, 0.0
    sums: Dict[str, float] = {}
    for key in band_keys:
        for name, value in per_key.get(key, {}).items():
            sums[name] = sums.get(name, 0.0) + value
    count = len(band_keys)
    rows = sorted(((name, value / count) for name, value in sums.items()), key=lambda r: -r[1])
    band_mean = sum(totals[k] for k in band_keys) / count
    return rows, band_mean - sum(v for _, v in rows), band_mean


def format_table(title: str, rows: Sequence[Tuple[str, float]], unattributed: float, total: float) -> str:
    lines = [title, f"  {'layer':<28} {'ms':>10} {'share':>8}"]
    for name, value in list(rows) + [("unattributed", unattributed)]:
        share = value / total if total > 0 else 0.0
        lines.append(f"  {name:<28} {value * 1e3:>10.3f} {share:>8.1%}")
    lines.append(f"  {'total (band mean)':<28} {total * 1e3:>10.3f} {1.0:>8.1%}")
    return "\n".join(lines)


def solver_layer_metrics(nodes: Sequence[Node], total_s: float) -> Dict[str, float]:
    """Per-layer solver metrics: call counts per solve and self-time shares.

    Shares are of ``total_s``, the workload's end-to-end time over the
    traced operations, so they say how much of what a user waits for
    each algorithm is.
    """
    self_sum: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for node in nodes:
        self_sum[node.span.name] = self_sum.get(node.span.name, 0.0) + node.self_time
        calls[node.span.name] = calls.get(node.span.name, 0) + 1
    solves = max(calls.get("algorithms.fractional", 0), 1)
    share = (lambda name: self_sum.get(name, 0.0) / total_s) if total_s > 0 else (lambda name: 0.0)
    return {
        "algorithms.alg2.calls_per_solve": calls.get("algorithms.alg2", 0) / solves,
        "algorithms.alg3.calls_per_solve": calls.get("algorithms.alg3", 0) / solves,
        "algorithms.alg1.share": share("algorithms.alg1"),
        "algorithms.alg2.share": share("algorithms.alg2"),
        "algorithms.alg3.share": share("algorithms.alg3"),
        "algorithms.alg5.share": share("algorithms.alg5"),
        "core.segments.share": share("core.segments"),
        "algorithms.search.share": search_time(nodes) / total_s if total_s > 0 else 0.0,
    }
