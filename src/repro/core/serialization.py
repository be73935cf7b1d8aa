"""JSON (de)serialisation of the core data model.

Instances and schedules round-trip through plain dicts / JSON files so
that experiment inputs can be archived, shared, and replayed — a
production necessity the in-memory model alone does not cover.

The format is versioned; loaders reject unknown versions rather than
guessing.  All quantities are stored in SI units (FLOP, s, J, W) exactly
as held in memory, so round-trips are bit-faithful.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

from ..utils.errors import ValidationError
from ..utils.fileio import atomic_write
from .accuracy import PiecewiseLinearAccuracy, check_curves
from .instance import ProblemInstance
from .machine import Cluster, Machine
from .schedule import Schedule
from .task import Task, TaskSet

__all__ = [
    "FORMAT_VERSION",
    "cluster_to_dict",
    "cluster_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "budget_from_dict",
    "save_instance",
    "load_instance",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
]

FORMAT_VERSION = 1


def _accuracy_to_dict(acc: PiecewiseLinearAccuracy) -> Dict[str, Any]:
    return {
        "breakpoints": acc.breakpoints.tolist(),
        "accuracies": acc.breakpoint_accuracies.tolist(),
    }


def cluster_to_dict(cluster: Cluster) -> list:
    """Serialise a cluster as a JSON-ready machine list."""
    return [
        {
            "speed": m.speed,
            "efficiency": m.efficiency,
            "name": m.name,
            "idle_power": m.idle_power,
        }
        for m in cluster
    ]


def cluster_from_dict(machines: list) -> Cluster:
    """Rebuild a cluster from :func:`cluster_to_dict` output."""
    return Cluster(
        [
            Machine(
                speed=m["speed"],
                efficiency=m["efficiency"],
                name=m.get("name"),
                idle_power=m.get("idle_power", 0.0),
            )
            for m in machines
        ]
    )


def instance_to_dict(instance: ProblemInstance) -> Dict[str, Any]:
    """Serialise a problem instance to a JSON-ready dict."""
    return {
        "format": "repro.instance",
        "version": FORMAT_VERSION,
        "budget": instance.budget if math.isfinite(instance.budget) else "inf",
        "machines": cluster_to_dict(instance.cluster),
        "tasks": [
            {
                "deadline": t.deadline,
                "name": t.name,
                "accuracy": _accuracy_to_dict(t.accuracy),
            }
            for t in instance.tasks
        ],
    }


def _check_header(data: Dict[str, Any], expected: str) -> None:
    if not isinstance(data, dict) or data.get("format") != expected:
        raise ValidationError(f"not a {expected} document")
    if data.get("version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported {expected} version {data.get('version')!r} (expected {FORMAT_VERSION})"
        )


def _tasks_from_dicts(docs: List[Dict[str, Any]]) -> TaskSet:
    """Decode task dicts; curves with the same breakpoint count validate in one pass.

    A malformed curve raises :class:`ValidationError` naming its task.
    """
    names = [t.get("name") for t in docs]
    labels = [f"task {j}" + (f" ({name!r})" if name else "") for j, name in enumerate(names)]
    curves = [t["accuracy"] for t in docs]
    groups: Dict[int, List[int]] = {}
    for j, curve in enumerate(curves):
        try:
            width, other = len(curve["breakpoints"]), len(curve["accuracies"])
        except TypeError:
            raise ValidationError(f"{labels[j]}: breakpoints and accuracies must be sequences") from None
        if width != other:
            raise ValidationError(
                f"{labels[j]}: breakpoints and accuracies must have equal length, got {width} and {other}"
            )
        groups.setdefault(width, []).append(j)
    stacks = {
        width: (
            np.array([curves[j]["breakpoints"] for j in rows], dtype=float),
            np.array([curves[j]["accuracies"] for j in rows], dtype=float),
        )
        for width, rows in groups.items()
    }
    deadlines = [t["deadline"] for t in docs]
    if len(stacks) == 1:
        points, values = next(iter(stacks.values()))
        return TaskSet.from_curves(deadlines, points, values, names=names, labels=labels)
    # Mixed piece counts: one pass per count, then the general constructor.
    accuracies: List[Any] = [None] * len(docs)
    for width, rows in groups.items():
        points, values = stacks[width]
        slopes = check_curves(points, values, labels=[labels[j] for j in rows])
        for i, j in enumerate(rows):
            accuracies[j] = PiecewiseLinearAccuracy._from_arrays(points[i], values[i], slopes[i])
    return TaskSet(
        [Task(deadline=d, accuracy=acc, name=name) for d, acc, name in zip(deadlines, accuracies, names)]
    )


def instance_from_dict(data: Dict[str, Any]) -> ProblemInstance:
    """Rebuild a problem instance from :func:`instance_to_dict` output."""
    _check_header(data, "repro.instance")
    cluster = cluster_from_dict(data["machines"])
    tasks = _tasks_from_dicts(data["tasks"])
    return ProblemInstance(tasks, cluster, budget_from_dict(data))


def budget_from_dict(data: Dict[str, Any]) -> float:
    """An instance document's energy budget ``B`` in Joules (``"inf"`` ⇒ ∞).

    Reads only the ``budget`` field, so a caller can price a request
    without decoding it; raises on a missing, non-numeric or negative
    (or NaN) budget.
    """
    raw = data["budget"]
    budget = math.inf if raw == "inf" else float(raw)
    if not budget >= 0.0:
        raise ValidationError(f"budget must be >= 0, got {budget!r}")
    return budget


def save_instance(instance: ProblemInstance, path: Union[str, Path]) -> None:
    """Write an instance as JSON (atomically — a crash never corrupts it)."""
    atomic_write(path, json.dumps(instance_to_dict(instance), indent=2))


def load_instance(path: Union[str, Path]) -> ProblemInstance:
    """Read an instance written by :func:`save_instance`."""
    return instance_from_dict(json.loads(Path(path).read_text()))


def schedule_to_dict(schedule: Schedule, *, embed_instance: bool = True) -> Dict[str, Any]:
    """Serialise a schedule (optionally with its instance inline)."""
    out: Dict[str, Any] = {
        "format": "repro.schedule",
        "version": FORMAT_VERSION,
        "times": np.asarray(schedule.times).tolist(),
    }
    if embed_instance:
        out["instance"] = instance_to_dict(schedule.instance)
    return out


def schedule_from_dict(
    data: Dict[str, Any], instance: Union[ProblemInstance, None] = None
) -> Schedule:
    """Rebuild a schedule; the instance comes inline or as an argument."""
    _check_header(data, "repro.schedule")
    if instance is None:
        if "instance" not in data:
            raise ValidationError("schedule document has no embedded instance; pass one explicitly")
        instance = instance_from_dict(data["instance"])
    times = np.asarray(data["times"], dtype=float)
    return Schedule(instance, times)


def save_schedule(schedule: Schedule, path: Union[str, Path], *, embed_instance: bool = True) -> None:
    """Write a schedule (and by default its instance) as JSON, atomically."""
    atomic_write(path, json.dumps(schedule_to_dict(schedule, embed_instance=embed_instance), indent=2))


def load_schedule(path: Union[str, Path], instance: Union[ProblemInstance, None] = None) -> Schedule:
    """Read a schedule written by :func:`save_schedule`."""
    return schedule_from_dict(json.loads(Path(path).read_text()), instance)
