"""Tasks: compressible inference jobs with deadlines.

Paper Sec. 3: each job ``j`` needs ``f_j^max`` FLOP for full execution,
must finish by deadline ``d_j``, and carries an accuracy function
``a_j(f)``.  Jobs are conventionally indexed by *non-decreasing deadline*
(``i < j`` iff ``d_i < d_j``); :class:`TaskSet` enforces/creates this
EDF order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from ..utils.errors import ValidationError
from ..utils.validation import check_positive, require
from .accuracy import PiecewiseLinearAccuracy, check_curves

__all__ = ["Task", "TaskSet", "CurveState"]


@dataclass(frozen=True)
class Task:
    """One compressible inference job.

    Attributes
    ----------
    deadline:
        ``d_j`` in seconds (> 0).
    accuracy:
        Piecewise-linear accuracy function; its ``f_max`` is the work
        ``f_j^max`` of full (uncompressed) execution.
    name:
        Optional label for traces and examples.
    """

    deadline: float
    accuracy: PiecewiseLinearAccuracy
    name: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive(self.deadline, "deadline")
        if not isinstance(self.accuracy, PiecewiseLinearAccuracy):
            raise ValidationError(
                "Task.accuracy must be a PiecewiseLinearAccuracy "
                f"(got {type(self.accuracy).__name__}); fit exponential "
                "curves with repro.core.accuracy.fit_piecewise first"
            )

    @property
    def f_max(self) -> float:
        """``f_j^max``: FLOP for full execution."""
        return self.accuracy.f_max

    @property
    def a_max(self) -> float:
        """Accuracy of full execution."""
        return self.accuracy.a_max

    @property
    def a_min(self) -> float:
        """Accuracy with zero work (random guess)."""
        return self.accuracy.a_min

    @property
    def efficiency_theta(self) -> float:
        """The paper's task efficiency θ_j: slope of the first segment."""
        return self.accuracy.first_slope

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Task(d={self.deadline:.4g}s, f_max={self.f_max:.4g} FLOP{label})"


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark arrays read-only (views taken afterwards inherit it)."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


class CurveState(NamedTuple):
    """Where each task sits on its accuracy curve (Algorithm 3's view)."""

    flops: np.ndarray  #: work clipped to [0, f_max], snapped to breakpoints
    gain: np.ndarray  #: right slope a'+(f); 0 at f_max
    loss: np.ndarray  #: left slope a'−(f); the first slope at 0
    next_room: np.ndarray  #: FLOP up to the next breakpoint; 0 at f_max
    prev_room: np.ndarray  #: FLOP down to the previous breakpoint; 0 at 0


class TaskSet:
    """Tasks sorted by non-decreasing deadline (the paper's job order).

    The accuracy curves are also held stacked, one row per task:
    :attr:`points` and :attr:`values` ``(n, K+1)`` and :attr:`slopes`
    ``(n, K)``, where curves with fewer pieces repeat their last
    breakpoint and have slope 0 past their own :attr:`n_segments`.  The
    curve kernels (evaluation, Algorithms 1–3, the dual bound) read these
    arrays instead of looping over tasks.
    """

    def __init__(self, tasks: Sequence[Task], *, assume_sorted: bool = False) -> None:
        tasks = list(tasks)
        require(len(tasks) >= 1, "a task set needs at least one task")
        if not assume_sorted:
            tasks = sorted(tasks, key=lambda t: t.deadline)
        else:
            deadlines = [t.deadline for t in tasks]
            if any(b < a for a, b in zip(deadlines, deadlines[1:])):
                raise ValidationError("assume_sorted=True but deadlines are not sorted")
        accs = [t.accuracy for t in tasks]
        n_segments = np.array([acc.n_segments for acc in accs])
        width = int(n_segments.max()) + 1
        point_rows = [acc.breakpoints for acc in accs]
        value_rows = [acc.breakpoint_accuracies for acc in accs]
        if np.any(n_segments + 1 < width):
            # Short curves repeat their last breakpoint (edge padding).
            point_rows = [np.pad(p, (0, width - p.size), mode="edge") for p in point_rows]
            value_rows = [np.pad(v, (0, width - v.size), mode="edge") for v in value_rows]
        points, values = np.array(point_rows), np.array(value_rows)
        run = np.diff(points, axis=1)
        slopes = np.divide(np.diff(values, axis=1), run, out=np.zeros_like(run), where=run > 0.0)
        self._set(tuple(tasks), *_frozen(points, values, slopes))

    @classmethod
    def from_curves(
        cls,
        deadlines: Sequence[float],
        points: np.ndarray,
        values: np.ndarray,
        *,
        names: Optional[Sequence[Optional[str]]] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> "TaskSet":
        """Build a set from stacked ``(n, K+1)`` curves, one task per row.

        All curves are validated in one pass (:func:`check_curves`, whose
        errors carry ``labels[row]``), and each task's accuracy function
        is a read-only row view of the set's stack, so the curve data is
        held once.
        """
        deadlines = list(deadlines)
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        require(len(deadlines) >= 1, "a task set needs at least one task")
        if points.ndim != 2 or len(points) != len(deadlines):
            raise ValidationError(f"expected {len(deadlines)} stacked curves, got shape {points.shape}")
        slopes = check_curves(points, values, labels=labels)
        order = np.argsort(np.asarray(deadlines, dtype=float), kind="stable")
        points, values, slopes = _frozen(points[order], values[order], slopes[order])
        tasks = tuple(
            Task(
                deadline=deadlines[j],
                accuracy=PiecewiseLinearAccuracy._from_arrays(points[i], values[i], slopes[i]),
                name=names[j] if names is not None else None,
            )
            for i, j in enumerate(order.tolist())
        )
        self = cls.__new__(cls)
        self._set(tasks, points, values, slopes)
        return self

    def _set(self, tasks: tuple[Task, ...], points: np.ndarray, values: np.ndarray, slopes: np.ndarray) -> None:
        self._tasks = tasks
        self._deadlines = np.array([t.deadline for t in tasks], dtype=float)
        self._points, self._values, self._slopes = points, values, slopes
        self._f_max = points[:, -1].copy()

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    @property
    def tasks(self) -> tuple[Task, ...]:
        return self._tasks

    # -- vector views ---------------------------------------------------------

    @property
    def deadlines(self) -> np.ndarray:
        """``d_j`` vector (s), non-decreasing, read-only."""
        v = self._deadlines.view()
        v.flags.writeable = False
        return v

    @property
    def f_max(self) -> np.ndarray:
        """``f_j^max`` vector (FLOP), read-only."""
        v = self._f_max.view()
        v.flags.writeable = False
        return v

    @property
    def d_max(self) -> float:
        """The last (largest) deadline ``d^max``."""
        return float(self._deadlines[-1])

    @property
    def total_f_max(self) -> float:
        """Total uncompressed demand ``Σ_j f_j^max`` (FLOP)."""
        return float(self._f_max.sum())

    @property
    def theta_min(self) -> float:
        """Smallest task efficiency over the set."""
        return float(self._slopes[:, 0].min())

    @property
    def theta_max(self) -> float:
        """Largest task efficiency over the set."""
        return float(self._slopes[:, 0].max())

    @property
    def heterogeneity_mu(self) -> float:
        """Task heterogeneity ratio μ = θ_max / θ_min (paper Sec. 6)."""
        return self.theta_max / self.theta_min

    @property
    def points(self) -> np.ndarray:
        """Breakpoints ``(n, K+1)`` (FLOP), edge-padded, read-only."""
        return self._points

    @property
    def values(self) -> np.ndarray:
        """Accuracy at each breakpoint ``(n, K+1)``, edge-padded, read-only."""
        return self._values

    @property
    def slopes(self) -> np.ndarray:
        """Segment slopes ``(n, K)``; 0 past a task's own pieces; read-only."""
        return self._slopes

    @property
    def n_segments(self) -> np.ndarray:
        """Number of linear pieces of each task's curve."""
        return (np.diff(self._points, axis=1) > 0.0).sum(axis=1)

    def accuracies(self, flops: Sequence[float]) -> np.ndarray:
        """Evaluate each task's accuracy at the given per-task work.

        Bit-identical to ``task.accuracy.value(f)`` per task: the same
        ``slope·(f − p_k) + a_k`` that ``np.interp`` computes, with its
        cases for an exact breakpoint hit, ``f < 0`` and ``f ≥ f_max``.
        """
        f = np.asarray(flops, dtype=float)
        if f.shape != (len(self),):
            raise ValidationError(f"expected {len(self)} work values, got shape {f.shape}")
        rows, points, values = np.arange(len(self)), self._points, self._values
        k = (points[:, 1:-1] <= f[:, None]).sum(axis=1)
        left, base = points[rows, k], values[rows, k]
        inside = np.clip(f, 0.0, self._f_max)  # f itself wherever the line is used
        out = np.where(f == left, base, self._slopes[rows, k] * (inside - left) + base)
        out = np.where(f < 0.0, values[:, 0], out)
        return np.where(f >= self._f_max, values[:, -1], out)

    def curve_state(self, flops: np.ndarray) -> CurveState:
        """Each task's curve position at ``flops``, as Algorithm 3 reads it.

        Work is clipped to ``[0, f_max]`` and snapped to a breakpoint
        within ``1e-9·f_max``: a residual ~1e-16·f_max of room would
        otherwise pin a task in its current segment with no capacity.
        The slopes and rooms then equal the scalar
        :meth:`~repro.core.accuracy.PiecewiseLinearAccuracy.marginal_gain`,
        :meth:`~repro.core.accuracy.PiecewiseLinearAccuracy.marginal_loss`
        and :meth:`~repro.core.accuracy.PiecewiseLinearAccuracy.segment_index`
        at the snapped work.
        """
        rows, points, slopes, f_max = np.arange(len(self)), self._points, self._slopes, self._f_max
        last = points.shape[1] - 1
        f = np.minimum(np.maximum(flops, 0.0), f_max)
        below = (points < f[:, None]).sum(axis=1)
        lower = points[rows, np.maximum(below - 1, 0)]
        upper = points[rows, below]
        eps = 1e-9 * f_max
        f = np.where(
            (below > 0) & (np.abs(f - lower) <= eps), lower, np.where(np.abs(f - upper) <= eps, upper, f)
        )
        right = (points <= f[:, None]).sum(axis=1)  # f ≥ 0, so right ≥ 1
        left = np.maximum((points < f[:, None]).sum(axis=1) - 1, 0)
        top = f >= f_max
        return CurveState(
            flops=f,
            gain=np.where(top, 0.0, slopes[rows, np.minimum(right, last) - 1]),
            loss=slopes[rows, left],
            next_room=np.where(top, 0.0, points[rows, np.minimum(right, last)] - f),
            prev_room=np.where(f <= 0.0, 0.0, f - points[rows, left]),
        )

    def max_accuracy_sum(self) -> float:
        """``Σ_j a_j^max`` — upper bound on any schedule's total accuracy."""
        return float(sum(t.a_max for t in self._tasks))

    def __repr__(self) -> str:
        return f"TaskSet(n={len(self)}, d_max={self.d_max:.4g}s)"
