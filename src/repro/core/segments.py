"""The flat segment table driving Algorithm 1.

The paper's pseudocode manipulates a ``listSegments`` structure whose
entries know their *slope*, owning *task*, *position* within the task's
accuracy function, *totalFlops*, and the *usedFlops* already granted by
the scheduler.  :class:`SegmentTable` holds that list as parallel arrays,
one entry per piece, in task-major position order;
:func:`build_segment_list` reads it off a task set's stacked curves.

Invariant maintained by the algorithms (and asserted in tests): within a
task, segment ``k`` receives work only after segment ``k−1`` is full —
automatic when processing segments in non-increasing slope order, since
concavity makes earlier segments at least as steep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .task import TaskSet

__all__ = ["SegmentTable", "build_segment_list", "task_used_flops"]


@dataclass
class SegmentTable:
    """``listSegments`` as arrays: entry ``i`` is one piece of one task."""

    slope: np.ndarray  #: accuracy per FLOP
    task: np.ndarray  #: owning task index
    position: np.ndarray  #: 0-based piece index within the task's curve
    total: np.ndarray  #: FLOP span of the piece
    used: np.ndarray  #: FLOP granted so far (mutable)

    def __len__(self) -> int:
        return int(self.slope.size)

    @property
    def remaining(self) -> np.ndarray:
        """FLOP still available in each piece (never negative)."""
        return np.maximum(self.total - self.used, 0.0)


def build_segment_list(tasks: TaskSet) -> SegmentTable:
    """Every task's accuracy pieces as one flat table, nothing used yet."""
    slopes = tasks.slopes
    task, position = np.nonzero(np.arange(slopes.shape[1]) < tasks.n_segments[:, None])
    return SegmentTable(
        slope=slopes[task, position],
        task=task,
        position=position,
        total=np.diff(tasks.points, axis=1)[task, position],
        used=np.zeros(task.size),
    )


def task_used_flops(segments: SegmentTable, n_tasks: int) -> np.ndarray:
    """Total FLOP granted to each task across its segments."""
    return np.bincount(segments.task, weights=segments.used, minlength=n_tasks)
