"""Algorithm 1 — exact fractional scheduling on one machine.

Greedy over accuracy-function segments in non-increasing slope order:
each segment receives as much processing time as the *tightest following
deadline* allows (paper Alg. 1).  For concave piecewise-linear accuracy
functions this greedy is optimal: the feasible region of cumulative times
is a polymatroid-like nested system (prefix sums bounded by deadlines)
and the objective is separable concave, so steepest-slope-first satisfies
the KKT conditions of Sec. 3.2 (non-increasing marginal gains along the
machine).

An optional ``total_cap`` bounds the total busy time, which is how the
multi-machine algorithm encodes the energy budget as "an additional
deadline" (Sec. 4.1's remark).

Complexity: with ``S`` segments in total, each allocation scans the
following tasks once — ``O(S · n)``; for a constant number of segments
per task this is the paper's ``O(n²)`` (Theorem 1).  The segments come
as a flat :class:`~repro.core.segments.SegmentTable`; one ``lexsort``
orders them and the walk reads plain lists.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.segments import SegmentTable
from ..utils.errors import ValidationError
from ..utils.validation import check_positive, check_sorted

__all__ = ["solve_single_machine"]


def solve_single_machine(
    deadlines: Sequence[float],
    speed: float,
    segments: SegmentTable,
    *,
    total_cap: float = math.inf,
) -> np.ndarray:
    """Optimal fractional per-task times on one machine.

    Parameters
    ----------
    deadlines:
        ``d_j`` per task, non-decreasing (EDF order), seconds.
    speed:
        Machine speed ``s`` (FLOP/s).  Pass ``1.0`` to work directly in
        FLOP units (Algorithm 2's equivalent single machine).
    segments:
        Segment table (mutated: ``used`` is advanced so callers can
        recover each task's granted work and continue refining).
        Segments whose ``used`` is already positive are treated as
        partially processed.
    total_cap:
        Upper bound on ``Σ_j t_j`` (seconds); the energy budget as an
        additional deadline.

    Returns
    -------
    numpy.ndarray
        ``t_j`` processing time per task (seconds).
    """
    deadlines = np.asarray(deadlines, dtype=float)
    check_positive(speed, "speed")
    check_sorted(deadlines, "deadlines")
    if total_cap < 0:
        raise ValidationError(f"total_cap must be >= 0, got {total_cap}")
    n = deadlines.size
    if len(segments) and int(segments.task.max()) >= n:
        raise ValidationError(
            f"segment references task {int(segments.task.max())} but only {n} deadlines given"
        )
    t = np.zeros(n)
    # slack_arr[i] = d_i − Σ_{k≤i} t_k, maintained incrementally: raising
    # t_j lowers the slack of j and every later task by the same amount,
    # so each allocation is one suffix-min plus one suffix-subtract
    # instead of a fresh prefix-sum scan (same O(n²), ~2× the speed).
    slack_arr = deadlines.astype(float, copy=True)
    used_total = 0.0
    # Non-increasing slope (Algorithm 1 line 1); ties by (task, position)
    # keep the schedule deterministic, and within a task concavity makes
    # position order coincide with slope order.
    order = np.lexsort((segments.position, segments.task, -segments.slope))
    used, total = segments.used, segments.total
    walk = zip(
        order.tolist(),
        segments.slope[order].tolist(),
        segments.task[order].tolist(),
        segments.remaining[order].tolist(),
    )
    tight = -1  # last index whose slack is exactly 0: tasks up to it cannot grow
    for i, slope, j, remaining in walk:
        if slope <= 0.0:
            break  # sorted: no further segment can improve accuracy
        if j <= tight:
            continue
        wanted = remaining / speed
        if wanted <= 0.0:
            continue
        # Tightest slack among this task and all later ones: raising t_j
        # shifts every following task right (paper Alg. 1 lines 6–7).
        room = float(slack_arr[j:].min())
        slack = min(room, total_cap - used_total) if math.isfinite(total_cap) else room
        contribution = min(wanted, max(slack, 0.0))
        if contribution <= 0.0:
            continue
        t[j] += contribution
        slack_arr[j:] -= contribution
        used_total += contribution
        used[i] = min(used[i] + contribution * speed, total[i])
        if contribution == room:
            # x − x is exactly 0 and slacks never go negative, so every
            # later segment of a task up to the new zero would get 0.
            tight = j + int(np.flatnonzero(slack_arr[j:] == 0.0)[-1])
            if tight == n - 1:
                break
    return t
