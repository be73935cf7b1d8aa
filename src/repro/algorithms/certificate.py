"""Weak-duality certificate for DSCT-EA-FR (paper Sec. 3.2).

Dualising the budget row (3e) with ``λ ≥ 0`` and the prefix-deadline
rows (3c) with ``μ_ir ≥ 0`` leaves a problem that splits per task.  With
``M_jr = Σ_{i≥j} μ_ir`` the cheapest FLOP for task ``j`` costs
``c_j = min_r (λP_r + M_jr)/s_r``, and since ``a_j`` is concave
piecewise-linear its best response sits on a breakpoint, so

    UB = λB + Σ_{i,r} μ_ir·d_i + Σ_j max_k (a_jk − c_j·p_jk)

bounds the LP optimum from above for *any* ``λ, μ ≥ 0``.

:func:`dual_bound` builds the multipliers from a primal schedule, the
way Algorithm 2's water-line implies them: ``μ`` lives only on tight
prefixes, its block values are the least ones that price every task's
right slope ``g_j`` and give each task one common per-FLOP price on its
machines, and ``λ`` is read off the pairs no tight prefix covers.  When
they are the LP duals, ``UB`` equals the primal accuracy, which
certifies it; otherwise ``UB`` is still a valid (looser) bound.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.schedule import Schedule

__all__ = ["dual_bound", "certified_gap"]

#: Relative float dust: breakpoint snapping, allocation and tightness.
_DUST = 1e-9


def dual_bound(schedule: Schedule) -> float:
    """Lagrangian upper bound on the DSCT-EA-FR optimum from ``schedule``'s duals.

    Valid for any ``schedule``: weak duality holds for every choice of
    multipliers.  At an LP-optimal schedule the multipliers built here
    are, on every instance tested, LP duals, so the bound equals
    ``schedule.total_accuracy`` up to float error.  An infinite budget
    drops the ``λ`` term (``λ = 0``).
    """
    inst = schedule.instance
    cluster = inst.cluster
    t = schedule.times
    n, m = t.shape
    speeds, powers, effs = cluster.speeds, cluster.powers, cluster.efficiencies
    deadlines = inst.tasks.deadlines
    # Short curves repeat their last breakpoint, which adds nothing to a
    # max over breakpoints; their padded slopes are 0 and never read.
    points, values, slopes = inst.tasks.points, inst.tasks.values, inst.tasks.slopes
    rows = np.arange(n)
    f_max = points[:, -1]

    # Right/left slopes at f_j, snapped to a breakpoint within float dust.
    f = np.clip(t @ speeds, 0.0, f_max)
    near = np.abs(points - f[:, None])
    k_near = near.argmin(axis=1)
    f = np.where(near[rows, k_near] <= _DUST * f_max, points[rows, k_near], f)
    inner = points[:, 1:]
    last = slopes.shape[1] - 1
    gain = np.where(f < f_max, slopes[rows, np.minimum((inner <= f[:, None]).sum(axis=1), last)], 0.0)
    loss = slopes[rows, np.minimum((inner < f[:, None]).sum(axis=1), last)]

    alloc = t > _DUST * deadlines[-1]
    tight = np.cumsum(t, axis=0) >= deadlines[:, None] * (1.0 - _DUST)
    tight_at = np.where(tight, rows[:, None], -1)
    # (j, r) is priced when a tight prefix i ≥ j exists on r; M_jr is
    # constant on each block between tight prefixes, so every task reads
    # the block value stored from one past the previous tight prefix.
    priced = rows[:, None] <= tight_at.max(axis=0)[None, :]
    block_start = np.zeros((n, m), dtype=int)
    block_start[1:] = np.maximum.accumulate(tight_at, axis=0)[:-1] + 1
    machines = np.arange(m)

    def bound_at(lam: float) -> float:
        base = lam / effs  # per-FLOP energy price on each machine
        demand = np.where(priced, np.maximum(speeds * gain[:, None] - lam * powers, 0.0), 0.0)
        for _ in range(2 * (n + m)):
            suffix = np.maximum.accumulate(demand[::-1], axis=0)[::-1]
            block = suffix[block_start, machines]
            price = base + block / speeds
            common = np.where(alloc, price, -np.inf).max(axis=1, keepdims=True)
            short = priced & (price < common * (1.0 - 1e-12))
            if not short.any():
                break
            demand = np.where(short, np.maximum(demand, speeds * common - lam * powers), demand)
        mu = block.copy()
        mu[:-1] -= block[1:]
        cheapest = price.min(axis=1)
        value = float((mu * deadlines[:, None]).sum())
        value += float((values - cheapest[:, None] * points).max(axis=1).sum())
        return value + lam * inst.budget if lam > 0.0 else value

    if not math.isfinite(inst.budget):
        return bound_at(0.0)
    free = ~priced
    lo = float((gain[:, None] * effs)[free].max(initial=0.0))
    hi = float((loss[:, None] * effs)[free & alloc].min(initial=math.inf))
    candidates = [lo] if not math.isfinite(hi) or hi == lo else [lo, hi]
    return min(bound_at(lam) for lam in candidates)


def certified_gap(accuracy: float, bound: float) -> float:
    """Relative gap ``(UB − acc)/acc``; float noise below 0 reads as 0."""
    if accuracy > 0.0:
        return max(bound - accuracy, 0.0) / accuracy
    return 0.0 if bound <= accuracy else math.inf
