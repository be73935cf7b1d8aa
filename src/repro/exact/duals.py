"""KKT optimality certificates for fractional solutions (paper Sec. 3.2).

The paper derives necessary-and-sufficient optimality conditions for
DSCT-EA-FR from the KKT system of the LP (3a)–(3f).  This module turns
that analysis into executable checks, so a candidate fractional schedule
can be *certified* (approximately) optimal without re-solving.

Each check corresponds to one class of improving exchange move; a
violation is reported only when the move is **material** — when the
transferable amount times the slope difference would raise total
accuracy by more than ``tolerance`` (absolute accuracy units).  Slope
ratios alone are not enough: a pair can look wildly mispriced while only
an epsilon of energy is actually movable.

* **C1 — machine-local slope ordering** (Eqs. (8)–(12)): along each
  machine, shifting time from an earlier funded task to a later one
  must not pay.
* **C2 — accuracy-per-Joule comparability** ("The Energy Profiles"):
  transferring energy from any funded pair to any growable pair must
  not pay.  (Exactly RefineProfile's transfer move.)
* **C3 — budget complementary slackness**: unspent budget must not be
  spendable at a gain.

These are *necessary* conditions; they certify local optimality with
respect to the paper's exchange arguments.  ``certify`` names the
improving move behind each violation, which doubles as a debugging aid
for the algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from ..algorithms.refine_profile import deadline_slack
from ..core.schedule import Schedule
from ..utils.validation import check_nonnegative

__all__ = ["KKTViolation", "KKTReport", "certify", "LPDuals"]

#: How many top grow/shrink pairs C2 cross-examines (a certificate
#: shortcut; the extremal pairs carry the largest improvements).
_C2_CANDIDATES = 64


@dataclass(frozen=True)
class LPDuals:
    """Shadow prices of the LP relaxation (3a)–(3f), in natural units.

    Extracted from the HiGHS dual solution by
    :func:`repro.exact.lp.solve_lp_with_duals` and de-scaled back from
    the model's O(1) row scaling, so every value reads directly as a
    marginal accuracy:

    * ``budget`` — total accuracy gained per **+1 J** of budget B
      (Eq. (3e)'s multiplier; zero when the budget is slack);
    * ``deadline[r, j]`` — total accuracy gained per **+1 s** on the
      prefix-deadline constraint of task ``j`` on machine ``r``
      (Eq. (3c)); summing over ``j`` prices one extra second of
      machine-``r`` time across the whole horizon;
    * ``work_cap[j]`` — total accuracy gained per **+1 FLOP** of task
      ``j``'s compression ceiling ``f_j^max`` (Eq. (3d)).

    These are the provenance layer's raw material: a task's accuracy
    loss is attributed to whichever constraint carries the price it is
    actually paying (:mod:`repro.observe.provenance`).
    """

    budget: float
    deadline: np.ndarray  # (m, n)
    work_cap: np.ndarray  # (n,)

    @property
    def machine_time_value(self) -> np.ndarray:
        """Accuracy per +1 s of every deadline on machine r (length m)."""
        return self.deadline.sum(axis=1)

    def deadline_price(self, j: int, r: int) -> float:
        """Accuracy per +1 s of runway for task ``j`` on machine ``r``.

        One extra second of ``t_jr`` consumes a second of every prefix
        constraint ``i ≥ j`` on machine ``r``; its deadline price is the
        sum of those multipliers.
        """
        return float(self.deadline[r, j:].sum())


@dataclass(frozen=True)
class KKTViolation:
    """One violated optimality condition and the move that exploits it."""

    condition: str  # "C1" | "C2" | "C3"
    detail: str
    improvement: float  # absolute total-accuracy gain the move offers


@dataclass(frozen=True)
class KKTReport:
    """Outcome of a KKT certification."""

    violations: tuple[KKTViolation, ...]
    tolerance: float

    @property
    def certified(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.certified:
            return f"certified (no move improves accuracy by more than {self.tolerance:g})"
        lines = [f"{len(self.violations)} KKT violation(s):"]
        lines += [
            f"  [{v.condition}] {v.detail} (improvement {v.improvement:.3g})"
            for v in self.violations[:10]
        ]
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


def certify(schedule: Schedule, *, tolerance: float = 1e-6) -> KKTReport:
    """Check the Sec. 3.2 optimality conditions on a fractional schedule.

    ``tolerance`` is in absolute total-accuracy units: the schedule is
    certified when no single exchange move can raise total accuracy by
    more than it.
    """
    check_nonnegative(tolerance, "tolerance")
    inst = schedule.instance
    tasks, cluster = inst.tasks, inst.cluster
    n, m = inst.n_tasks, inst.n_machines
    t = schedule.times
    flops = schedule.task_flops
    speeds = cluster.speeds
    powers = cluster.powers
    effs = cluster.efficiencies
    deadlines = tasks.deadlines

    # Breakpoints snapped within float dust — optimal solutions sit exactly
    # on breakpoints, and a residual 1e-16·f_max would make the left/right
    # derivatives read from the wrong segments.
    state = tasks.curve_state(flops)
    gains, losses = state.gain, state.loss
    next_room = state.next_room  # FLOP to the next breakpoint (grow side)
    prev_room = state.prev_room  # FLOP above the previous breakpoint (shrink side)
    at_cap = state.flops >= tasks.f_max * (1.0 - 1e-9)

    violations: List[KKTViolation] = []

    # -- C1: time shift i → j along one machine -------------------------------
    completion = schedule.completion_times
    for r in range(m):
        funded = [j for j in range(n) if t[j, r] > 0.0]
        for a_idx in range(len(funded)):
            i = funded[a_idx]
            if at_cap[i]:
                continue  # the paper's f_max exception
            if completion[i, r] >= deadlines[i] * (1.0 - 1e-12):
                continue  # i deadline-tight: its time cannot shrink usefully
            for j in funded[a_idx + 1 :]:
                slope_excess = gains[j] - losses[i]
                if slope_excess <= 0:
                    continue
                movable_flops = min(
                    t[i, r] * speeds[r], prev_room[i], next_room[j]
                )
                improvement = movable_flops * slope_excess
                if improvement > tolerance:
                    violations.append(
                        KKTViolation(
                            "C1",
                            f"machine {r}: shift {movable_flops:.3g} FLOP of time from "
                            f"task {i} to task {j}",
                            float(improvement),
                        )
                    )

    # -- C2: energy transfer between (task, machine) pairs --------------------
    slack = deadline_slack(t, deadlines)
    psi_grow = gains[:, None] * effs[None, :]
    psi_loss = losses[:, None] * effs[None, :]
    grow_cap_e = np.minimum(slack * powers[None, :], next_room[:, None] / effs[None, :])
    shrink_cap_e = np.minimum(t * powers[None, :], prev_room[:, None] / effs[None, :])
    growable = (grow_cap_e > 0.0) & (psi_grow > 0.0)
    shrinkable = shrink_cap_e > 0.0

    if np.any(growable) and np.any(shrinkable):
        grow_idx = np.argsort(np.where(growable, -psi_grow, np.inf), axis=None)[:_C2_CANDIDATES]
        shrink_idx = np.argsort(np.where(shrinkable, psi_loss, np.inf), axis=None)[:_C2_CANDIDATES]
        best = None
        for gi in grow_idx:
            jg, rg = np.unravel_index(int(gi), psi_grow.shape)
            if not growable[jg, rg]:
                continue
            for si in shrink_idx:
                js, rs = np.unravel_index(int(si), psi_loss.shape)
                if not shrinkable[js, rs] or (jg, rg) == (js, rs):
                    continue
                excess = float(psi_grow[jg, rg] - psi_loss[js, rs])
                if excess <= 0:
                    continue
                delta_e = float(min(grow_cap_e[jg, rg], shrink_cap_e[js, rs]))
                improvement = delta_e * excess
                if improvement > tolerance and (best is None or improvement > best[0]):
                    best = (improvement, int(jg), int(rg), int(js), int(rs))
        if best is not None:
            improvement, jg, rg, js, rs = best
            violations.append(
                KKTViolation(
                    "C2",
                    f"transfer energy from (task {js}, machine {rs}) to "
                    f"(task {jg}, machine {rg})",
                    improvement,
                )
            )

    # -- C3: budget complementary slackness -----------------------------------
    if math.isfinite(inst.budget):
        leftover = inst.budget - schedule.total_energy
        if leftover > 0 and np.any(growable):
            masked = np.where(growable, psi_grow, -np.inf)
            jg, rg = np.unravel_index(int(np.argmax(masked)), masked.shape)
            delta_e = min(leftover, float(grow_cap_e[jg, rg]))
            improvement = delta_e * float(psi_grow[jg, rg])
            if improvement > tolerance:
                violations.append(
                    KKTViolation(
                        "C3",
                        f"{leftover:.4g} J of budget unspent; growing "
                        f"(task {int(jg)}, machine {int(rg)}) pays",
                        float(improvement),
                    )
                )

    return KKTReport(tuple(violations), tolerance)
