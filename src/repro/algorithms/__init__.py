"""The paper's algorithms: Algorithms 1–5 and the approximation guarantee."""

from .approx import ApproxScheduler, round_fractional
from .base import Scheduler, SolveInfo, SolveResult
from .certificate import certified_gap, dual_bound
from .fractional import FractionalScheduler, solve_fractional
from .guarantees import performance_guarantee, slope_extremes
from .naive_solution import NaiveSolution, WaterFiller, compute_naive_solution
from .refine_profile import RefineResult, deadline_slack, refine_profile
from .single_machine import solve_single_machine

__all__ = [
    "Scheduler",
    "SolveInfo",
    "SolveResult",
    "solve_single_machine",
    "NaiveSolution",
    "WaterFiller",
    "compute_naive_solution",
    "RefineResult",
    "refine_profile",
    "deadline_slack",
    "dual_bound",
    "certified_gap",
    "FractionalScheduler",
    "solve_fractional",
    "ApproxScheduler",
    "round_fractional",
    "performance_guarantee",
    "slope_extremes",
]
