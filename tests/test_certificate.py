"""The weak-duality certificate behind certify-then-stop (Algorithm 4)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.certificate import certified_gap, dual_bound
from repro.algorithms.fractional import (
    _POLISH_RTOL,
    FractionalScheduler,
    _polish_profiles,
    solve_fractional,
)
from repro.algorithms.naive_solution import compute_naive_solution
from repro.algorithms.refine_profile import refine_profile
from repro.core.schedule import Schedule
from repro.exact.lp import solve_lp_relaxation
from repro.telemetry import collector

from conftest import make_instance

instances = st.builds(
    make_instance,
    n=st.integers(1, 12),
    m=st.integers(1, 4),
    beta=st.floats(0.05, 1.2),
    rho=st.floats(0.1, 1.8),
    seed=st.integers(0, 100_000),
)


def _stages(inst):
    """The naive, refined and final schedules of one fractional solve."""
    naive = compute_naive_solution(inst).times
    refined = refine_profile(inst, naive).times
    final, _ = solve_fractional(inst)
    return Schedule(inst, naive), Schedule(inst, refined), final


def _certified(schedule):
    return dual_bound(schedule) <= schedule.total_accuracy * (1.0 + _POLISH_RTOL)


@settings(max_examples=40, deadline=None)
@given(instances)
def test_property_bound_never_below_lp(inst):
    _, lp_obj = solve_lp_relaxation(inst)
    for schedule in _stages(inst):
        assert dual_bound(schedule) >= lp_obj * (1.0 - 1e-9)


@settings(max_examples=40, deadline=None)
@given(instances)
def test_property_certified_means_lp_optimal(inst):
    _, refined, final = _stages(inst)
    _, lp_obj = solve_lp_relaxation(inst)
    for schedule in (refined, final):
        if _certified(schedule):
            assert schedule.total_accuracy >= lp_obj * (1.0 - 1e-9)


@settings(max_examples=40, deadline=None)
@given(instances)
def test_property_certified_polish_is_a_no_op(inst):
    _, refined, _ = _stages(inst)
    if _certified(refined):
        polished, rounds = _polish_profiles(inst, refined, max_rounds=8)
        assert rounds == 0
        assert np.array_equal(polished.times, refined.times)


def test_certifies_most_refined_schedules():
    certified = 0
    for seed in range(30):
        inst = make_instance(n=10, m=3, beta=0.5, seed=seed)
        _, refined, _ = _stages(inst)
        certified += _certified(refined)
    assert certified >= 25


def test_float_dust_allocation_does_not_block_certification():
    # Refine leaves a 7e-18 s sliver on one machine; read as an
    # allocation it would force a second price on that task.
    inst = make_instance(n=2, m=4, beta=0.4134057336242769, rho=0.963709134485693, seed=180)
    _, refined, _ = _stages(inst)
    times = refined.times
    dust = (times > 0.0) & (times <= 1e-9 * inst.tasks.d_max)
    assert dust.any()
    assert _certified(refined)
    _, lp_obj = solve_lp_relaxation(inst)
    assert refined.total_accuracy >= lp_obj * (1.0 - 1e-9)


def test_infinite_and_zero_budget():
    inst = make_instance(n=6, m=2, beta=1.0, rho=5.0, seed=22)
    unlimited = type(inst)(inst.tasks, inst.cluster, math.inf)
    schedule, meta = solve_fractional(unlimited)
    assert math.isfinite(meta["dual_bound"])
    assert meta["certified_gap"] <= 1e-9
    broke = type(inst)(inst.tasks, inst.cluster, 0.0)
    schedule, meta = solve_fractional(broke)
    assert meta["polish_skipped"]
    assert dual_bound(schedule) == pytest.approx(schedule.total_accuracy, rel=1e-12)


def test_certified_gap():
    assert certified_gap(2.0, 2.0) == 0.0
    assert certified_gap(2.0, 2.5) == 0.25
    assert certified_gap(2.0, 1.999) == 0.0
    assert certified_gap(0.0, 0.0) == 0.0
    assert certified_gap(0.0, 1.0) == math.inf


def test_meta_and_solve_info_report_the_gap():
    inst = make_instance(n=10, m=3, beta=0.5, seed=4)
    _, meta = solve_fractional(inst)
    assert {"dual_bound", "certified_gap", "polish_skipped"} <= set(meta)
    assert meta["polish_skipped"] == (meta["polish_rounds"] == 0 and meta["certified_gap"] <= _POLISH_RTOL)
    info = FractionalScheduler().solve_with_info(inst).info
    assert info.optimal == (info.extra["certified_gap"] <= _POLISH_RTOL)


def test_solve_info_optimal_is_false_when_uncertified():
    # An uncertified window: refine converges, but the final schedule is
    # measurably below the LP optimum, so ``optimal`` must not claim it.
    for seed in range(200):
        inst = make_instance(n=12, m=4, beta=0.3, seed=seed)
        result = FractionalScheduler().solve_with_info(inst)
        if result.info.extra["certified_gap"] > _POLISH_RTOL:
            break
    else:
        raise AssertionError("no uncertified instance in the seed range")
    assert result.info.extra["refine_converged"]
    assert not result.info.optimal
    assert result.info.status == "ok"
    _, lp_obj = solve_lp_relaxation(inst)
    assert result.schedule.total_accuracy < lp_obj * (1.0 - 1e-9)
    assert result.info.extra["dual_bound"] >= lp_obj * (1.0 - 1e-9)


def test_telemetry_exports_gap_and_outcome():
    inst = make_instance(n=10, m=3, beta=0.5, seed=4)
    with collector() as reg:
        _, meta = solve_fractional(inst)
    outcome = "certified" if meta["polish_skipped"] else "polished"
    assert reg.get("fractional_certificate_total", outcome=outcome).value == 1
    assert reg.get("solve_certified_gap", solver="fractional").value == meta["certified_gap"]
    span = next(s for s in reg.spans if s.name == "fractional.solve")
    assert "certified_gap" in dict(span.labels)
    assert any(s.name == "fractional.certify" for s in reg.spans)
