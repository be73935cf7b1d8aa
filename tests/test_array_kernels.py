"""Array curve kernels against the scalar per-task reference, bit for bit.

The stacked-curve kernels (``TaskSet.accuracies``, ``TaskSet.curve_state``,
``fit_minimax_stack`` behind ``tasks_from_thetas``, ``check_curves``,
Algorithm 1 over the flat segment table and the vectorised water-filler)
must reproduce the per-task scalar code exactly: every comparison here
is ``==`` on floats, with no tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms.naive_solution import WaterFiller
from repro.algorithms.single_machine import solve_single_machine
from repro.core import (
    ExponentialAccuracy,
    PiecewiseLinearAccuracy,
    Task,
    TaskSet,
    build_segment_list,
    check_curves,
    fit_piecewise,
)
from repro.utils import units
from repro.utils.errors import ValidationError
from repro.workloads.generator import tasks_from_thetas

# -- strategies ----------------------------------------------------------------


@st.composite
def curves(draw, max_segments=6):
    """A concave piecewise-linear curve on a TFLOP-ish scale."""
    k = draw(st.integers(1, max_segments))
    widths = draw(st.lists(st.floats(1e9, 1e13), min_size=k, max_size=k))
    slopes = sorted(draw(st.lists(st.floats(0.0, 1e-12), min_size=k, max_size=k)), reverse=True)
    a_min = draw(st.floats(0.0, 0.1))
    gain = sum(s * w for s, w in zip(slopes, widths))
    if gain > 0.9 - a_min:
        slopes = [s * (0.9 - a_min) / gain for s in slopes]
    return PiecewiseLinearAccuracy.from_slopes(slopes, widths, a_min)


@st.composite
def works(draw, acc):
    """Work for one task: breakpoints, their float dust, 0, negative, past f_max."""
    bp = acc.breakpoints
    kind = draw(st.sampled_from(["breakpoint", "dust", "zero", "negative", "above", "inside"]))
    if kind == "breakpoint":
        return float(bp[draw(st.integers(0, bp.size - 1))])
    if kind == "dust":
        k = draw(st.integers(0, bp.size - 1))
        return float(bp[k]) + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.0, 2e-9)) * acc.f_max
    if kind == "zero":
        return 0.0
    if kind == "negative":
        return -draw(st.floats(1e-6, 1e13))
    if kind == "above":
        return acc.f_max * (1.0 + draw(st.floats(0.0, 2.0)))
    return acc.f_max * draw(st.floats(0.0, 1.0))


@st.composite
def task_sets_with_work(draw, max_tasks=8):
    accs = draw(st.lists(curves(), min_size=1, max_size=max_tasks))
    deadlines = draw(st.lists(st.floats(0.1, 10.0), min_size=len(accs), max_size=len(accs)))
    tasks = TaskSet([Task(d, acc) for d, acc in zip(deadlines, accs)])
    flops = np.array([draw(works(task.accuracy)) for task in tasks])
    return tasks, flops


def scalar_curve_state(acc, f):
    """The per-task loop Algorithm 3 ran before its curve state was stacked."""
    f = min(max(f, 0.0), acc.f_max)
    bp = acc.breakpoints
    eps_f = 1e-9 * acc.f_max
    k_near = int(np.searchsorted(bp, f))
    for k_cand in (k_near - 1, k_near):
        if 0 <= k_cand < bp.size and abs(f - bp[k_cand]) <= eps_f:
            f = float(bp[k_cand])
            break
    gain, loss = acc.marginal_gain(f), acc.marginal_loss(f)
    next_room = 0.0 if f >= acc.f_max else bp[acc.segment_index(f) + 1] - f
    if f <= 0.0:
        prev_room = 0.0
    else:
        k = min(max(int(np.searchsorted(bp, f, side="left")) - 1, 0), acc.n_segments - 1)
        prev_room = f - bp[k]
    return f, gain, loss, next_room, prev_room


def same_bits(a, b):
    """Equal as IEEE bit patterns (so 0.0 and -0.0 differ)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# -- accuracy evaluation ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(task_sets_with_work())
def test_accuracies_match_scalar_value(case):
    tasks, flops = case
    expected = [task.accuracy.value(f) for task, f in zip(tasks, flops)]
    assert same_bits(tasks.accuracies(flops), expected)


def test_accuracies_special_cases_with_mixed_piece_counts():
    short = PiecewiseLinearAccuracy([0.0, 2e12], [0.1, 0.5])
    long = fit_piecewise(ExponentialAccuracy(1.0 / units.TERA), 5)
    tasks = TaskSet([Task(1.0, short), Task(2.0, long)])
    assert tasks.points.shape == (2, 6) and tasks.n_segments.tolist() == [1, 5]
    for f_short in (-1.0, 0.0, 1e12, 2e12, 5e12, math.inf, -math.inf):
        for f_long in (-1.0, 0.0, float(long.breakpoints[2]), long.f_max, 2 * long.f_max):
            flops = np.array([f_short, f_long])
            expected = [short.value(f_short), long.value(f_long)]
            assert same_bits(tasks.accuracies(flops), expected)


def test_accuracies_exact_hit_on_an_infinite_slope():
    # A subnormal first piece overflows its slope to inf; only the
    # exact-hit case keeps inf·0 from turning the value into NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        steep = PiecewiseLinearAccuracy([0.0, 1e-320, 1.0], [0.0, 0.5, 0.6])
        tasks = TaskSet([Task(1.0, steep)] * 3)
        flops = np.array([1e-320, 0.5, 0.0])
        got = tasks.accuracies(flops)
    assert math.isinf(steep.first_slope)
    assert same_bits(got, [steep.value(f) for f in flops])


def test_accuracies_nan_work_is_nan():
    # Only NaN-ness is compared: np.interp returns the input NaN itself.
    tasks = TaskSet([Task(1.0, PiecewiseLinearAccuracy([0.0, 1.0, 3.0], [0.0, 0.5, 0.6]))])
    assert math.isnan(tasks.accuracies([math.nan])[0])


# -- Algorithm 3's curve state ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(task_sets_with_work())
def test_curve_state_matches_scalar_marginals(case):
    tasks, flops = case
    state = tasks.curve_state(flops)
    expected = np.array([scalar_curve_state(task.accuracy, f) for task, f in zip(tasks, flops)])
    got = np.stack([state.flops, state.gain, state.loss, state.next_room, state.prev_room], axis=1)
    assert same_bits(got, expected)


def test_curve_state_snaps_dust_to_breakpoint():
    acc = fit_piecewise(ExponentialAccuracy(0.5 / units.TERA), 5)
    bp = acc.breakpoints
    tasks = TaskSet([Task(1.0, acc)] * 4)
    dust = 1e-12 * acc.f_max
    flops = np.array([bp[2] - dust, bp[2] + dust, dust, acc.f_max - dust])
    state = tasks.curve_state(flops)
    assert state.flops.tolist() == [bp[2], bp[2], 0.0, acc.f_max]
    assert state.gain.tolist() == [acc.slopes[2], acc.slopes[2], acc.slopes[0], 0.0]
    assert state.loss.tolist() == [acc.slopes[1], acc.slopes[1], acc.slopes[0], acc.slopes[4]]
    assert state.prev_room.tolist()[2] == 0.0 and state.next_room.tolist()[3] == 0.0


# -- fitting ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    thetas=st.lists(st.floats(0.01, 20.0), min_size=1, max_size=30),
    n_segments=st.integers(1, 7),
    coverage=st.sampled_from([0.99999, 0.999, 0.9]),
    a_min=st.sampled_from([0.001, 0.0, 0.1]),
    a_max=st.sampled_from([0.82, 1.0, 0.5]),
    data=st.data(),
)
def test_tasks_from_thetas_matches_fit_piecewise(thetas, n_segments, coverage, a_min, a_max, data):
    deadlines = data.draw(st.lists(st.floats(0.01, 5.0), min_size=len(thetas), max_size=len(thetas)))
    tasks = tasks_from_thetas(
        thetas, deadlines, a_min=a_min, a_max=a_max, n_segments=n_segments, coverage=coverage
    )
    order = sorted(range(len(thetas)), key=lambda i: deadlines[i])
    for task, i in zip(tasks, order):
        ref = fit_piecewise(
            ExponentialAccuracy(thetas[i] / units.TERA, a_min=a_min, a_max=a_max, coverage=coverage),
            n_segments,
        )
        assert task.deadline == deadlines[i]
        assert same_bits(task.accuracy.breakpoints, ref.breakpoints)
        assert same_bits(task.accuracy.breakpoint_accuracies, ref.breakpoint_accuracies)
        assert same_bits(task.accuracy.slopes, ref.slopes)


def test_tasks_from_thetas_curves_are_readonly_views_of_the_stack():
    tasks = tasks_from_thetas([0.5, 2.0, 1.0], [3.0, 1.0, 2.0])
    for j, task in enumerate(tasks):
        acc = task.accuracy
        for row, stack in ((acc._p, tasks.points), (acc._a, tasks.values), (acc._slopes, tasks.slopes)):
            assert np.shares_memory(row, stack) and same_bits(row, stack[j])
            assert not row.flags.writeable
    with pytest.raises(ValueError):
        tasks.points[0, 1] = 1.0


@pytest.mark.parametrize(
    "thetas, kwargs",
    [
        ([1.0, -1.0], {}),
        ([1.0, math.nan], {}),
        ([0.0], {}),
        ([1.0], {"a_min": 0.9, "a_max": 0.5}),
        ([1.0], {"coverage": 1.0}),
        ([1.0], {"n_segments": 0}),
    ],
)
def test_tasks_from_thetas_rejects_like_exponential_accuracy(thetas, kwargs):
    with pytest.raises(ValidationError):
        tasks_from_thetas(thetas, [1.0] * len(thetas), **kwargs)


# -- validation ------------------------------------------------------------------------


@st.composite
def raw_curves(draw, width):
    """Curve-shaped rows, often invalid in one of the ways the constructor checks."""
    acc = draw(curves(max_segments=width - 1).filter(lambda c: c.n_segments == width - 1))
    p, a = acc.breakpoints.copy(), acc.breakpoint_accuracies.copy()
    flaw = draw(st.sampled_from(["none", "p0", "order", "nan_p", "a_high", "a_nan", "a_neg", "decrease", "convex"]))
    k = draw(st.integers(1, width - 1))
    if flaw == "p0":
        p[0] = draw(st.sampled_from([1.0, -1.0, math.nan]))
    elif flaw == "order":
        p[k] = p[k - 1]
    elif flaw == "nan_p":
        p[k] = math.nan
    elif flaw == "a_high":
        a[k] = 1.5
    elif flaw == "a_nan":
        a[k] = draw(st.sampled_from([math.nan, math.inf]))
    elif flaw == "a_neg":
        a[0] = -0.1
    elif flaw == "decrease":
        a[k] = a[k - 1] - 0.05
    elif flaw == "convex" and width > 2:
        a[1] = a[0] + 1e-6
    return p, a


def scalar_error(p, a):
    try:
        PiecewiseLinearAccuracy(p, a)
    except ValidationError as exc:
        return str(exc)
    return None


def reference_rejects(p, a):
    """The constructor's checks value by value, as the per-curve code made them.

    One difference is intended: a NaN breakpoint now fails the strict
    order check (``d <= 0`` let it through).
    """
    if not p[0] == 0.0 or not all(d > 0.0 for d in np.diff(p)):
        return True
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in a):
        return True
    if any(d < 0.0 for d in np.diff(a)):
        return True
    slopes = np.diff(a) / np.diff(p)
    scale = float(np.max(np.abs(slopes)))
    return bool(np.any(np.diff(slopes) > 1e-9 * max(scale, 1e-300)))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(lambda w: st.lists(raw_curves(w), min_size=1, max_size=5)))
def test_check_curves_rejects_exactly_what_the_constructor_rejects(rows):
    points = np.array([p for p, _ in rows])
    values = np.array([a for _, a in rows])
    errors = [scalar_error(p, a) for p, a in rows]
    assert [e is not None for e in errors] == [reference_rejects(p, a) for p, a in rows]
    labels = [f"row {i}" for i in range(len(rows))]
    failing = [i for i, e in enumerate(errors) if e is not None]
    if not failing:
        slopes = check_curves(points, values, labels=labels)
        assert same_bits(slopes, [PiecewiseLinearAccuracy(p, a).slopes for p, a in rows])
        return
    with pytest.raises(ValidationError) as info:
        check_curves(points, values, labels=labels)
    first = failing[0]
    assert str(info.value) == f"row {first}: {errors[first]}"


def test_check_curves_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        check_curves(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValidationError):
        check_curves(np.zeros(3), np.zeros(3))
    with pytest.raises(ValidationError):
        check_curves(np.zeros((2, 1)), np.zeros((2, 1)))


# -- Algorithm 1 over the flat table -------------------------------------------------------


def scalar_single_machine(deadlines, speed, tasks, total_cap=math.inf):
    """Algorithm 1 over per-segment Python records, as it ran before the table."""
    records = [
        [-seg.slope, j, seg.position, seg.slope, seg.total_flops, 0.0]
        for j, task in enumerate(tasks)
        for seg in task.accuracy.segments()
    ]
    records.sort(key=lambda r: (r[0], r[1], r[2]))
    t = np.zeros(len(deadlines))
    slack_arr = np.array(deadlines, dtype=float)
    used_total = 0.0
    for rec in records:
        _, j, _, slope, total, used = rec
        if slope <= 0.0:
            break
        wanted = max(total - used, 0.0) / speed
        if wanted <= 0.0:
            continue
        slack = float(slack_arr[j:].min())
        if math.isfinite(total_cap):
            slack = min(slack, total_cap - used_total)
        contribution = min(wanted, max(slack, 0.0))
        if contribution <= 0.0:
            continue
        t[j] += contribution
        slack_arr[j:] -= contribution
        used_total += contribution
        rec[5] = min(used + contribution * speed, total)
    return t, records


@settings(max_examples=100, deadline=None)
@given(
    accs=st.lists(curves(), min_size=1, max_size=10),
    deadline_scale=st.floats(0.01, 3.0),
    cap_fraction=st.sampled_from([math.inf, 0.3, 0.8]),
)
def test_single_machine_matches_scalar_records(accs, deadline_scale, cap_fraction):
    tasks = TaskSet([Task(1.0 + j, acc) for j, acc in enumerate(accs)])
    deadlines = tasks.deadlines * deadline_scale * tasks.total_f_max / len(tasks) / 1e12
    cap = cap_fraction * float(deadlines[-1])
    expected, records = scalar_single_machine(deadlines, 1e12, tasks, cap)
    segments = build_segment_list(tasks)
    got = solve_single_machine(deadlines, 1e12, segments, total_cap=cap)
    assert same_bits(got, expected)
    used = {(r[1], r[2]): r[5] for r in records}
    assert segments.used.tolist() == [
        used[j, k] for j, k in zip(segments.task.tolist(), segments.position.tolist())
    ]


# -- water-filling -------------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    machines=st.lists(
        st.tuples(st.floats(1e11, 1e13), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])), min_size=1, max_size=6
    ),
    fractions=st.lists(st.floats(-0.1, 1.0 + 1e-9), min_size=1, max_size=20),
)
def test_water_filler_vector_matches_scalar(machines, fractions):
    speeds = np.array([s for s, _ in machines])
    caps = np.array([c for _, c in machines])
    filler = WaterFiller(speeds, caps)
    assume(filler.capacity > 0.0)
    work = np.array(fractions) * filler.capacity
    expected = [filler.tau(float(w)) for w in work]
    assert all(isinstance(x, float) for x in expected)
    assert same_bits(filler.taus(work), expected)


def test_water_filler_vector_rejects_over_capacity():
    filler = WaterFiller(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValidationError, match="exceeds capacity"):
        filler.taus(np.array([1.0, filler.capacity * 1.01]))
