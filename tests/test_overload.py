"""Tests for repro.overload: signals, admission, shedding, brownout, batching."""

from __future__ import annotations

import threading

import pytest

from repro.cluster import ClusterConfig, ClusterManager, QueueFullError, WindowBatcher
from repro.overload import (
    BROWNOUT_LADDER,
    AdmitRateController,
    BrownoutController,
    DeadlineShedder,
    QueueDelaySignal,
    RingWindow,
    normalize_priority,
)
from repro.resilience.admission import AdmissionController
from repro.utils.errors import ValidationError

from conftest import make_instance


class FakeClock:
    """A deterministic, manually-advanced monotonic clock."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


# -- RingWindow ------------------------------------------------------------------


def test_ring_window_statistics():
    ring = RingWindow(4)
    assert ring.minimum() is None and ring.mean() is None and ring.quantile(0.99) is None
    for value in (3.0, 1.0, 2.0):
        ring.add(value)
    assert len(ring) == 3
    assert ring.minimum() == 1.0
    assert ring.mean() == pytest.approx(2.0)
    assert ring.quantile(0.0) == 1.0
    assert ring.quantile(1.0) == 3.0


def test_ring_window_evicts_oldest_at_capacity():
    ring = RingWindow(3)
    for value in (10.0, 20.0, 30.0, 40.0):
        ring.add(value)
    assert len(ring) == 3
    assert ring.minimum() == 20.0  # the 10.0 was overwritten


def test_ring_window_rejects_bad_capacity():
    with pytest.raises(ValidationError):
        RingWindow(0)


# -- QueueDelaySignal ------------------------------------------------------------


def test_signal_ewma_and_tail():
    clock = FakeClock()
    signal = QueueDelaySignal(ewma_alpha=0.5, clock=clock)
    assert signal.sojourn_ewma is None and signal.sojourn_p99() is None
    signal.observe_sojourn(1.0)
    signal.observe_sojourn(3.0)
    assert signal.sojourn_ewma == pytest.approx(2.0)  # 0.5*3 + 0.5*1
    assert signal.sojourn_p99() == 3.0
    assert signal.sojourn_floor() == 1.0
    signal.observe_service(0.25)
    signal.observe_service(0.75)
    assert signal.service_floor() == 0.25
    assert signal.service_mean() == pytest.approx(0.5)
    snap = signal.snapshot()
    assert snap["samples"] == 2 and snap["service_floor"] == 0.25


def test_signal_forgets_stale_storm_samples():
    """The p99 must decay with the queue: old spike sojourns expire."""
    clock = FakeClock()
    signal = QueueDelaySignal(max_age_seconds=2.0, clock=clock)
    signal.observe_sojourn(9.0)  # storm-era tail
    clock.advance(1.0)
    signal.observe_sojourn(0.01)  # queue has drained
    assert signal.sojourn_p99() == 9.0  # storm sample still fresh
    clock.advance(1.5)  # storm sample is now 2.5 s old, fresh one 1.5 s
    assert signal.sojourn_p99() == 0.01
    clock.advance(1.0)  # everything stale
    assert signal.sojourn_p99() is None


def test_signal_ignores_nonfinite_and_clamps_negative():
    signal = QueueDelaySignal(clock=FakeClock())
    signal.observe_sojourn(float("nan"))
    signal.observe_sojourn(float("inf"))
    assert signal.samples == 0
    signal.observe_sojourn(-1.0)
    assert signal.sojourn_floor() == 0.0


# -- AdmitRateController ---------------------------------------------------------


def test_admit_rate_cuts_on_sustained_delay_only():
    """CoDel semantics: one fresh fast sample vetoes the cut."""
    clock = FakeClock()
    ctl = AdmitRateController(
        target_delay_seconds=0.5, interval_seconds=1.0, decrease_factor=0.5, clock=clock
    )
    ctl.observe(2.0)  # stale backlog settling slowly ...
    clock.advance(1.1)
    ctl.observe(0.01)  # ... but a fresh request was served fast
    assert ctl.rate == 1.0  # interval minimum below target: no cut
    clock.advance(1.1)
    ctl.observe(2.0)  # an interval whose minimum exceeds the target
    assert ctl.rate == pytest.approx(0.5)
    clock.advance(1.1)
    ctl.observe(2.0)
    assert ctl.rate == pytest.approx(0.25)


def test_admit_rate_respects_floor_and_recovers_multiplicatively():
    clock = FakeClock()
    ctl = AdmitRateController(
        target_delay_seconds=0.5,
        interval_seconds=1.0,
        decrease_factor=0.1,
        increase_step=0.1,
        min_rate=0.05,
        clock=clock,
    )
    for _ in range(5):
        clock.advance(1.1)
        ctl.observe(5.0)
    assert ctl.rate == 0.05  # clamped at the floor
    clock.advance(1.1)
    ctl.observe(0.01)  # clearly healthy (< target/2): multiplicative regrowth
    assert ctl.rate == pytest.approx(0.15)  # max(0.05+0.1, 0.05*1.5)
    previous = ctl.rate
    clock.advance(1.1)
    ctl.observe(0.4)  # healthy but not clearly: additive only
    assert ctl.rate == pytest.approx(previous + 0.1)


def test_admit_credit_fractions_match_effective_rate_exactly():
    clock = FakeClock()
    ctl = AdmitRateController(interval_seconds=1.0, decrease_factor=0.25, clock=clock)
    clock.advance(1.1)
    ctl.observe(10.0)  # one cut: rate 0.25
    assert ctl.rate == pytest.approx(0.25)
    admitted = {cls: 0 for cls in ("interactive", "standard", "best_effort")}
    trials = 400
    for _ in range(trials):
        for cls in admitted:
            if ctl.admit(cls):
                admitted[cls] += 1
    # rate ** exponent: 0.25**0.5 = 0.5, 0.25**1 = 0.25, 0.25**2 = 0.0625 —
    # the deterministic credit accumulator hits these fractions to within
    # the one admission its starting credit is worth.
    assert abs(admitted["interactive"] - trials * 0.5) <= 1
    assert abs(admitted["standard"] - trials * 0.25) <= 1
    assert abs(admitted["best_effort"] - trials * 0.0625) <= 1
    assert ctl.effective_rate("interactive") == pytest.approx(0.5)


def test_admit_full_rate_admits_everything():
    ctl = AdmitRateController(clock=FakeClock())
    assert all(ctl.admit(cls) for cls in ("interactive", "standard", "best_effort", None))
    snap = ctl.snapshot()
    assert snap["rate"] == 1.0 and snap["decreases"] == 0


def test_normalize_priority():
    assert normalize_priority("interactive") == "interactive"
    assert normalize_priority(None) == "standard"
    assert normalize_priority("VIP") == "standard"


# -- DeadlineShedder -------------------------------------------------------------


def test_shedder_without_samples_sheds_only_past_deadline():
    shedder = DeadlineShedder(QueueDelaySignal(clock=FakeClock()))
    assert not shedder.doomed(None)
    assert not shedder.doomed(0.001)  # no floor yet: conservative
    assert shedder.doomed(0.0)
    assert shedder.doomed(-1.0)


def test_shedder_never_drops_an_idle_feasible_request():
    """The safety property: remaining >= the demonstrated service floor
    means an idle system could serve it in time — never shed."""
    clock = FakeClock()
    signal = QueueDelaySignal(clock=clock)
    shedder = DeadlineShedder(signal)
    signal.observe_service(0.2)
    signal.observe_service(0.05)  # the optimistic floor
    signal.observe_sojourn(3.0)  # heavy congestion right now
    assert not shedder.doomed(0.05)  # == floor: an idle shard makes it
    assert not shedder.doomed(1.0)
    assert shedder.doomed(0.04)  # below even the idle floor: certain miss
    assert shedder.estimate_completion_seconds() == pytest.approx(3.0)


def test_shedder_rejects_bad_safety_factor():
    with pytest.raises(ValidationError):
        DeadlineShedder(QueueDelaySignal(clock=FakeClock()), safety_factor=1.5)


# -- BrownoutController ----------------------------------------------------------


def brownout(clock, **kwargs):
    kwargs.setdefault("target_p99_seconds", 1.0)
    kwargs.setdefault("min_dwell_seconds", 1.0)
    return BrownoutController(clock=clock, **kwargs)


def test_brownout_walks_the_ladder_one_rung_at_a_time():
    clock = FakeClock()
    ctl = brownout(clock)
    levels = []
    for _ in range(8):
        clock.advance(1.1)
        levels.append(ctl.update(50.0))  # massive overload, forever
    assert levels[0] == 1  # never skips a rung despite huge pressure
    assert max(levels) == len(BROWNOUT_LADDER) - 1
    for earlier, later in zip(levels, levels[1:]):
        assert later - earlier <= 1
    assert [t["to"] for t in ctl.transitions()] == [1, 2, 3]


def test_brownout_dwell_blocks_thrash():
    clock = FakeClock()
    ctl = brownout(clock, min_dwell_seconds=10.0)
    clock.advance(11.0)
    assert ctl.update(50.0) == 1
    clock.advance(0.5)  # within the dwell
    assert ctl.update(0.0) == 1  # wants to step down, must hold
    clock.advance(10.0)
    assert ctl.update(0.0) == 0


def test_brownout_relaxes_to_normal_on_no_signal():
    clock = FakeClock()
    ctl = brownout(clock)
    clock.advance(1.1)
    assert ctl.update(50.0) == 1
    clock.advance(1.1)
    assert ctl.update(None) == 0  # no samples reads as an idle cluster
    assert ctl.current.name == "normal"


def test_brownout_is_deterministic_under_a_seeded_trace():
    import random

    trace = [random.Random(7).uniform(0.0, 5.0) for _ in range(50)]

    def run():
        clock = FakeClock()
        ctl = brownout(clock, min_dwell_seconds=0.5)
        out = []
        for p99 in trace:
            clock.advance(0.25)
            out.append(ctl.update(p99))
        return out, [(t["from"], t["to"]) for t in ctl.transitions()]

    assert run() == run()


def test_brownout_reports_transitions_to_its_owner():
    seen = []
    clock = FakeClock()
    ctl = brownout(clock, on_transition=lambda old, new, p99: seen.append((old, new)))
    clock.advance(1.1)
    ctl.update(50.0)
    clock.advance(1.1)
    ctl.update(0.0)
    assert seen == [(0, 1), (1, 0)]
    snap = ctl.snapshot()
    assert snap["level"] == 0 and snap["transitions"] == 2


# -- WindowBatcher: priorities, bounds, adaptive LIFO ----------------------------


def quiet_batcher(**kwargs):
    """A batcher whose gate is held closed for the whole test body.

    A first "plug" request ships at once and its window never settles,
    so every later submission stays queued: the loop cannot form
    another window, however the threads are scheduled.
    """
    plugged = threading.Event()

    def dispatch(batch):
        plugged.set()
        return True  # in flight; nobody calls settled()

    kwargs.setdefault("max_batch", 64)
    batcher = WindowBatcher(dispatch, **kwargs)
    batcher.submit("plug")
    assert plugged.wait(5.0)
    return batcher


def test_batcher_weighted_dequeue_favors_interactive_without_starvation():
    b = quiet_batcher()
    try:
        for i in range(6):
            b.submit(("int", i), priority="interactive")
            b.submit(("std", i), priority="standard")
            b.submit(("bef", i), priority="best_effort")
        with b._lock:
            window = [item for item, _ in b._take_window_locked()]
        first_pass = window[:7]  # weights (4, 2, 1)
        assert [kind for kind, _ in first_pass] == ["int"] * 4 + ["std"] * 2 + ["bef"]
        # FIFO within each class below the LIFO threshold.
        assert [i for kind, i in first_pass if kind == "int"] == [0, 1, 2, 3]
    finally:
        b.close(drain=False)


def test_batcher_flips_to_lifo_under_depth():
    b = quiet_batcher(lifo_threshold=2)
    try:
        for i in range(5):
            b.submit(("std", i), priority="standard")
        with b._lock:
            window = [item for item, _ in b._take_window_locked()]
        # Depth 5 > threshold 2: newest-first, the freshest requests are
        # the ones whose deadlines are still alive.
        assert [i for _, i in window] == [4, 3, 2, 1, 0]
    finally:
        b.close(drain=False)


def test_batcher_bounded_queue_sheds_at_capacity():
    b = quiet_batcher(max_queue=2)
    try:
        b.submit("a")
        b.submit("b", priority="best_effort")
        assert b.depth == 2
        with pytest.raises(QueueFullError):
            b.submit("c")
    finally:
        b.close(drain=False)


def test_batcher_evict_searches_all_classes():
    b = quiet_batcher()
    try:
        item = ("bef", 0)
        b.submit(("int", 0), priority="interactive")
        b.submit(item, priority="best_effort")
        assert b.evict(item) is True
        assert b.evict(item) is False
        assert b.depth == 1
    finally:
        b.close(drain=False)


def test_batcher_dispatches_and_resolves_across_classes():
    done = threading.Event()

    def dispatch(batch):
        for item, pending in batch:
            pending.resolve(item)
        done.set()

    b = WindowBatcher(dispatch, max_batch=3)
    try:
        pendings = [
            b.submit(i, priority=cls)
            for i, cls in enumerate(("best_effort", "standard", "interactive"))
        ]
        assert done.wait(5.0)
        assert sorted(p.wait(5.0) for p in pendings) == [0, 1, 2]
    finally:
        b.close()


# -- AdmissionController with a pluggable load signal ----------------------------


def test_admission_consults_the_load_signal():
    verdicts = {"best_effort": ("brownout_shed", 2.0)}
    ctl = AdmissionController(
        max_in_flight=4, load_signal=lambda priority: verdicts.get(priority)
    )
    decision = ctl.try_begin(priority="best_effort")
    assert not decision.admitted
    assert decision.reason == "brownout_shed"
    assert decision.retry_after_seconds == 2.0
    assert ctl.in_flight == 0  # a rejected request claimed no slot
    admitted = ctl.try_begin(priority="interactive")
    assert admitted.admitted
    ctl.finish(failure=False)


def test_admission_load_signal_rejection_returns_breaker_probe():
    clock = FakeClock()
    from repro.resilience.admission import BreakerState, CircuitBreaker

    breaker = CircuitBreaker(failure_threshold=1, reset_seconds=1.0, clock=clock)
    calls = {"n": 0}

    def signal(priority):
        calls["n"] += 1
        return ("overload", 1.0) if calls["n"] == 1 else None

    ctl = AdmissionController(max_in_flight=4, breaker=breaker, load_signal=signal)
    breaker.record_failure()  # open
    clock.advance(1.5)  # half-open: one probe available
    rejected = ctl.try_begin()  # consumes the probe, then the signal rejects
    assert not rejected.admitted and rejected.reason == "overload"
    # The probe was handed back: the next request can still be the probe.
    assert breaker.state == BreakerState.HALF_OPEN
    assert ctl.try_begin().admitted
    ctl.finish(failure=False)
    assert breaker.state == BreakerState.CLOSED


def test_admission_without_signal_unchanged():
    ctl = AdmissionController(max_in_flight=1)
    first = ctl.try_begin()
    assert first.admitted
    second = ctl.try_begin()
    assert not second.admitted and second.reason == "capacity"
    ctl.finish(failure=False)


# -- cluster integration ---------------------------------------------------------


@pytest.fixture(scope="module")
def overload_cluster():
    config = ClusterConfig(
        shards=1,
        max_batch=4,
        request_timeout_seconds=20.0,
        rebalance_seconds=0.1,
        fsync="never",
        queue_target_seconds=0.5,
        brownout_target_p99_seconds=1.0,
        brownout_dwell_seconds=0.2,
        adaptive_lifo=True,
    )
    with ClusterManager(config) as manager:
        yield manager


@pytest.fixture(scope="module")
def instance_doc():
    from repro.core.serialization import instance_to_dict

    return instance_to_dict(make_instance(n=6, m=2, seed=3))


def test_cluster_serves_prioritized_deadline_requests(overload_cluster, instance_doc):
    doc = overload_cluster.submit(
        "approx", instance_doc, priority="interactive", deadline_seconds=30.0
    )
    assert doc["status"] == 200
    assert doc["metrics"]["mean_accuracy"] > 0


def test_cluster_sheds_past_deadline_requests(overload_cluster, instance_doc):
    # Serve once so the shard has a service floor, then present a deadline
    # below it: the request must be shed up front, spending nothing.
    overload_cluster.submit("approx", instance_doc, priority="standard", deadline_seconds=30.0)
    doc = overload_cluster.submit(
        "approx", instance_doc, priority="standard", deadline_seconds=1e-9
    )
    assert doc["status"] == 503
    assert doc["error"] == "deadline_doomed"


def test_cluster_overload_snapshot_shape(overload_cluster, instance_doc):
    overload_cluster.submit("approx", instance_doc, priority="best_effort")
    health = overload_cluster.health()
    overload = health["overload"]
    assert overload["brownout"]["level"] in range(len(BROWNOUT_LADDER))
    (shard_stats,) = overload["shards"].values()
    assert 0.0 < shard_stats["admit_rate"] <= 1.0
    assert "queue_delay" in shard_stats
