"""Micro-benchmarks of the core algorithms (not a paper artefact).

Classic pytest-benchmark timing of the individual building blocks at a
representative size, so performance regressions in the algorithms are
caught independently of the figure-level sweeps.
"""

import pytest

from repro.algorithms import (
    compute_naive_solution,
    refine_profile,
    round_fractional,
    solve_fractional,
)
from repro.algorithms.single_machine import solve_single_machine
from repro.core.segments import build_segment_list
from repro.exact import solve_lp_relaxation
from repro.workloads import runtime_instance

N, M = 100, 5


@pytest.fixture(scope="module")
def instance():
    return runtime_instance(N, M, seed=7)


def test_bench_single_machine(benchmark, instance):
    # The whole cluster as one machine: deadlines in seconds, total speed,
    # so the greedy walks the segment table instead of stopping at once.
    deadlines = instance.tasks.deadlines
    speed = float(instance.cluster.speeds.sum())

    def run():
        segments = build_segment_list(instance.tasks)
        return solve_single_machine(deadlines, speed, segments)

    benchmark(run)


def test_bench_compute_naive_solution(benchmark, instance):
    benchmark(lambda: compute_naive_solution(instance))


def test_bench_refine_profile(benchmark, instance):
    naive = compute_naive_solution(instance)
    benchmark(lambda: refine_profile(instance, naive.times))


def test_bench_solve_fractional(benchmark, instance):
    benchmark(lambda: solve_fractional(instance))


def test_bench_round_fractional(benchmark, instance):
    fractional, _ = solve_fractional(instance)
    benchmark(lambda: round_fractional(instance, fractional))


def test_bench_lp_relaxation(benchmark, instance):
    benchmark(lambda: solve_lp_relaxation(instance))
