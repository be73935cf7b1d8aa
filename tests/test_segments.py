"""The flat segment table driving Algorithm 1."""

import numpy as np
import pytest

from repro.core.segments import SegmentTable, build_segment_list, task_used_flops

from conftest import make_tasks


def table(rows):
    """A segment table from (task, position, slope, total, used) rows."""
    task, position, slope, total, used = (np.array(col) for col in zip(*rows))
    return SegmentTable(slope=slope, task=task, position=position, total=total, used=used)


class TestSegmentTable:
    def test_remaining(self):
        segs = table([(0, 0, 0.5, 100.0, 0.0), (0, 1, 0.2, 100.0, 30.0), (1, 0, 0.3, 10.0, 10.0 + 1e-12)])
        assert segs.remaining.tolist() == [100.0, 70.0, 0.0]
        assert len(segs) == 3


class TestBuildAndOrder:
    def test_build_covers_all_tasks(self):
        tasks = make_tasks(n=4)
        segments = build_segment_list(tasks)
        assert set(segments.task.tolist()) == {0, 1, 2, 3}
        per_task = int(np.sum(segments.task == 0))
        assert per_task == tasks[0].accuracy.n_segments
        assert np.all(segments.used == 0.0)

    def test_build_flops_match_task_fmax(self):
        tasks = make_tasks(n=3)
        segments = build_segment_list(tasks)
        for j, task in enumerate(tasks):
            total = segments.total[segments.task == j].sum()
            assert total == pytest.approx(task.f_max)

    def test_build_matches_scalar_segments(self):
        tasks = make_tasks(n=3)
        segments = build_segment_list(tasks)
        expected = [
            (j, seg.position, seg.slope, seg.total_flops)
            for j, task in enumerate(tasks)
            for seg in task.accuracy.segments()
        ]
        got = list(
            zip(
                segments.task.tolist(),
                segments.position.tolist(),
                segments.slope.tolist(),
                segments.total.tolist(),
            )
        )
        assert got == expected

    def test_order_by_slope_nonincreasing(self):
        tasks = make_tasks(n=5)
        segments = build_segment_list(tasks)
        order = np.lexsort((segments.position, segments.task, -segments.slope))
        slopes = segments.slope[order]
        assert np.all(slopes[:-1] >= slopes[1:])

    def test_order_within_task_respects_position(self):
        tasks = make_tasks(n=1)
        segments = build_segment_list(tasks)
        order = np.lexsort((segments.position, segments.task, -segments.slope))
        positions = segments.position[order][segments.task[order] == 0].tolist()
        assert positions == sorted(positions)

    def test_task_used_flops(self):
        segs = table([(0, 0, 0.5, 10.0, 4.0), (0, 1, 0.2, 10.0, 1.0), (1, 0, 0.3, 10.0, 2.5)])
        assert task_used_flops(segs, 3).tolist() == [5.0, 2.5, 0.0]
