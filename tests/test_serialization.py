"""JSON round-trips of instances and schedules."""

import json
import math

import numpy as np
import pytest

from repro.algorithms import ApproxScheduler
from repro.core import (
    ProblemInstance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.utils.errors import ValidationError

from conftest import make_instance


class TestInstanceRoundtrip:
    def test_exact_roundtrip(self):
        inst = make_instance(n=6, m=3, beta=0.4, seed=120)
        clone = instance_from_dict(instance_to_dict(inst))
        assert clone.budget == inst.budget
        assert np.array_equal(clone.tasks.deadlines, inst.tasks.deadlines)
        assert np.array_equal(clone.cluster.speeds, inst.cluster.speeds)
        for a, b in zip(inst.tasks, clone.tasks):
            assert np.array_equal(a.accuracy.breakpoints, b.accuracy.breakpoints)
            assert np.array_equal(
                a.accuracy.breakpoint_accuracies, b.accuracy.breakpoint_accuracies
            )

    def test_infinite_budget(self):
        inst = make_instance(n=3, m=2, seed=121)
        inst = ProblemInstance(inst.tasks, inst.cluster, math.inf)
        clone = instance_from_dict(instance_to_dict(inst))
        assert math.isinf(clone.budget)

    def test_file_roundtrip(self, tmp_path):
        inst = make_instance(n=4, m=2, seed=122)
        path = tmp_path / "instance.json"
        save_instance(inst, path)
        clone = load_instance(path)
        assert clone.n_tasks == 4
        # valid JSON on disk
        json.loads(path.read_text())

    def test_preserves_names_and_idle_power(self):
        from repro.core import Cluster, Machine, Task, TaskSet
        from conftest import simple_pla

        inst = ProblemInstance(
            TaskSet([Task(1.0, simple_pla(), name="batch-a")]),
            Cluster([Machine(1e12, 1e10, name="gpu-1", idle_power=30.0)]),
            5.0,
        )
        clone = instance_from_dict(instance_to_dict(inst))
        assert clone.tasks[0].name == "batch-a"
        assert clone.cluster[0].name == "gpu-1"
        assert clone.cluster[0].idle_power == 30.0

    def test_rejects_wrong_format(self):
        with pytest.raises(ValidationError):
            instance_from_dict({"format": "something-else", "version": 1})

    def test_rejects_wrong_version(self):
        inst = make_instance(n=2, m=1, seed=123)
        data = instance_to_dict(inst)
        data["version"] = 99
        with pytest.raises(ValidationError):
            instance_from_dict(data)


class TestMalformedCurves:
    """A bad curve in a document is rejected, naming its task."""

    def doc(self):
        inst = make_instance(n=4, m=2, seed=130)
        data = instance_to_dict(inst)
        data["tasks"][2]["name"] = "bad-one"
        return data

    def corrupt(self, edit):
        data = self.doc()
        edit(data["tasks"][2]["accuracy"])
        with pytest.raises(ValidationError, match=r"task 2 \('bad-one'\)") as info:
            instance_from_dict(data)
        return str(info.value)

    def test_non_concave(self):
        def edit(acc):
            acc["accuracies"][1] = acc["accuracies"][0] + 1e-6

        assert "concave" in self.corrupt(edit)

    def test_accuracy_above_one(self):
        def edit(acc):
            acc["accuracies"][-1] = 1.5

        assert "[0, 1]" in self.corrupt(edit)

    def test_nan_accuracy(self):
        def edit(acc):
            acc["accuracies"][3] = float("nan")

        assert "finite" in self.corrupt(edit)

    def test_breakpoint_not_increasing(self):
        def edit(acc):
            acc["breakpoints"][2] = acc["breakpoints"][1]

        assert "strictly increasing" in self.corrupt(edit)

    def test_length_mismatch(self):
        def edit(acc):
            acc["accuracies"].pop()

        assert "equal length" in self.corrupt(edit)

    def test_mixed_piece_counts_roundtrip_and_validate(self):
        from repro.core import PiecewiseLinearAccuracy, Task, TaskSet

        inst = make_instance(n=3, m=2, seed=131)
        short = PiecewiseLinearAccuracy([0.0, 1e12, 4e12], [0.0, 0.4, 0.6])
        tasks = TaskSet(list(inst.tasks) + [Task(0.5, short, name="short")])
        data = instance_to_dict(ProblemInstance(tasks, inst.cluster, inst.budget))
        clone = instance_from_dict(data)
        assert clone.tasks.n_segments.tolist() == tasks.n_segments.tolist()
        assert np.array_equal(clone.tasks.points, tasks.points)
        assert np.array_equal(clone.tasks.slopes, tasks.slopes)
        j = [t["name"] for t in data["tasks"]].index("short")
        data["tasks"][j]["accuracy"]["accuracies"][1] = 0.1
        with pytest.raises(ValidationError, match=rf"task {j} \('short'\).*concave"):
            instance_from_dict(data)


class TestScheduleRoundtrip:
    def test_embedded_instance(self, tmp_path):
        inst = make_instance(n=5, m=2, beta=0.5, seed=124)
        sched = ApproxScheduler().solve(inst)
        path = tmp_path / "schedule.json"
        save_schedule(sched, path)
        clone = load_schedule(path)
        assert np.allclose(clone.times, sched.times)
        assert clone.total_accuracy == pytest.approx(sched.total_accuracy)

    def test_external_instance(self):
        inst = make_instance(n=5, m=2, beta=0.5, seed=125)
        sched = ApproxScheduler().solve(inst)
        data = schedule_to_dict(sched, embed_instance=False)
        assert "instance" not in data
        clone = schedule_from_dict(data, inst)
        assert np.allclose(clone.times, sched.times)

    def test_missing_instance_raises(self):
        inst = make_instance(n=3, m=2, seed=126)
        sched = ApproxScheduler().solve(inst)
        data = schedule_to_dict(sched, embed_instance=False)
        with pytest.raises(ValidationError):
            schedule_from_dict(data)

    def test_feasibility_preserved(self, tmp_path):
        inst = make_instance(n=6, m=2, beta=0.3, seed=127)
        sched = ApproxScheduler().solve(inst)
        path = tmp_path / "s.json"
        save_schedule(sched, path)
        assert load_schedule(path).feasibility(integral=True).feasible
